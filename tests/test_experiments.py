"""The shape claims of the paper experiments (``repro.bench.experiments``),
checked on synthetic rows: every claim holds on the values EXPERIMENTS.md
records and fails on rows that violate it.  No simulation runs here."""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS, Claim, Experiment

#: The measured values EXPERIMENTS.md records (default scale, seed 1).
RECORDED = {
    "table1": {"seq-sync": 2100, "seq-async": 2132, "par-sync": 4638,
               "par-async": 4292, "dura": 16604, "mint": 4642},
    "table2": {"strong": 11624, "weak": 13605, "tendermint": 1611,
               "fabric": 387},
    "fig6": {
        f"{system} {setup} n={n}": value
        for system, cells in {
            "dura": (16604, 16014, 16454, 15647, 30258, 32442, 30099, 30873),
            "weak": (13605, 13585, 14553, 16614, 23744, 22163, 29375, 30294),
            "strong": (11624, 11629, 14505, 14288, 17859, 17847, 23792,
                       21605),
        }.items()
        for (setup, n), value in zip(
            [(setup, n) for setup in ("Si+Sy", "Si", "Sy", "N")
             for n in (4, 7)], cells)},
    "fig7": {"steady tx/s": 8920, "joined at s": 18.30,
             "recovered at s": 43.25, "left at s": 49.17,
             "join transfer s": 62.98, "pre-crash tx/s": 10800,
             "post-crash peak tx/s": 10800, "dip floor tx/s": 0.0,
             "dip peak tx/s": 11012, "checkpoints": 3, "final tx/s": 10800},
    "fig8": {
        f"{name} @{height}": seconds
        for name, curve in {
            "no-ckpt": (3.56, 7.04, 10.60, 14.09, 17.64),
            "500-ckpt": (1.36, 0.53, 1.90, 1.07, 0.24),
            "1000-ckpt": (3.56, 2.73, 1.90, 1.07, 0.24),
            "2000-ckpt": (3.56, 7.04, 1.90, 5.39, 0.24),
        }.items()
        for height, seconds in zip((800, 1600, 2400, 3200, 4000), curve)},
    "ablations": {"weak batch=64": 7177, "strong batch=64": 4958,
                  "weak batch=512": 13605, "strong batch=512": 11624,
                  "group-commit limit=1": 3271,
                  "group-commit limit=10": 15658,
                  "checkpoint z=50": 11257, "checkpoint z=1000": 11624},
}

#: (experiment, claim) -> values that break the claim, over RECORDED.
VIOLATIONS = {
    ("table1", "rows-complete"): {"seq-async": 0.0},
    ("table1", "parallel-vs-sequential"): {"par-sync": 2400},
    ("table1", "dura-gain"): {"dura": 9000},
    ("table1", "mint-equivalent"): {"mint": 2900},
    ("table2", "rows-complete"): {"fabric": 0.0},
    ("table2", "dwarfs-tendermint"): {"tendermint": 3000},
    ("table2", "dwarfs-fabric"): {"fabric": 800},
    ("table2", "strong-close-to-weak"): {"strong": 9800},
    ("fig6", "rows-complete"): {"strong N n=7": 0.0},
    # Sync writes cost more than signatures.
    ("fig6", "signatures-dominate"): {"weak Si n=4": 27000},
    ("fig6", "strong-close-to-weak"): {"strong Si+Sy n=4": 14000},
    ("fig6", "size-minor-impact"): {"dura Si+Sy n=7": 9000},
    ("fig6", "plain-bftsmart-fastest"): {"dura N n=4": 29000},
    ("fig7", "lifecycle-completes"): {"recovered at s": -1.0},
    ("fig7", "crash-tolerated"): {"post-crash peak tx/s": 8000},
    ("fig7", "join-transfer-takes-time"): {"join transfer s": 20.0},
    ("fig7", "checkpoint-stalls"): {"dip floor tx/s": 6000},
    ("fig7", "recovers-after-leave"): {"final tx/s": 5000},
    ("fig8", "rows-complete"): {"1000-ckpt @3200": -1.0},
    ("fig8", "no-checkpoint-linear"): {"no-ckpt @2400": 6.0},
    ("fig8", "checkpoints-bound-update"): {"2000-ckpt @4000": 18.0},
    ("fig8", "smaller-period-faster"): {"500-ckpt @4000": 0.5},
    ("ablations", "rows-complete"): {"checkpoint z=50": 0.0},
    ("ablations", "persist-costs-throughput"): {"strong batch=512": 14500},
    # The PERSIST gap no wider at 64-tx blocks than at 512.
    ("ablations", "small-blocks-amplify-persist"): {"strong batch=64": 6800},
    ("ablations", "group-commit-dilutes-sync"): {"group-commit limit=1": 13000},
    ("ablations", "frequent-checkpoints-cost"): {"checkpoint z=50": 11700},
}


def _claim(experiment: str, name: str) -> Claim:
    return next(claim for claim in EXPERIMENTS[experiment].claims
                if claim.name == name)


@pytest.mark.parametrize("experiment", sorted(RECORDED))
def test_claims_hold_on_the_recorded_numbers(experiment):
    measured = RECORDED[experiment]
    for claim in EXPERIMENTS[experiment].claims:
        assert claim.check(measured), f"{claim.name}: {claim.values(measured)}"


@pytest.mark.parametrize("experiment,claim", sorted(VIOLATIONS))
def test_claim_fails_on_rows_that_violate_it(experiment, claim):
    measured = {**RECORDED[experiment], **VIOLATIONS[experiment, claim]}
    assert set(measured) == set(RECORDED[experiment])
    assert not _claim(experiment, claim).check(measured)


def test_every_claim_has_a_negative_control():
    assert set(VIOLATIONS) == {(name, claim.name) for name in RECORDED
                               for claim in EXPERIMENTS[name].claims}


def test_paper_numbers_sit_beside_measured_values():
    for name, measured in RECORDED.items():
        assert set(EXPERIMENTS[name].paper) <= set(measured), name


def test_a_claim_without_its_values_fails():
    assert not _claim("table1", "dura-gain").check({"dura": 16604})


@pytest.mark.parametrize("value,code", [(3.0, 0), (1.0, 1)])
def test_a_failing_claim_prints_its_values_and_exits_1(monkeypatch, capsys,
                                                      value, code):
    synthetic = Experiment(
        "synthetic", lambda options: {"row": lambda: {"x": value}},
        paper={"x": 2.0},
        claims=(Claim("x-large", "x exceeds 2", ("x",), lambda x: x > 2),))
    monkeypatch.setitem(EXPERIMENTS, "synthetic", synthetic)
    assert main(["synthetic"]) == code
    out = capsys.readouterr().out
    assert f"claim x-large: {'holds' if code == 0 else 'FAILS'}" in out
    assert ("x=1" in out) == (code == 1)


@pytest.mark.parametrize("argv", [
    ["fig7", "--audit"], ["fig8", "--report", "-"],
    ["fig7", "--faults", "equivocate"], ["fig8", "--check-against", "x.json"]])
def test_own_constructions_refuse_the_scenario_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "builds its own deployment" in capsys.readouterr().err
