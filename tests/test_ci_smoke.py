"""The CI smoke table (``scripts/ci_smoke.py``) still runs everything the
hand-written bash loops of ``.github/workflows/ci.yml`` ran before it:
every engine x fault plan x expected-exit combination, negative controls
included."""

import importlib.util
import types
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci_smoke.py"
_spec = importlib.util.spec_from_file_location("ci_smoke", _SCRIPT)
ci_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_smoke)

ENGINES = ("modsmart", "fastbft")
BASELINES = "benchmarks/results"


def _old_ci() -> list[tuple[str, str, int]]:
    """``(job, repro.bench command line, expected exit)`` — the bash loops
    of the pre-table ci.yml, transliterated, and the paper experiments that
    replaced its pytest-run ``figures`` job."""
    runs = []
    for engine in ENGINES:
        for plan in ("equivocate", "mute", "withhold-votes", "stale-replay",
                     "crash-storm"):
            runs.append(("chaos", f"smartchain --engine {engine} --clients 300"
                         f" --duration 2.0 --faults {plan} --audit", 0))
        runs.append(("shard", f"smartchain --engine {engine} --shards 2"
                     " --cross-shard-fraction 0.1 --clients 400"
                     " --duration 2.5 --audit --audit-liveness", 0))
        runs.append(("shard", f"smartchain --engine {engine} --shards 2"
                     " --cross-shard-fraction 0.1 --clients 400"
                     " --duration 2.5 --faults bitrot-recovery-shard1"
                     " --audit", 0))
        for plan in ("leader-delay", "timeout-jitter", "stop-spam"):
            runs.append(("liveness", f"smartchain --engine {engine}"
                         f" --clients 300 --duration 6.0 --faults {plan}"
                         " --audit-liveness"
                         f" --report liveness-{engine}-{plan}.json", 0))
        runs.append(("liveness", f"smartchain --engine {engine} --clients 300"
                     " --duration 4.0 --faults leader-delay-fixed"
                     " --audit-liveness", 2))
        for plan in ("bitrot-recovery", "torn-write-recovery"):
            runs.append(("recovery", f"recovery --engine {engine}"
                         f" --faults {plan} --audit", 0))
        runs.append(("recovery", f"recovery --engine {engine}"
                     " --faults bitrot-unverified --audit", 2))
        runs.append(("recovery", f"smartchain --engine {engine} --clients 600"
                     " --duration 4.0"
                     " --faults benchmarks/e2e/plans/leader-crash.json"
                     " --audit --audit-liveness", 0))
        for cores in (1, 2):
            runs.append(("pipeline", f"smartchain --engine {engine}"
                         f" --pipeline-depth 4 --exec-cores {cores}"
                         " --clients 400 --duration 2.5 --audit"
                         " --audit-liveness", 0))
    runs += [
        ("shard", "smartchain --shards 2 --clients 400 --duration 2.5"
         " --faults crash-storm-shard0 --audit", 0),
        ("shard", f"shards --check-against {BASELINES}/BENCH_shards.json", 0),
        ("recovery", "recovery --report recovery-report.json"
         f" --check-against {BASELINES}/BENCH_recovery.json", 0),
        ("pipeline", "smartchain --pipeline-depth 4 --clients 400"
         " --duration 2.5 --faults withhold-votes --audit", 0),
        ("pipeline", "pipeline --profile --report pipeline-report.json"
         f" --check-against {BASELINES}/BENCH_pipeline.json", 0),
        ("figures", f"table1 --check-against {BASELINES}/BENCH_table1.json",
         0),
        ("figures", "table2", 0),
        ("figures", "fig6", 0),
        ("figures", "fig7", 0),
        ("figures", "fig8", 0),
        ("figures", "ablations", 0),
    ]
    return runs


def _parsed(words) -> tuple[str, frozenset]:
    """``(experiment, {(flag, value-or-True)})`` — option order is free."""
    experiment, *rest = words
    options = set()
    for index, word in enumerate(rest):
        if word.startswith("--"):
            value = rest[index + 1] if index + 1 < len(rest) else "--"
            options.add((word, True if value.startswith("--") else value))
    return experiment, frozenset(options)


def test_table_runs_exactly_what_ci_ran():
    table = {(job, _parsed(args), expect)
             for job in ci_smoke.JOBS
             for args, expect in ci_smoke.commands(job)}
    old = {(job, _parsed(line.split()), expect)
           for job, line, expect in _old_ci()}
    assert old - table == set(), "a combination CI used to run is gone"
    assert table - old == set(), "new rows belong in _old_ci() too"
    assert sum(expect == 2 for _job, _args, expect in table) == 4


@pytest.mark.parametrize("status,outcome", [(2, 0), (0, 1)])
def test_runner_holds_rows_to_their_expected_exit(monkeypatch, status,
                                                  outcome):
    monkeypatch.setitem(ci_smoke.JOBS, "only", (
        ci_smoke.Row(("recovery", "--faults", "bitrot-unverified"),
                     expect=2),))
    ran = []

    def fake_run(command):
        ran.append(command)
        return types.SimpleNamespace(returncode=status)

    monkeypatch.setattr(ci_smoke.subprocess, "run", fake_run)
    assert ci_smoke.main(["only"]) == outcome
    assert ran[0][1:5] == ["-m", "repro.bench", "recovery", "--engine"]
    assert len(ran) == (2 if outcome == 0 else 1)   # stops at the first miss
    assert ci_smoke.main(["no-such-job"]) == 64


def test_ceilings_row_holds_the_e2e_result_to_the_committed_ceiling(tmp_path):
    import json
    ceilings = json.loads(ci_smoke.CEILINGS.read_text())
    bound = ceilings["workloads"]["coin_smartchain"]["peak_rss_mb"]
    assert bound["ceiling"] == pytest.approx(bound["median"] * 1.08, abs=0.01)

    def result(value):
        return {"workloads": {"coin_smartchain": {"end_to_end": {
            "peak_rss_mb": {"value": value}}}}}

    assert ci_smoke.over_ceiling(result(bound["median"]), ceilings) == []
    assert ci_smoke.over_ceiling(result(bound["ceiling"] * 1.01), ceilings)
    # A 20% slip back towards per-replica rows is caught ...
    assert ci_smoke.over_ceiling(result(bound["median"] * 1.2), ceilings)
    # ... and so is a result that no longer reports the metric.
    assert ci_smoke.over_ceiling({"workloads": {}}, ceilings)
    path = tmp_path / "e2e.json"
    path.write_text(json.dumps(result(bound["ceiling"] + 1.0)))
    assert ci_smoke.main(["ceilings", str(path)]) == 1
    path.write_text(json.dumps(result(bound["median"])))
    assert ci_smoke.main(["ceilings", str(path)]) == 0
