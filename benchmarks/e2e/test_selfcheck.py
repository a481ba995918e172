"""Self-check of the benchmark of record.

Run with ``pytest benchmarks/e2e`` (tier-1 collects ``tests/`` only).  It
checks the benchmark's own files against each other — it measures nothing.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402  (also puts src/ on the import path)
import run as bench  # noqa: E402
import spec  # noqa: E402


def test_benchmark_json_matches_the_code():
    doc = spec.load_benchmark_json()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60

    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for entry in doc["workloads"]:
        assert sorted(entry) == ["name", "why"]
        assert entry["why"] == spec.WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    assert [m["name"] for m in doc["end_to_end"]] == list(spec.END_TO_END_NAMES)
    for entry, (name, unit, better, _sim) in zip(doc["end_to_end"],
                                                 spec.END_TO_END):
        assert sorted(entry) == ["better", "bound", "name", "unit"]
        assert (entry["unit"], entry["better"]) == (unit, better), name
        assert 0 < entry["bound"] <= 0.25, name
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])

    assert [m["name"] for m in doc["per_layer"]] == list(spec.PER_LAYER_NAMES)
    assert 1 <= len(doc["per_layer"]) <= 128
    for entry, (name, unit, better, _src, _moves) in zip(doc["per_layer"],
                                                         spec.PER_LAYER):
        assert sorted(entry) == ["better", "name", "unit"]
        assert (entry["unit"], entry["better"]) == (unit, better), name

    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert spec.UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")


def test_every_layer_has_its_shares():
    for layer in spec.LAYERS + (spec.OTHER,):
        assert f"{layer}.host_self_share" in spec.PER_LAYER_NAMES


def test_leader_crash_plan_round_trips():
    from repro.faults import FaultPlan, load_plan
    path = spec.PLAN_DIR / "leader-crash.json"
    plan = load_plan(str(path))
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert json.loads(json.dumps(plan.to_json()))["name"] == "leader-crash"
    (crash,) = plan.crashes
    assert (crash.node, crash.at, crash.recover_at) == (0, 1.5, 2.5)
    (rot,) = plan.storage
    assert (rot.node, rot.kind, rot.at) == (0, "bit-rot", 1.4)
    assert plan.protocol == {"request_timeout": 0.25}
    assert plan.liveness == {"gst": 1.5, "bound": 2.0}
    scenario = rep.build_scenario("coin_leader_crash", seed=3)
    assert scenario.faults == str(path) and scenario.seed == 3


def test_layer_fold_sums_to_one_on_a_tiny_scenario():
    import layerfold
    from repro.bench import Scenario, run
    scenario = Scenario(system="smartchain", clients=40, duration=1.2, seed=5)
    result, stats = layerfold.profile(lambda: run(scenario))
    assert result.completed > 0
    fold = layerfold.fold(stats)
    layers = fold["layers"]
    assert set(layers) == set(spec.LAYERS) | {spec.OTHER}
    assert abs(sum(entry["self_share"] for entry in layers.values()) - 1.0) < 1e-9
    assert layers["core"]["incl_share"] > layers["core"]["self_share"] > 0
    assert layers["obs"]["self_share"] < 0.01      # observation is off
    assert layers["faults"]["self_share"] == 0.0
    # A layer's own time is what enters it minus what leaves it (up to the
    # profiler's treatment of recursive functions).
    for name in spec.LAYERS:
        entry = layers[name]
        drift = abs(entry["self_s"] - (entry["incl_s"] - entry["out_s"]))
        assert drift <= 0.02 * fold["total_s"], (name, entry)
    assert all(edge["from"] != edge["to"] for edge in fold["edges"])


def test_compare_of_a_file_with_itself_is_all_same(capsys):
    baseline = spec.RESULTS_DIR / "baseline_seed1.json"
    assert bench.compare(baseline, baseline) == 0
    tally = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(baseline, encoding="utf-8") as fh:
        doc = json.load(fh)
    pairs = sum(len(w["end_to_end"]) for w in doc["workloads"].values())
    assert set(doc["workloads"]) == set(spec.WORKLOADS)
    assert tally == {"better": 0, "same": pairs, "worse": 0,
                     "unresolved": 0, "exact_changed": 0, "claim": None}
    assert doc["valid"] is True and doc["claim"] is None


def test_verdicts():
    host = {"value": 100.0, "q1": 99.0, "q3": 101.0, "kind": "host",
            "better": "lower"}
    assert bench.verdict(host, {**host, "value": 104.0}, 0.10)[0] == "same"
    assert bench.verdict(host, {**host, "value": 115.0}, 0.10)[0] == "worse"
    assert bench.verdict(host, {**host, "value": 85.0}, 0.10)[0] == "better"
    noisy = {**host, "q1": 90.0, "q3": 110.0}
    assert bench.verdict(host, noisy, 0.10)[0] == "unresolved"
    sim = {"value": 1000.0, "kind": "simulated", "better": "higher"}
    assert bench.verdict(sim, {**sim, "value": 990.0}, 0.005)[0] == "worse"
    assert bench.verdict(sim, {**sim, "value": 1010.0}, 0.005)[0] == "better"
    failed = {"value": 0.0, "kind": "simulated", "better": "lower"}
    assert bench.verdict(failed, failed, 0.0)[0] == "same"
    assert bench.verdict(failed, {**failed, "value": 0.001}, 0.0)[0] == "worse"
