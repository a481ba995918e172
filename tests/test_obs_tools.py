"""repro.obs v2 tooling: event log, trace export, report comparison, CLI.

Covers the deterministic-export guarantee (same seed → byte-identical
JSONL and trace JSON), the Chrome trace-event schema, the p99 quantiles,
the baseline comparison with tolerance bands, and the new bench CLI flags
(``--list``, ``--trace``, ``--events``, ``--check-against``, ``--audit``).
"""

import copy
import json

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import Scenario, run
from repro.config import PersistenceVariant, StorageMode, VerificationMode
from repro.crypto.hashing import set_caches_enabled
from repro.obs.compare import (
    DEFAULT_LATENCY_TOLERANCE,
    DEFAULT_THROUGHPUT_TOLERANCE,
    ComparisonResult,
    compare_reports,
)
from repro.obs.events import EVENT_KINDS, EventLog
from repro.obs.metrics import Histogram
from repro.obs.traceview import TRACE_PHASES, build_trace, validate_trace
from repro.obs.report import validate_bench_report


def _observed(seed: int = 77):
    return run(Scenario(system="smartchain", clients=300, duration=2.0,
                        seed=seed, observe=True))


@pytest.fixture(scope="module")
def observed_run():
    return _observed()


def _nodes(result):
    return sorted(result.handle.system.nodes.values(), key=lambda n: n.id)


def _agreed(node):
    return (node.chain.height, node.chain.head_digest(),
            node.delivery.app.state_digest())


def _first_result_rows_shared(nodes) -> bool:
    first = [node.chain.get(1).body.results[0] for node in nodes]
    assert all(row == first[0] for row in first)
    return all(row is first[0] for row in first)


class TestEventLog:
    def test_unknown_kind_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("made-up-kind", 0, 0.0)

    def test_capacity_bound_counts_drops(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("decide", 0, float(index), cid=index)
        assert len(log) == 3
        assert log.dropped == 2

    def test_run_records_only_known_kinds(self, observed_run):
        kinds = set(observed_run.handle.obs.events.counts())
        assert kinds
        assert kinds <= EVENT_KINDS

    def test_jsonl_lines_parse_and_are_ordered(self, observed_run):
        lines = observed_run.handle.obs.events.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == len(observed_run.handle.obs.events)
        keys = [(r["time"], r["seq"]) for r in records]
        assert keys == sorted(keys)

    def test_disabled_run_records_nothing(self):
        result = run(Scenario(system="smartchain", clients=300, duration=2.0,
                              seed=77))
        assert len(result.handle.obs.events) == 0


class TestDeterminism:
    def test_same_seed_exports_are_byte_identical(self, observed_run):
        again = _observed()
        first, second = observed_run.handle.obs, again.handle.obs
        assert first.events.to_jsonl() == second.events.to_jsonl()
        trace_a = json.dumps(build_trace(first, horizon=3.0), sort_keys=True)
        trace_b = json.dumps(build_trace(second, horizon=3.0), sort_keys=True)
        assert trace_a == trace_b

    def test_different_seed_differs(self, observed_run):
        other = _observed(seed=78)
        assert (observed_run.handle.obs.events.to_jsonl()
                != other.handle.obs.events.to_jsonl())


class TestDeterminismUnderCaching:
    """The crypto caches are pure optimization: disabling them via the
    escape hatch must leave every export byte and every reported number
    unchanged (docs/performance.md)."""

    def test_cache_off_exports_and_summary_identical(self, observed_run):
        set_caches_enabled(False)
        try:
            uncached = _observed()
        finally:
            set_caches_enabled(True)
        assert (observed_run.handle.obs.events.to_jsonl()
                == uncached.handle.obs.events.to_jsonl())
        assert observed_run.report["summary"] == uncached.report["summary"]
        # What the replicas agreed on, too: chain heads and service state.
        # Uncached, the result-row memo stores nothing, so each replica
        # built its own result rows — equal bytes, distinct objects — where
        # the cached run's replicas share one tuple per row.
        cached_nodes = _nodes(observed_run)
        uncached_nodes = _nodes(uncached)
        assert ([_agreed(n) for n in cached_nodes]
                == [_agreed(n) for n in uncached_nodes])
        assert _first_result_rows_shared(cached_nodes)
        assert not _first_result_rows_shared(uncached_nodes)

    def test_table1_row_numbers_identical_cache_on_and_off(self):
        def row():
            return run(Scenario(
                system="naive", verification=VerificationMode.SEQUENTIAL,
                storage=StorageMode.SYNC, clients=300, duration=1.0, seed=5))

        cached = row()
        set_caches_enabled(False)
        try:
            uncached = row()
        finally:
            set_caches_enabled(True)
        assert cached.throughput == uncached.throughput
        assert cached.completed == uncached.completed
        assert cached.latency_mean == uncached.latency_mean
        assert cached.latency_p95 == uncached.latency_p95
        # The cached run saw real cache traffic; the uncached run none.
        assert cached.metrics["digest_cache_hits"] > 0
        assert uncached.metrics["digest_cache_hits"] == 0
        assert uncached.metrics["digest_cache_misses"] == 0

    @pytest.mark.parametrize("scenario", [
        Scenario(system="naive", verification=VerificationMode.SEQUENTIAL,
                 storage=StorageMode.SYNC, clients=1200, duration=2.5,
                 seed=1),
        # SMARTCHAIN strong/sync: Merkle roots, record checksums and the
        # batch hash go through the same content-addressed table.
        Scenario(system="smartchain", variant=PersistenceVariant.STRONG,
                 storage=StorageMode.SYNC, clients=1200, duration=2.5,
                 seed=1),
    ], ids=["naive", "smartchain-strong-sync"])
    def test_steady_state_digest_hit_rate(self, scenario, record_property):
        result = run(scenario)
        hits = result.metrics["digest_cache_hits"]
        misses = result.metrics["digest_cache_misses"]
        assert hits + misses > 10_000  # the run actually exercised the cache
        # Memo lookups only: the number rises as more sites are memoised.
        record_property("digest_lookups_per_tx",
                        round((hits + misses) / result.completed, 3))
        # Every unique payload is derived once per replica, so with n=4 the
        # structural ceiling on the hit rate is (n-1)/n = 75%; steady state
        # sits essentially at it.  A collapse below 70% means the memo keys
        # stopped matching (a regression in payload shapes or eviction).
        assert hits / (hits + misses) > 0.70
        assert result.metrics["verify_cache_hits"] > 0
        assert result.metrics["heap_compactions"] >= 0


class TestTraceExport:
    def test_trace_validates_and_covers_nodes(self, observed_run):
        obs = observed_run.handle.obs
        trace = validate_trace(build_trace(obs, horizon=3.0))
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= set(TRACE_PHASES)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(obs.events)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["dur"] >= 0 for e in slices)
        # One named process track per replica.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"node-0", "node-1", "node-2", "node-3"} <= names

    def test_trace_round_trips_json(self, observed_run):
        trace = build_trace(observed_run.handle.obs, horizon=3.0)
        validate_trace(json.loads(json.dumps(trace)))

    def test_request_flow_arrows_pair_up(self, observed_run):
        # Every completed request gets one "s" → "f" flow pair sharing an
        # id, anchored at its submit/reply instants on the station track.
        trace = validate_trace(build_trace(observed_run.handle.obs,
                                           horizon=3.0))
        starts = {e["id"]: e for e in trace["traceEvents"]
                  if e["ph"] == "s"}
        ends = {e["id"]: e for e in trace["traceEvents"] if e["ph"] == "f"}
        assert starts and set(starts) == set(ends)
        for flow_id, start in starts.items():
            end = ends[flow_id]
            assert start["ts"] <= end["ts"]
            assert end["bp"] == "e"
            assert start["args"] == end["args"]

    def test_validator_rejects_malformed_trace(self, observed_run):
        trace = json.loads(json.dumps(
            build_trace(observed_run.handle.obs, horizon=3.0)))
        trace["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(ValueError):
            validate_trace(trace)
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": []})
        flow = dict(next(e for e in trace["traceEvents"]
                         if e["ph"] == "s"))
        del flow["id"]
        with pytest.raises(ValueError):
            validate_trace({"traceEvents": [flow]})


class TestQuantiles:
    def test_histogram_reports_p99(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] >= 99.0

    def test_report_carries_p99_latency_and_phases(self, observed_run):
        summary = observed_run.report["summary"]
        assert summary["latency_p99_s"] >= summary["latency_p95_s"]
        for stats in observed_run.report["phases"].values():
            assert stats["p99_s"] >= stats["p95_s"]


class TestCompareReports:
    @pytest.fixture()
    def bench_report(self, observed_run):
        return {"schema": "repro.obs/bench-report/v1", "experiment": "x",
                "options": {"clients": 300, "seed": 77},
                "runs": [observed_run.report]}

    def test_identical_reports_match(self, bench_report):
        result = compare_reports(bench_report, bench_report)
        assert isinstance(result, ComparisonResult)
        assert result.ok and result.matched_runs == 1
        assert "OK" in result.format()

    def test_throughput_drift_beyond_tolerance_flagged(self, bench_report):
        tampered = copy.deepcopy(bench_report)
        tampered["runs"][0]["summary"]["throughput_tx_s"] *= 2.0
        result = compare_reports(bench_report, tampered)
        assert not result.ok
        assert any(d.metric == "throughput_tx_s" for d in result.deviations)

    def test_drift_within_tolerance_passes(self, bench_report):
        tampered = copy.deepcopy(bench_report)
        tampered["runs"][0]["summary"]["throughput_tx_s"] *= 1.05
        assert compare_reports(bench_report, tampered).ok

    def test_missing_run_and_option_mismatch_flagged(self, bench_report):
        current = copy.deepcopy(bench_report)
        current["runs"] = []
        current["options"]["seed"] = 99
        result = compare_reports(bench_report, current)
        assert not result.ok
        metrics = {d.metric for d in result.deviations}
        assert "presence" in metrics
        assert any(m.startswith("options.") for m in metrics)

    def test_drift_exactly_at_band_edge_passes(self, bench_report):
        # The band is inclusive: |current - baseline| <= tol * |baseline|.
        # Binary-exact values (0.5 baseline, 0.25 tolerance) pin the edge
        # without float rounding deciding the outcome.
        assert DEFAULT_LATENCY_TOLERANCE == 0.25
        baseline = copy.deepcopy(bench_report)
        baseline["runs"][0]["summary"]["latency_mean_s"] = 0.5
        tampered = copy.deepcopy(baseline)
        tampered["runs"][0]["summary"]["latency_mean_s"] = 0.625  # +25%
        assert compare_reports(baseline, tampered).ok
        tampered["runs"][0]["summary"]["latency_mean_s"] = 0.375  # -25%
        assert compare_reports(baseline, tampered).ok

    def test_drift_just_beyond_band_edge_fails(self, bench_report):
        baseline = copy.deepcopy(bench_report)
        baseline["runs"][0]["summary"]["latency_mean_s"] = 0.5
        tampered = copy.deepcopy(baseline)
        tampered["runs"][0]["summary"]["latency_mean_s"] = 0.6251
        result = compare_reports(baseline, tampered)
        assert not result.ok
        assert [d.metric for d in result.deviations] == ["latency_mean_s"]
        tampered["runs"][0]["summary"]["latency_mean_s"] = 0.3749
        assert not compare_reports(baseline, tampered).ok

    def test_throughput_band_uses_its_own_tolerance(self, bench_report):
        tampered = copy.deepcopy(bench_report)
        summary = tampered["runs"][0]["summary"]
        base = bench_report["runs"][0]["summary"]["throughput_tx_s"]
        summary["throughput_tx_s"] = base * (
            1.0 + DEFAULT_THROUGHPUT_TOLERANCE - 0.01)
        assert compare_reports(bench_report, tampered).ok
        summary["throughput_tx_s"] = base * (
            1.0 + DEFAULT_THROUGHPUT_TOLERANCE + 0.01)
        result = compare_reports(bench_report, tampered)
        assert [d.metric for d in result.deviations] == ["throughput_tx_s"]

    def test_zero_baseline_requires_zero_current(self, bench_report):
        zeroed = copy.deepcopy(bench_report)
        zeroed["runs"][0]["summary"]["throughput_tx_s"] = 0.0
        tampered = copy.deepcopy(zeroed)
        assert compare_reports(zeroed, tampered).ok
        tampered["runs"][0]["summary"]["throughput_tx_s"] = 0.001
        assert not compare_reports(zeroed, tampered).ok

    def test_missing_metric_is_skipped_not_flagged(self, bench_report):
        # A baseline predating a metric must not fail against newer reports
        # (and vice versa): absent values are skipped, not treated as drift.
        older = copy.deepcopy(bench_report)
        del older["runs"][0]["summary"]["latency_p95_s"]
        assert compare_reports(older, bench_report).ok
        assert compare_reports(bench_report, older).ok


class TestCLI:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table2", "fig6", "fig7", "fig8",
                     "ablations", "smartchain", "engines", "shards",
                     "pipeline", "recovery"):
            assert name in out
        assert "observe" in out  # Scenario defaults are printed

    def test_smoke_with_exports_and_audit(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        code = main(["--smoke", "--audit", "--report", str(report),
                     "--trace", str(trace), "--events", str(events)])
        assert code == 0
        capsys.readouterr()
        bench = validate_bench_report(
            json.loads(report.read_text(encoding="utf-8")))
        assert bench["runs"][0]["audit"]["violations"] == []
        validate_trace(json.loads(trace.read_text(encoding="utf-8")))
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line) for line in lines)
        # The exported stream matches the report's event count.
        assert len(lines) == bench["runs"][0]["events"]["count"]

    def test_smoke_profile_prints_and_attaches_top_functions(self, tmp_path,
                                                             capsys):
        report = tmp_path / "report.json"
        assert main(["--smoke", "--profile", "--report", str(report)]) == 0
        assert "cumulative" in capsys.readouterr().err
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["profile"]
        assert "function" in data["profile"][0]

    def test_check_against_self_passes_and_tamper_fails(self, tmp_path,
                                                        capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["--smoke", "--report", str(baseline)]) == 0
        assert main(["--smoke", "--check-against", str(baseline)]) == 0
        data = json.loads(baseline.read_text(encoding="utf-8"))
        data["runs"][0]["summary"]["throughput_tx_s"] *= 2.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data), encoding="utf-8")
        assert main(["--smoke", "--check-against", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert "deviation" in err

    def test_flags_accepted_after_experiment_name(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(["smartchain", "--clients", "300", "--duration", "2.0",
                     "--trace", str(trace)])
        assert code == 0
        capsys.readouterr()
        validate_trace(json.loads(trace.read_text(encoding="utf-8")))
