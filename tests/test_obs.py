"""Observability layer: metrics registry, pipeline spans, run reports,
resource accounting and the Scenario-based harness API."""

import json

import pytest

from repro.bench.harness import DEFAULT_WARMUP, Scenario, run
from repro.obs import PHASES, MetricsRegistry, Observability, PipelineTracer
from repro.obs.report import validate_bench_report, validate_report
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.sim.trace import ThroughputMeter, bucket_timeline, merge_stamps


@pytest.fixture(scope="module")
def observed_run():
    """One observed SMARTCHAIN run shared by the report/span assertions."""
    return run(Scenario(system="smartchain", clients=300, duration=2.0,
                        seed=77, observe=True))


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2)
        reg.gauge("b").set(5.0)
        reg.gauge("b").dec(1.5)
        reg.histogram("c").observe(1.0)
        reg.histogram("c").observe(3.0)
        assert reg.counter("a").value == 3
        assert reg.gauge("b").value == 3.5
        assert reg.histogram("c").mean() == 2.0

    def test_labels_partition_series(self):
        reg = MetricsRegistry()
        reg.counter("tx", node=0).inc(5)
        reg.counter("tx", node=1).inc(7)
        assert reg.value("tx", node=0) == 5
        assert reg.value("tx", node=1) == 7
        assert reg.total("tx") == 12
        snapshot = reg.snapshot()
        assert snapshot["tx{node=0}"] == 5
        assert snapshot["tx{node=1}"] == 7

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.histogram("h").observe(0.5)
        json.dumps(reg.snapshot())


class TestPipelineTracer:
    def test_sampling_is_deterministic(self):
        tracer = PipelineTracer(sample_every=7)
        first = [tracer.sampled((3, i)) for i in range(100)]
        second = [tracer.sampled((3, i)) for i in range(100)]
        assert first == second
        assert 1 <= sum(first) < 100

    def test_bind_merges_cid_marks_into_request_span(self):
        tracer = PipelineTracer()
        key = (10, 1)
        tracer.mark_request(key, "client_send", 0.0)
        tracer.bind(key, 5)
        tracer.mark_cid(5, "propose", 0.002)
        tracer.mark_cid(5, "accept", 0.004)
        tracer.mark_request(key, "reply", 0.006)
        phases = [phase for phase, _ in tracer.span(key)]
        assert phases == ["client_send", "propose", "accept", "reply"]

    def test_out_of_pipeline_order_marks_stay_chronological(self):
        # Dura-SMaRt syncs the log before execution: body_write precedes
        # execute in time.  Durations must stay non-negative.
        tracer = PipelineTracer()
        key = (1, 1)
        tracer.mark_request(key, "client_send", 0.0)
        tracer.bind(key, 1)
        tracer.mark_cid(1, "accept", 0.010)
        tracer.mark_cid(1, "body_write", 0.015)
        tracer.mark_cid(1, "execute", 0.020)
        durations = tracer.phase_durations()
        assert durations["body_write"] == [pytest.approx(0.005)]
        assert durations["execute"] == [pytest.approx(0.005)]

    def test_first_mark_wins(self):
        tracer = PipelineTracer()
        tracer.mark_cid(1, "propose", 1.0)
        tracer.mark_cid(1, "propose", 2.0)
        assert tracer._cid_marks[1]["propose"] == 1.0


class TestResourceAccounting:
    def test_busy_fraction_within_unit_interval(self):
        sim = Simulator(1, obs=Observability(enabled=True))
        resource = Resource(sim, servers=2, name="sm-test")
        for _ in range(50):
            resource.submit(0.010)
        sim.run()
        stats = resource.stats(sim.now)
        assert 0.0 <= stats["busy_fraction"] <= 1.0
        assert stats["jobs_served"] == 50

    def test_queue_depth_tracked_only_when_observed(self):
        sim = Simulator(1, obs=Observability(enabled=True))
        resource = Resource(sim, servers=1, name="queued")
        for _ in range(10):
            resource.submit(0.001)
        sim.run()
        assert resource.queue_peak == 9
        assert resource.mean_queue_depth() > 0

        plain_sim = Simulator(1)
        plain = Resource(plain_sim, servers=1, name="unobserved")
        for _ in range(10):
            plain.submit(0.001)
        plain_sim.run()
        assert plain.queue_peak == 0
        assert plain.mean_queue_depth() == 0.0

    def test_resources_self_register(self):
        sim = Simulator(1)
        Resource(sim, name="one")
        Resource(sim, name="two")
        assert [r.name for r in sim.obs.resources] == ["one", "two"]


class TestObservedRun:
    def test_span_chain_complete(self, observed_run):
        tracer = observed_run.handle.obs.tracer
        complete = tracer.complete_spans(required=PHASES)
        assert complete, "no request traced through all nine phases"
        for span in complete.values():
            times = [when for _, when in span]
            assert times == sorted(times)

    def test_every_resource_busy_fraction_in_unit_interval(self, observed_run):
        for entry in observed_run.report["resources"]:
            assert 0.0 <= entry["busy_fraction"] <= 1.0, entry

    def test_phase_breakdown_covers_pipeline(self, observed_run):
        phases = observed_run.report["phases"]
        # client_send anchors each span (no duration of its own); every
        # other phase must appear for the strong sync configuration.
        assert set(PHASES) - {"client_send"} <= set(phases)
        for stats in phases.values():
            assert stats["count"] > 0
            assert stats["mean_s"] >= 0

    def test_report_round_trips_json(self, observed_run):
        payload = json.dumps(observed_run.to_json())
        restored = json.loads(payload)
        assert restored["report"]["summary"]["throughput_tx_s"] == \
            observed_run.throughput
        validate_report(restored["report"])

    def test_metrics_replace_adhoc_attributes(self, observed_run):
        metrics = observed_run.report["metrics"]
        assert metrics["blocks"] > 0
        assert metrics["chain.blocks_built{node=0}"] == metrics["blocks"]
        assert any(name.startswith("net.messages") for name in metrics)

    def test_validator_rejects_corrupt_report(self, observed_run):
        report = json.loads(json.dumps(observed_run.report))
        report["resources"][0]["busy_fraction"] = 1.5
        with pytest.raises(ValueError):
            validate_report(report)


class TestScenarioAPI:
    def test_observability_does_not_perturb_results(self):
        plain = run(Scenario(system="dura", clients=200, duration=1.5,
                             seed=43))
        observed = run(Scenario(system="dura", clients=200, duration=1.5,
                                seed=43, observe=True))
        assert observed.throughput == plain.throughput
        assert observed.completed == plain.completed
        assert plain.report is None
        assert observed.report is not None

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run(Scenario(system="raft"))

    def test_warmup_unified_across_systems(self):
        assert Scenario().warmup == DEFAULT_WARMUP == 1.0
        result = run(Scenario(system="tendermint", clients=100,
                              duration=2.0, seed=44))
        assert result.warmup == DEFAULT_WARMUP

    def test_handle_carries_live_objects(self):
        result = run(Scenario(system="smartchain", clients=100,
                              duration=1.0, seed=45))
        assert result.handle is not None
        assert result.handle.system.node(0).chain.height >= 0
        assert "handle" not in result.to_json()

    def test_result_metrics_are_json_safe(self):
        result = run(Scenario(system="dura", clients=150, duration=1.5,
                              seed=46))
        json.dumps(result.to_json())
        assert result.metrics["group_commits"] > 0
        assert result.metrics["mean_group_commit"] > 0


class TestSharedMeasurement:
    def test_meter_stamps_public_accessor(self):
        sim = Simulator(1)
        meter = ThroughputMeter(sim)
        meter.record(3)
        assert meter.stamps() == [(0.0, 3)]
        meter.stamps().append((9.9, 1))  # a copy: mutation must not leak
        assert meter.stamps() == [(0.0, 3)]

    def test_merge_and_bucket(self):
        sim = Simulator(1)
        a, b = ThroughputMeter(sim), ThroughputMeter(sim)
        a.record(2)
        sim.schedule(1.0, b.record, 4)
        sim.run()
        merged = merge_stamps([a, b])
        assert merged == [(0.0, 2), (1.0, 4)]
        timeline = bucket_timeline(merged, horizon=2.0, width=1.0)
        assert timeline == [(0.5, 2.0), (1.5, 4.0)]


class TestBenchReportCLI:
    def test_smoke_report_validates(self, tmp_path):
        from repro.bench.__main__ import main
        out = tmp_path / "report.json"
        assert main(["--smoke", "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        validate_bench_report(report, min_phases=6)
        run_report = report["runs"][0]
        assert len(run_report["phases"]) >= 6
        assert run_report["resource_roles"]
