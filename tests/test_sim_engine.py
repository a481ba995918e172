"""Unit tests for the discrete-event engine and resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.sim.trace import (
    LatencyRecorder,
    ThroughputMeter,
    bucket_timeline,
    merge_stamps,
    op_window_rates,
    trimmed_mean,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(3.0, out.append, "c")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        out = []
        for tag in "abcde":
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        out = []
        event = sim.schedule(1.0, out.append, "x")
        event.cancel()
        sim.run()
        assert out == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def first():
            out.append(("first", sim.now))
            sim.schedule(1.0, second)

        def second():
            out.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert out == [("first", 1.0), ("second", 2.0)]

    def test_run_until_stops_clock_at_horizon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_exact_boundary_event_runs(self):
        sim = Simulator()
        out = []
        sim.schedule(5.0, out.append, "edge")
        sim.run(until=5.0)
        assert out == ["edge"]

    def test_stop_halts_run(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: (out.append("a"), sim.stop()))
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a"]

    def test_step_executes_single_event(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1)
        sim.schedule(2.0, out.append, 2)
        assert sim.step() is True
        assert out == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(3.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]

    def test_determinism_same_seed(self):
        def trajectory(seed):
            sim = Simulator(seed)
            out = []

            def tick(i):
                out.append((round(sim.now, 9), i))
                if i < 20:
                    sim.schedule(sim.rng.random(), tick, i + 1)

            sim.schedule(0.0, tick, 0)
            sim.run()
            return out

        assert trajectory(7) == trajectory(7)
        assert trajectory(7) != trajectory(8)

    def test_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.executed == 5

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0


class TestHeapHygiene:
    """Tombstone accounting: cancels must never corrupt the live counter."""

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.0)
        assert event.fired
        assert sim.pending == 1
        event.cancel()  # late cancel: must not decrement live accounting
        event.cancel()
        assert sim.pending == 1
        assert sim.tombstones == 0
        sim.run()
        assert sim.executed == 2

    def test_double_cancel_counts_one_tombstone(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1
        assert sim.tombstones == 1

    def test_pending_tracks_live_events_only(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for event in events[:4]:
            event.cancel()
        assert sim.pending == 6
        assert sim.tombstones == 4
        sim.run()
        assert sim.executed == 6
        assert sim.pending == 0

    def test_compaction_triggers_and_preserves_live_events(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(float(i + 1), out.append, i)
        doomed = [sim.schedule(100.0, lambda: out.append(-1))
                  for _ in range(300)]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        assert sim.pending == 5
        sim.run()
        assert out == [0, 1, 2, 3, 4]
        assert sim.executed == 5

    def test_peek_time_pops_tombstones_lazily(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.tombstones == 1
        assert sim.peek_time() is None
        assert sim.tombstones == 0

    def test_cancelled_event_drops_callback_references(self):
        sim = Simulator()
        payload = object()
        event = sim.schedule(1.0, lambda obj: None, payload)
        event.cancel()
        assert event.args == ()


class TestResource:
    def test_single_server_serializes(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        done = []
        resource.submit(1.0, lambda: done.append(sim.now))
        resource.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0]

    def test_multi_server_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, 2)
        done = []
        for _ in range(4):
            resource.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_order(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        order = []
        for i in range(5):
            resource.submit(0.5, order.append, i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_submit_bulk_makespan(self):
        sim = Simulator()
        resource = Resource(sim, 4)
        done = []
        # 16 tasks of 1s on 4 servers -> 4s makespan.
        resource.submit_bulk(1.0, 16, lambda: done.append(sim.now))
        sim.run()
        assert done == [4.0]

    def test_submit_bulk_zero_count_fires_immediately(self):
        sim = Simulator()
        resource = Resource(sim, 2)
        done = []
        resource.submit_bulk(1.0, 0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_utilization(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        resource.submit(2.0)
        sim.run(until=4.0)
        assert resource.utilization() == pytest.approx(0.5)

    def test_busy_and_queued_counters(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        resource.submit(1.0)
        resource.submit(1.0)
        assert resource.busy == 1
        assert resource.queued == 1
        sim.run()
        assert resource.busy == 0
        assert resource.jobs_served == 2

    def test_negative_service_rejected(self):
        sim = Simulator()
        resource = Resource(sim, 1)
        with pytest.raises(SimulationError):
            resource.submit(-1.0)

    def test_zero_servers_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, 0)


class TestMeters:
    def test_throughput_meter_interval_rates(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)
        for t in (0.1, 0.2, 1.1, 1.2, 1.3):
            sim.schedule(t, meter.record)
        sim.run(until=2.0)
        timeline = bucket_timeline(merge_stamps([meter]), 2.0, 1.0)
        assert timeline == [(0.5, 2.0), (1.5, 3.0)]
        assert meter.total == 5
        # A start bound drops the earlier stamps before bucketing.
        late = bucket_timeline(merge_stamps([meter], start=1.0), 2.0, 1.0)
        assert late == [(0.5, 0.0), (1.5, 3.0)]

    def test_op_interval_rates(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)
        # 10 ops, one every 0.1 s -> op windows of 5 give ~10/s.
        for i in range(1, 11):
            sim.schedule(i * 0.1, meter.record)
        sim.run(until=2.0)
        rates = op_window_rates(merge_stamps([meter]), 5)
        assert len(rates) >= 1
        for rate in rates:
            assert rate == pytest.approx(10.0, rel=0.01)

    def test_latency_recorder_stats(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        assert recorder.mean() == pytest.approx(2.5)
        assert recorder.percentile(50) >= 2.0
        assert recorder.count == 4

    def test_trimmed_mean_discards_outliers(self):
        values = [10.0] * 8 + [1000.0, 0.0]
        assert trimmed_mean(values, discard_fraction=0.2) == pytest.approx(10.0)

    def test_trimmed_mean_small_inputs(self):
        assert trimmed_mean([]) == 0.0
        assert trimmed_mean([5.0]) == 5.0
        assert trimmed_mean([4.0, 6.0]) == 5.0
