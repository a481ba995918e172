"""End-to-end ordering tests for the Mod-SMaRt cluster."""

import pytest

from repro.clients.client import Client, ClientStation, OpSpec
from repro.config import SMRConfig, VerificationMode

from tests.helpers import kv_ops, make_cluster, station_with_clients


def drive(sim, network, view, n_clients=4, ops_per_client=15, until=30.0):
    station = station_with_clients(
        sim, network, lambda: view, n_clients,
        lambda i: kv_ops(f"c{i}", ops_per_client))
    station.start_all()
    sim.run(until=until)
    return station


class TestTotalOrder:
    def test_all_replicas_decide_same_sequence(self):
        sim, network, view, replicas, apps = make_cluster(seed=2)
        station = drive(sim, network, view)
        assert station.meter.total == 60
        logs = [[(d.cid, d.batch_hash) for d in r.delivery.log]
                for r in replicas]
        assert logs[0] == logs[1] == logs[2] == logs[3]
        assert [cid for cid, _ in logs[0]] == list(range(len(logs[0])))

    def test_states_converge(self):
        sim, network, view, replicas, apps = make_cluster(seed=3)
        drive(sim, network, view)
        digests = {app.state_digest() for app in apps}
        assert len(digests) == 1

    def test_no_request_executed_twice(self):
        sim, network, view, replicas, apps = make_cluster(seed=4)
        drive(sim, network, view, n_clients=3, ops_per_client=10)
        seen = set()
        for decision in replicas[0].delivery.log:
            for request in decision.batch:
                assert request.key not in seen, "duplicate execution"
                seen.add(request.key)
        assert len(seen) == 30

    def test_client_resubmission_deduplicated(self):
        sim, network, view, replicas, apps = make_cluster(seed=5)
        station = station_with_clients(sim, network, lambda: view, 1,
                                       lambda i: kv_ops("dup", 5))
        # Aggressive resend: every 0.05 s.
        station.resend_timeout = 0.05
        station.start_all()
        sim.run(until=10.0)
        executed = [request.key for decision in replicas[0].delivery.log
                    for request in decision.batch]
        assert len(executed) == len(set(executed)) == 5

    def test_sequential_verification_orders_correctly(self):
        sim, network, view, replicas, apps = make_cluster(
            seed=6, verification=VerificationMode.SEQUENTIAL)
        station = drive(sim, network, view, n_clients=2, ops_per_client=8)
        assert station.meter.total == 16
        assert len({app.state_digest() for app in apps}) == 1

    def test_unsigned_requests_supported(self):
        sim, network, view, replicas, apps = make_cluster(
            seed=7, verification=VerificationMode.NONE)

        def unsigned_ops(i):
            for spec in kv_ops(f"u{i}", 6):
                spec.signed = False
                yield spec

        station = station_with_clients(sim, network, lambda: view, 2,
                                       unsigned_ops)
        station.start_all()
        sim.run(until=10.0)
        assert station.meter.total == 12


class TestBatching:
    def test_large_batches_form_under_load(self):
        sim, network, view, replicas, apps = make_cluster(seed=8)
        station = station_with_clients(
            sim, network, lambda: view, 200,
            lambda i: kv_ops(f"b{i}", 5))
        station.start_all()
        sim.run(until=20.0)
        sizes = [len(d.batch) for d in replicas[0].delivery.log]
        assert max(sizes) > 50  # batching kicked in

    def test_batch_size_limit_respected(self):
        config = SMRConfig(n=4, f=1, batch_size=16)
        sim, network, view, replicas, apps = make_cluster(seed=9,
                                                          config=config)
        station = station_with_clients(sim, network, lambda: view, 60,
                                       lambda i: kv_ops(f"s{i}", 3))
        station.start_all()
        sim.run(until=20.0)
        sizes = [len(d.batch) for d in replicas[0].delivery.log]
        assert sizes and max(sizes) <= 16

    def test_flow_control_limits_backlog(self):
        from repro.apps.naive import NaiveBlockchainDelivery
        from repro.config import StorageMode
        config = SMRConfig(n=4, f=1, max_pending_decisions=2)
        sim, network, view, replicas, apps = make_cluster(
            seed=10, config=config,
            delivery_factory=lambda app: NaiveBlockchainDelivery(app))
        max_backlog = [0]

        def watch():
            max_backlog[0] = max(max_backlog[0],
                                 replicas[0].delivery.backlog)
            sim.schedule(0.01, watch)

        sim.schedule(0.0, watch)
        station = station_with_clients(sim, network, lambda: view, 100,
                                       lambda i: kv_ops(f"f{i}", 4))
        station.start_all()
        sim.run(until=15.0)
        assert station.meter.total == 400
        # Backlog never exceeds the bound + the one being proposed.
        assert max_backlog[0] <= 3


class TestTrace:
    def test_trace_records_proposals_and_decisions(self):
        sim, network, view, replicas, apps = make_cluster(seed=11)
        sim.obs.record_events = True
        drive(sim, network, view, n_clients=1, ops_per_client=3)
        events = sim.obs.events
        proposed = [e for e in events.of_kind("consensus-phase")
                    if e.fields["phase"] == "proposed"]
        assert proposed
        decided = {e.node for e in events.of_kind("decide")}
        assert decided == set(view.members)  # every replica decided


class TestIncarnationGuard:
    def test_work_scheduled_while_crashed_never_runs(self):
        """A callback a crashed replica wraps (a late disk sync arming a
        timer) belongs to no incarnation: it must not run after recovery."""
        sim, _network, _view, replicas, _apps = make_cluster(seed=5)
        replica = replicas[1]
        ran = []
        before = replica.guard(lambda: ran.append("before"))
        replica.crash()
        during = replica.guard(lambda: ran.append("during"))
        replica.recover()
        after = replica.guard(lambda: ran.append("after"))
        for callback in (before, during, after):
            callback()
        assert ran == ["after"]
