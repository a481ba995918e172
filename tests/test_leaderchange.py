"""Synchronization-phase (leader change) tests."""

import pytest

from repro.config import SMRConfig, VerificationMode
from repro.net.network import NetworkConfig
from repro.net.network import Network
from repro.sim.engine import Simulator

from tests.helpers import kv_ops, make_cluster, station_with_clients


def cluster_with_timeout(seed=1, request_timeout=0.5, n=4, events=False):
    config = SMRConfig(n=n, f=(n - 1) // 3, request_timeout=request_timeout)
    cluster = make_cluster(n=n, seed=seed, config=config)
    cluster[0].obs.record_events = events
    return cluster


def leader_changes(sim) -> int:
    return len(sim.obs.events.of_kind("leader-change"))


class TestLeaderCrash:
    def test_progress_resumes_after_leader_crash(self):
        sim, network, view, replicas, apps = cluster_with_timeout(
            seed=21, events=True)
        station = station_with_clients(sim, network, lambda: view, 10,
                                       lambda i: kv_ops(f"c{i}", 20))
        station.start_all()
        sim.schedule(0.05, replicas[0].crash)
        sim.run(until=30.0)
        assert station.meter.total == 200
        survivors = replicas[1:]
        assert all(r.regency >= 1 for r in survivors)
        assert len({a.state_digest() for a in apps[1:]}) == 1
        assert leader_changes(sim) >= 3

    def test_two_successive_leader_crashes(self):
        from repro.clients.client import Client
        from repro.clients.client import ClientStation
        sim, network, view, replicas, apps = cluster_with_timeout(seed=22, n=7)
        station = ClientStation(sim, network, 900, lambda: view,
                                send_window=0.0005)
        # Slow drip so traffic spans both crashes.
        for i in range(10):
            Client(station, kv_ops(f"c{i}", 15), think_time=0.2)
        station.start_all()
        sim.schedule(0.05, replicas[0].crash)  # leader of regency 0
        sim.schedule(2.0, replicas[1].crash)   # leader of regency 1
        sim.run(until=40.0)
        assert station.meter.total == 150
        assert all(r.regency >= 2 for r in replicas[2:])

    def test_no_decision_lost_across_change(self):
        """Safety: every request completed before, during or after a change
        is executed exactly once on every surviving replica."""
        sim, network, view, replicas, apps = cluster_with_timeout(seed=23)
        station = station_with_clients(sim, network, lambda: view, 5,
                                       lambda i: kv_ops(f"c{i}", 30))
        station.start_all()
        sim.schedule(0.06, replicas[0].crash)
        sim.run(until=40.0)
        assert station.meter.total == 150
        for replica in replicas[1:]:
            keys = [request.key for decision in replica.delivery.log
                    for request in decision.batch]
            assert len(keys) == len(set(keys))
        logs = [[d.batch_hash for d in r.delivery.log] for r in replicas[1:]]
        assert logs[0] == logs[1] == logs[2]

    def test_idle_system_does_not_rotate_leaders(self):
        sim, network, view, replicas, apps = cluster_with_timeout(
            seed=24, events=True)
        sim.run(until=10.0)
        assert leader_changes(sim) == 0
        assert all(r.regency == 0 for r in replicas)

    def test_change_preserves_vouched_value(self):
        """If the crashed leader's batch reached the ACCEPT stage anywhere,
        the new leader re-proposes it (the STOPDATA writeset rule)."""
        sim, network, view, replicas, apps = cluster_with_timeout(seed=25)
        station = station_with_clients(sim, network, lambda: view, 2,
                                       lambda i: kv_ops(f"c{i}", 10))
        station.start_all()
        # Crash the leader mid-run: whatever was in flight must not fork.
        sim.schedule(0.03, replicas[0].crash)
        sim.run(until=30.0)
        assert station.meter.total == 20
        logs = [[d.batch_hash for d in r.delivery.log] for r in replicas[1:]]
        assert logs[0] == logs[1] == logs[2]


class TestExponentialBackoff:
    def _sync(self, request_timeout=0.5, backoff=2.0, timeout_max=4.0,
              policy="exponential"):
        config = SMRConfig(n=4, f=1, request_timeout=request_timeout,
                           synchronizer=policy, timeout_backoff=backoff,
                           timeout_max=timeout_max)
        _, _, _, replicas, _ = make_cluster(config=config)
        return replicas[0].synchronizer

    def test_timeout_doubles_per_failed_change_and_caps(self):
        sync = self._sync()
        assert sync.current_timeout == 0.5
        expected = [1.0, 2.0, 4.0, 4.0, 4.0]  # capped at timeout_max
        for failures, timeout in enumerate(expected, start=1):
            sync._failed_changes = failures
            assert sync.current_timeout == timeout

    def test_fixed_policy_never_grows(self):
        sync = self._sync(policy="fixed")
        sync._failed_changes = 10
        assert sync.current_timeout == 0.5

    def test_fast_progress_decays_one_step(self):
        sync = self._sync()
        sync._failed_changes = 3
        sync._last_decision = sync.replica.sim.now  # gap 0 <= base
        sync.on_progress()
        assert sync._failed_changes == 2

    def test_slow_progress_holds_the_backoff(self):
        # A decision that took longer than the base timeout is no evidence
        # the base would suffice: the backoff must not decay below need.
        sync = self._sync(request_timeout=0.5)
        sync._failed_changes = 3
        sync._last_decision = -1.0  # gap of 1.0 > base 0.5 at sim.now == 0
        sync.on_progress()
        assert sync._failed_changes == 3

    def test_install_records_backed_off_timeout(self):
        sim, network, view, replicas, apps = cluster_with_timeout(seed=21)
        station = station_with_clients(sim, network, lambda: view, 10,
                                       lambda i: kv_ops(f"c{i}", 20))
        station.start_all()
        sim.schedule(0.05, replicas[0].crash)
        sim.run(until=30.0)
        assert station.meter.total == 200
        survivor = replicas[1].synchronizer
        assert survivor.regency_changes >= 1
        assert survivor.watchdog_fires >= 1
        # Every installed regency logged the timeout then in effect, and a
        # first change always installs with one doubling applied.
        assert set(survivor.timeout_history) == {
            r for r in range(1, replicas[1].regency + 1)}
        assert survivor.timeout_history[1] == 1.0

    def test_fault_free_run_never_leaves_base_timeout(self):
        sim, network, view, replicas, apps = cluster_with_timeout(seed=30)
        station = station_with_clients(sim, network, lambda: view, 10,
                                       lambda i: kv_ops(f"c{i}", 20))
        station.start_all()
        sim.run(until=20.0)
        assert station.meter.total == 200
        for replica in replicas:
            assert replica.synchronizer.current_timeout == 0.5
            assert replica.synchronizer.timeout_history == {}

    def test_config_rejects_bad_synchronizer_settings(self):
        with pytest.raises(ValueError):
            SMRConfig(n=4, f=1, synchronizer="adaptive")
        with pytest.raises(ValueError):
            SMRConfig(n=4, f=1, timeout_backoff=0.5)


class TestAsynchrony:
    def test_progress_despite_pre_gst_chaos(self):
        """Before GST messages are delayed arbitrarily; the system may churn
        through regencies but must deliver everything after GST."""
        sim = Simulator(26)
        from repro.config import CostModel
        costs = CostModel()
        costs.network.gst = 1.5
        costs.network.asynchrony_max = 0.4
        from repro.crypto.keys import KeyRegistry
        from repro.smr.keydir import KeyDirectory
        from repro.smr.replica import ModSmartReplica
        from repro.smr.service import MemoryDelivery
        from repro.smr.views import View
        from repro.apps.kvstore import KVStore

        network = Network(sim, costs.network)
        registry = KeyRegistry(26)
        keydir = KeyDirectory()
        view = View(0, (0, 1, 2, 3))
        config = SMRConfig(n=4, f=1, request_timeout=0.5)
        apps = [KVStore() for _ in view.members]
        replicas = [ModSmartReplica(sim, network, registry, keydir, rid, view,
                                    config, costs, MemoryDelivery(apps[rid]))
                    for rid in view.members]
        station = station_with_clients(sim, network, lambda: view, 5,
                                       lambda i: kv_ops(f"a{i}", 10))
        station.start_all()
        sim.run(until=60.0)
        assert station.meter.total == 50
        assert len({a.state_digest() for a in apps}) == 1
