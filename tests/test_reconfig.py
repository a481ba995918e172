"""Decentralized reconfiguration tests (join / leave / exclude / keyreg)."""

import pytest

from repro.apps.smartcoin import SmartCoin
from repro.clients.client import Client
from repro.ledger import ChainVerifier

from tests.helpers import (
    MINTER,
    attach_station,
    make_consortium,
    mint_ops_simple,
)


def consortium_with_traffic(seed, txs=60, policy=None, **kwargs):
    consortium = make_consortium(seed=seed, policy=policy, **kwargs)
    station = attach_station(consortium)
    Client(station, mint_ops_simple(txs))
    station.start_all()
    return consortium, station


class TestJoin:
    def test_join_adds_member_and_catches_up(self):
        consortium, station = consortium_with_traffic(seed=61)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        joined = []
        consortium.sim.schedule(
            1.0, lambda: candidate.join(on_done=lambda: joined.append(
                consortium.sim.now)))
        consortium.sim.run(until=20.0)
        assert joined, "join never completed"
        assert candidate.active
        assert candidate.view.members == (0, 1, 2, 3, 4)
        assert all(n.view.view_id == 1 for n in consortium.nodes.values())
        # The joiner's state matches the group.
        assert (candidate.app.state_digest()
                == consortium.node(0).app.state_digest())

    def test_join_rejected_by_policy(self):
        rejections = []

        def deny(kind, node_id, credentials):
            rejections.append((kind, node_id))
            return False

        consortium, station = consortium_with_traffic(seed=62, policy=deny)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=15.0)
        assert rejections  # members consulted the policy
        assert not candidate.active
        assert all(n.view.view_id == 0 for n in consortium.nodes.values()
                   if n.id != 4)

    def test_policy_can_use_credentials(self):
        def password(kind, node_id, credentials):
            return credentials == "sesame"

        consortium, station = consortium_with_traffic(seed=63,
                                                      policy=password)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        done = []
        consortium.sim.schedule(
            1.0, lambda: candidate.join(credentials="sesame",
                                        on_done=lambda: done.append(1)))
        consortium.sim.run(until=20.0)
        assert done and candidate.active

    def test_reconfig_block_records_new_view_and_keys(self):
        consortium, station = consortium_with_traffic(seed=64)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=20.0)
        delivery = consortium.node(0).delivery
        block = delivery.chain.get(delivery.last_reconfig)
        assert block.body.new_view is not None
        view_id, members, permanent = block.body.new_view
        assert view_id == 1
        assert 4 in members
        assert dict(permanent).get(4)  # joiner's permanent key recorded
        recorded = {record[1] for record in block.body.key_announcements}
        assert 4 in recorded
        assert len(recorded) >= consortium.genesis.view.n - 1

    def test_join_then_verify_chain_across_views(self):
        consortium, station = consortium_with_traffic(seed=65)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=20.0)
        verifier = ChainVerifier(consortium.registry, consortium.genesis,
                                 uncertified_tail=1)
        report = verifier.verify_records(consortium.node(2).chain_records())
        assert report.reconfigurations == 1
        assert 4 in report.final_view.members


class TestLeave:
    def test_leave_removes_member(self):
        consortium, station = consortium_with_traffic(seed=66, txs=100)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        left = []
        consortium.sim.schedule(
            6.0, lambda: candidate.leave(on_done=lambda: left.append(1)))
        consortium.sim.run(until=25.0)
        assert left
        final_views = {n.view.members for n in consortium.nodes.values()
                       if n.id != 4}
        assert final_views == {(0, 1, 2, 3)}
        assert not candidate.active

    def test_system_keeps_working_after_leave(self):
        consortium, station = consortium_with_traffic(seed=67, txs=40)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.schedule(6.0, candidate.leave)
        consortium.sim.run(until=20.0)
        before = consortium.node(0).chain.height
        station2 = attach_station(consortium, station_id=901)
        Client(station2, mint_ops_simple(10))
        station2.start_all()
        consortium.sim.run(until=35.0)
        assert station2.meter.total == 10
        assert consortium.node(0).chain.height > before


class TestExclude:
    def test_quorum_of_remove_votes_excludes_target(self):
        consortium, station = consortium_with_traffic(seed=68, txs=80)

        def exclude():
            for nid in (0, 1, 2):
                consortium.node(nid).vote_exclude(3)

        consortium.sim.schedule(2.0, exclude)
        consortium.sim.run(until=20.0)
        views = {n.view.members for n in consortium.nodes.values()}
        assert (0, 1, 2) in views
        assert not consortium.node(3).active

    def test_insufficient_votes_do_not_exclude(self):
        consortium, station = consortium_with_traffic(seed=69, txs=60)
        # Only 2 votes; n - f = 3 required.
        consortium.sim.schedule(2.0,
                                lambda: consortium.node(0).vote_exclude(3))
        consortium.sim.schedule(2.0,
                                lambda: consortium.node(1).vote_exclude(3))
        consortium.sim.run(until=15.0)
        assert all(n.view.view_id == 0 for n in consortium.nodes.values())
        assert consortium.node(3).active

    def test_excluded_node_stays_excluded_from_future_quorums(self):
        consortium, station = consortium_with_traffic(seed=70, txs=100)

        def exclude():
            for nid in (0, 1, 2):
                consortium.node(nid).vote_exclude(3)

        consortium.sim.schedule(2.0, exclude)
        consortium.sim.run(until=25.0)
        # Node 3's remove votes against others would not even count: it is
        # no longer a member.
        consortium.node(3).vote_exclude(0)
        consortium.sim.run(until=35.0)
        assert 0 in consortium.node(0).view.members


class TestKeyRotation:
    def test_every_view_change_rotates_keys(self):
        consortium, station = consortium_with_traffic(seed=71, txs=120)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.schedule(6.0, candidate.leave)
        consortium.sim.run(until=30.0)
        replica = consortium.node(0).replica
        assert replica.cv.view_id == 2
        assert replica.consensus_keys[0].is_erased
        assert replica.consensus_keys[1].is_erased
        assert not replica.consensus_keys[2].is_erased

    def test_certificates_after_reconfig_use_new_keys(self):
        consortium, station = consortium_with_traffic(seed=72, txs=80)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=20.0)
        delivery = consortium.node(0).delivery
        reconfig_at = delivery.last_reconfig
        keydir = consortium.keydir
        registry = consortium.registry
        checked = 0
        for block in delivery.chain.blocks(start=reconfig_at + 1):
            if block.certificate is None:
                continue
            assert block.certificate.view_id == 1
            keys = keydir.view_keys(1)
            for rid, sig in block.certificate.signatures.items():
                assert registry.verify(keys[rid],
                                       block.certificate.header_digest, sig)
            checked += 1
        assert checked > 0

    def test_late_keyreg_recorded_on_chain(self):
        """A member whose key was not collected in the reconfiguration block
        registers it via a keyreg transaction; the chain records it."""
        consortium, station = consortium_with_traffic(seed=73, txs=80)
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=20.0)
        delivery = consortium.node(0).delivery
        recorded = delivery.recorded_members.get(1, set())
        # Eventually every member of view 1 is recorded (reconfig block plus
        # any keyreg follow-ups).
        assert recorded == {0, 1, 2, 3, 4}


    def test_keyreg_block_certified_by_keys_recorded_before_it(self):
        """A key announced in block N counts from block N+1 on, for the
        replica's PERSIST quorum as for the third-party verifier.  Under
        this load a member's next-view key misses the leave's
        reconfiguration block and is registered by a keyreg block."""
        consortium = make_consortium(seed=4, checkpoint_period=50)
        station = attach_station(consortium)
        for _ in range(10):
            Client(station, mint_ops_simple(10_000))
        station.start_all()
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.schedule(3.0, lambda: consortium.node(4).leave())
        consortium.sim.run(until=5.0)
        chain = consortium.node(0).delivery.chain
        assert [block for block in chain if block.body.key_announcements
                and block.body.new_view is None], "no keyreg block"
        verifier = ChainVerifier(consortium.registry, consortium.genesis,
                                 require_certificates=True,
                                 uncertified_tail=2)
        for node_id in range(4):
            report = verifier.verify_records(
                consortium.node(node_id).chain_records())
            assert report.views_seen == [0, 1, 2]


class TestCentralizedViewManagerBaseline:
    """The classic BFT-SMART reconfiguration the paper argues against."""

    def _cluster(self, seed):
        from repro.config import SMRConfig
        from repro.crypto.keys import KeyRegistry
        from repro.net.network import Network
        from repro.config import CostModel
        from repro.sim.engine import Simulator
        from repro.smr.keydir import KeyDirectory
        from repro.smr.replica import ModSmartReplica
        from repro.smr.service import MemoryDelivery
        from repro.smr.viewmanager import ViewManager
        from repro.smr.views import View
        from repro.apps.kvstore import KVStore

        sim = Simulator(seed)
        costs = CostModel()
        network = Network(sim, costs.network)
        registry = KeyRegistry(seed)
        keydir = KeyDirectory()
        manager = ViewManager(sim, network, registry)
        view = View(0, (0, 1, 2, 3))
        config = SMRConfig(n=4, f=1,
                           view_manager_public=manager.public)
        apps = [KVStore() for _ in range(5)]
        replicas = [ModSmartReplica(sim, network, registry, keydir, rid,
                                    view, config, costs,
                                    MemoryDelivery(apps[rid]))
                    for rid in view.members]
        # A standby replica that the manager can add.
        standby = ModSmartReplica(sim, network, registry, keydir, 4, view,
                                  config, costs, MemoryDelivery(apps[4]),
                                  active=False)
        return (sim, network, registry, manager, view, replicas, standby,
                apps)

    def test_manager_adds_replica(self):
        (sim, network, registry, manager, view, replicas, standby,
         apps) = self._cluster(301)
        installed = []
        manager.reconfigure(view, (0, 1, 2, 3, 4),
                            on_done=installed.append)
        sim.run(until=10.0)
        assert installed and installed[0].members == (0, 1, 2, 3, 4)
        assert all(r.cv.view_id == 1 for r in replicas)

    def test_manager_removes_replica(self):
        (sim, network, registry, manager, view, replicas, standby,
         apps) = self._cluster(302)
        manager.reconfigure(view, (0, 1, 2, 3, 4))
        sim.run(until=5.0)
        current = replicas[0].cv
        manager.reconfigure(current, (0, 1, 2, 3))
        sim.run(until=10.0)
        assert replicas[0].cv.view_id == 2
        assert replicas[0].cv.members == (0, 1, 2, 3)

    def test_impostor_manager_rejected(self):
        """Anyone without the administrative key is refused — and holding
        that single key is the centralization the paper criticizes."""
        from repro.smr.viewmanager import ViewManager
        (sim, network, registry, manager, view, replicas, standby,
         apps) = self._cluster(303)
        impostor = ViewManager(sim, network, registry, manager_id=9998)
        impostor.reconfigure(view, (0, 1))
        sim.run(until=10.0)
        assert all(r.cv.view_id == 0 for r in replicas)

    def test_vm_disabled_by_default(self):
        """SMARTCHAIN nodes ignore View-Manager requests entirely."""
        from tests.helpers import make_consortium, run_coin_traffic
        from repro.smr.viewmanager import ViewManager
        consortium = make_consortium(seed=304)
        manager = ViewManager(consortium.sim, consortium.network,
                              consortium.registry)
        manager.reconfigure(consortium.genesis.view, (0, 1))
        run_coin_traffic(consortium, txs=5)
        assert all(n.view.view_id == 0 for n in consortium.nodes.values())
