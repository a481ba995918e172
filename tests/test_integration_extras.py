"""Cross-cutting integration tests: light clients, app-agnosticism,
catch-up mode, Byzantine leader equivocation."""

import pytest

from repro.apps.kvstore import KVStore
from repro.clients.client import Client, ClientStation, OpSpec
from repro.config import SMRConfig, SmartChainConfig, VerificationMode
from repro.core.node import bootstrap
from repro.ledger import ChainVerifier
from repro.sim.engine import Simulator

from tests.helpers import (
    attach_station,
    kv_ops,
    make_cluster,
    make_consortium,
    mint_ops_simple,
    run_coin_traffic,
    station_with_clients,
)


class TestLightClient:
    def test_transaction_inclusion_proof(self):
        consortium = make_consortium(seed=201)
        run_coin_traffic(consortium, txs=12)
        block = consortium.node(0).chain.get(3)
        tx = block.body.transactions[0]
        proof = block.body.transaction_proof(0)
        assert ChainVerifier.verify_inclusion(block.header, tx, proof)

    def test_forged_transaction_fails_inclusion(self):
        consortium = make_consortium(seed=202)
        run_coin_traffic(consortium, txs=12)
        block = consortium.node(0).chain.get(2)
        proof = block.body.transaction_proof(0)
        from repro.ledger import TxRecord
        forged = TxRecord(666, 1, ("mint", "thief", ((10**9, 1),)), 180)
        assert not ChainVerifier.verify_inclusion(block.header, forged, proof)

    def test_proof_does_not_transfer_between_blocks(self):
        consortium = make_consortium(seed=203)
        run_coin_traffic(consortium, txs=12)
        chain = consortium.node(0).chain
        block_a, block_b = chain.get(1), chain.get(2)
        tx = block_a.body.transactions[0]
        proof = block_a.body.transaction_proof(0)
        assert not ChainVerifier.verify_inclusion(block_b.header, tx, proof)

    def test_result_inclusion_proof(self):
        consortium = make_consortium(seed=204)
        run_coin_traffic(consortium, txs=8)
        block = consortium.node(1).chain.get(1)
        result = block.body.results[0]
        proof = block.body.result_proof(0)
        assert ChainVerifier.verify_result_inclusion(block.header, result,
                                                     proof)


class TestAppAgnosticLayer:
    def test_smartchain_runs_kvstore(self):
        """The blockchain layer works for any deterministic application."""
        sim = Simulator(205)
        config = SmartChainConfig(smr=SMRConfig(n=4, f=1),
                                  checkpoint_period=10)
        consortium = bootstrap(sim, (0, 1, 2, 3), KVStore, config)
        station = attach_station(consortium)
        Client(station, kv_ops("k", 25))
        station.start_all()
        sim.run(until=15.0)
        assert station.meter.total == 25
        node = consortium.node(0)
        assert node.chain.height > 0
        assert node.app.data["k-24"] == 24
        verifier = ChainVerifier(consortium.registry, consortium.genesis,
                                 uncertified_tail=1)
        report = verifier.verify_records(node.chain_records())
        assert report.total_transactions == 25

    def test_kvstore_state_survives_crash_recovery(self):
        sim = Simulator(206)
        config = SmartChainConfig(smr=SMRConfig(n=4, f=1),
                                  checkpoint_period=5)
        consortium = bootstrap(sim, (0, 1, 2, 3), KVStore, config)
        station = attach_station(consortium)
        Client(station, kv_ops("x", 20))
        station.start_all()
        sim.schedule(0.5, consortium.node(2).crash)
        sim.schedule(1.5, lambda: consortium.node(2).recover())
        sim.run(until=20.0)
        assert station.meter.total == 20
        assert (consortium.node(2).app.state_digest()
                == consortium.node(0).app.state_digest())


class TestCatchUpMode:
    def test_lagging_joiner_converges_to_head(self):
        """A joiner activated mid-stream drains its backlog via fast replay
        instead of trailing the group forever."""
        from repro.apps.smartcoin import SmartCoin
        from tests.helpers import MINTER
        consortium = make_consortium(seed=207, checkpoint_period=100)
        station = attach_station(consortium)
        for _ in range(30):
            Client(station, mint_ops_simple(300))
        station.start_all()
        candidate = consortium.add_candidate(4, SmartCoin(minters=[MINTER]))
        consortium.sim.schedule(1.0, candidate.join)
        consortium.sim.run(until=8.0)
        assert candidate.active
        lag = (consortium.node(0).replica.last_decided
               - candidate.delivery.executed_cid)
        assert lag <= candidate.delivery.CATCHUP_LAG + 30, (
            f"joiner still lags by {lag} decisions")
        # Its chain matches the group's at the common height.
        common = min(candidate.chain.height, consortium.node(0).chain.height)
        if common > candidate.chain.base_height:
            assert (candidate.chain.get(common).digest()
                    == consortium.node(0).chain.get(common).digest())


class TestByzantineLeader:
    def test_equivocating_leader_cannot_fork(self):
        """A leader proposing two different batches for the same cid cannot
        make correct replicas decide differently."""
        from repro.consensus.messages import ProposeMsg, batch_wire_size
        from repro.crypto.hashing import hash_obj
        from repro.smr.requests import ClientRequest

        sim, network, view, replicas, apps = make_cluster(seed=208)
        station = station_with_clients(sim, network, lambda: view, 2,
                                       lambda i: kv_ops(f"c{i}", 10))
        station.start_all()

        def equivocate():
            # Byzantine leader 0 sends conflicting proposals for the next cid
            # to different replicas.
            leader = replicas[0]
            cid = leader.last_decided + 1
            batch_a = [ClientRequest(7777, 1, ("put", "evil-a", 1),
                                     size=100, signed=False)]
            batch_b = [ClientRequest(7777, 2, ("put", "evil-b", 2),
                                     size=100, signed=False)]
            msg_a = ProposeMsg(cid=cid, regency=0, batch=batch_a,
                               batch_hash=hash_obj("a"),
                               size=batch_wire_size(batch_a))
            msg_b = ProposeMsg(cid=cid, regency=0, batch=batch_b,
                               batch_hash=hash_obj("b"),
                               size=batch_wire_size(batch_b))
            network.send(0, 1, msg_a)
            network.send(0, 2, msg_b)
            network.send(0, 3, msg_a)

        sim.schedule(0.001, equivocate)
        sim.run(until=20.0)
        # Neither forged value can gather a quorum of 3 identical WRITEs for
        # a hash the replicas agree on, so safety holds: all correct logs
        # are identical.
        logs = [[d.batch_hash for d in r.delivery.log] for r in replicas[1:]]
        assert logs[0] == logs[1] == logs[2]

    def test_bad_accept_signatures_are_ignored(self):
        from repro.consensus.messages import AcceptMsg
        from repro.crypto.keys import Signature

        sim, network, view, replicas, apps = make_cluster(seed=209)
        station = station_with_clients(sim, network, lambda: view, 1,
                                       lambda i: kv_ops("c", 5))
        station.start_all()

        def forge():
            forged = AcceptMsg(cid=replicas[1].last_decided + 1, regency=0,
                               batch_hash=b"whatever",
                               signature=Signature("deadbeef", b"junk"))
            network.send(0, 1, forged)

        sim.schedule(0.002, forge)
        sim.run(until=10.0)
        assert station.meter.total == 5
        assert len({a.state_digest() for a in apps}) == 1
