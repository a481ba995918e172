"""What the n replicas of a process derive identically, they share — and
what they share is immutable and isolated from faults (docs/performance.md,
Contract 3).

(a) structure: a block's transaction rows and result rows are the *same
    objects* in every replica's chain and stored records;
(b) isolation: bit-rot of one replica's record, or a copy of a request,
    never reaches a shared row or the request that carries it;
(c) an equivocating leader's two orderings of one batch are two row
    tables, and the chain spells the one that was decided.
"""

import copy
import dataclasses
import random

from repro.bench import Scenario, run
from repro.config import StorageMode
from repro.core.blockchain_layer import SmartChainDelivery, _decided_batch_hash
from repro.crypto.merkle import merkle_root
from repro.smr.durability import DuraSmartDelivery
from repro.smr.requests import ClientRequest
from repro.storage.stable import StableStore, _bitrot

from tests.helpers import (
    kv_ops,
    make_cluster,
    make_consortium,
    run_coin_traffic,
    station_with_clients,
)

LOG = SmartChainDelivery.LOG
SPEND = ("spend", "alice", ("c1",), (("bob", 5),))


def _capture_requests(replica) -> list[ClientRequest]:
    """Every request ``replica`` is handed by a client station."""
    captured: list[ClientRequest] = []
    ingest = replica.ingest_requests

    def spy(requests):
        captured.extend(requests)
        ingest(requests)

    replica.ingest_requests = spy
    return captured


def _records(node, kind: str) -> dict[int, tuple]:
    """Block number -> the node's stable ``kind`` record."""
    return {payload[1]: payload
            for payload in node.replica.store.read_log(LOG)
            if payload[0] == kind}


def _nodes(group):
    return sorted(group.nodes.values(), key=lambda n: n.id)


def _same_objects(tables) -> bool:
    """Are these row tables element for element the same objects?"""
    first = tables[0]
    return all(len(table) == len(first)
               and all(a is b for a, b in zip(table, first))
               for table in tables)


class TestReplicasShareBlockRows:
    def test_chain_and_log_rows_are_the_same_objects_everywhere(self):
        consortium = make_consortium(seed=31)
        captured = _capture_requests(consortium.node(0).replica)
        run_coin_traffic(consortium, txs=30)
        nodes = _nodes(consortium)
        height = nodes[0].chain.height
        assert height >= 3 and all(n.chain.height == height for n in nodes)
        by_key = {request.key: request for request in captured}
        txs = [_records(n, "txs") for n in nodes]
        results = [_records(n, "results") for n in nodes]
        for number in range(1, height + 1):
            bodies = [n.chain.get(number).body for n in nodes]
            assert bodies[0].transactions and bodies[0].results
            # One tuple per transaction and per result in the process: in
            # n chains and n logs.
            assert _same_objects([b.transactions for b in bodies]
                                 + [t[number][3] for t in txs])
            assert _same_objects([b.results for b in bodies]
                                 + [r[number][2] for r in results])
            # ... and the transaction's is the one its request carries.
            for row in bodies[0].transactions:
                assert type(row) is tuple
                assert row is by_key[row[1], row[2]].tx_row()

    def test_naive_blocks_share_result_strings(self):
        result = run(Scenario(system="naive", clients=60, duration=1.5,
                              seed=4))
        chains = [replica.delivery.chain for replica in result.handle.system]
        assert all(len(chain) == len(chains[0]) > 1 for chain in chains)
        for blocks in zip(*chains):
            assert all(b["hash"] == blocks[0]["hash"] for b in blocks)
            for rows in zip(*(b["results"] for b in blocks)):
                assert all(row[2] is rows[0][2] for row in rows)


class TestFaultsCopyAndNeverReachTheSharedRow:
    def test_request_copies_derive_their_own_row(self):
        request = ClientRequest(7, 3, SPEND, 310)
        row = request.tx_row()
        assert row == ("tx", 7, 3, SPEND, 310, "")
        assert request.tx_row() is row
        twin = dataclasses.replace(request, req_id=4)
        assert twin.tx_row() == ("tx", 7, 4, SPEND, 310, "")
        for seed in range(8):
            rotted = _bitrot(request, random.Random(seed))
            assert rotted is not request and rotted.key != request.key
            assert rotted.tx_row() == ("tx", rotted.client_id, rotted.req_id,
                                       SPEND, 310, "")
        # The original never noticed.
        assert request.tx_row() is row and request.key == (7, 3)

    def test_bitrot_of_one_replicas_records_stays_there(self):
        consortium = make_consortium(seed=32)
        captured = _capture_requests(consortium.node(0).replica)
        run_coin_traffic(consortium, txs=30)
        nodes = _nodes(consortium)
        victim, others = nodes[0].replica.store, nodes[1:]
        rows_before = [(request, request.tx_row()) for request in captured]
        spelled_before = copy.deepcopy([row for _, row in rows_before])
        logs_before = copy.deepcopy(
            [n.replica.store.read_log(LOG) for n in others])
        bodies_before = copy.deepcopy(
            [[b.body.to_record() for b in n.chain] for n in nodes])
        entries = victim.read_entries(LOG)
        rotted = 0
        for index, entry in enumerate(entries):
            if entry.payload[0] not in ("txs", "results"):
                continue
            hit = victim.inject_fault("bit-rot", random.Random(index),
                                      log=LOG, index=index)
            assert hit["applied"]
            rotted += 1
        assert rotted >= 6
        damaged = victim.read_entries(LOG)
        assert sum(not StableStore.verify_entry(e) for e in damaged) == rotted
        # Every other replica's records, and every chain, are as they were.
        for node, before in zip(others, logs_before):
            stored = node.replica.store.read_entries(LOG)
            assert [e.payload for e in stored] == before
            assert all(StableStore.verify_entry(e) for e in stored)
        for node, before in zip(nodes, bodies_before):
            assert [b.body.to_record() for b in node.chain] == before
            for block in node.chain:
                block.validate_body()
        # So is every request, and the row it carries.
        for (request, row), spelled in zip(rows_before, spelled_before):
            assert request.tx_row() is row and row == spelled

    def test_bitrot_of_a_dura_record_copies_the_request_it_hits(self):
        sim, network, view, replicas, _apps = make_cluster(
            seed=33, delivery_factory=lambda app: DuraSmartDelivery(
                app, StorageMode.SYNC))
        station = station_with_clients(sim, network, lambda: view, 3,
                                       lambda i: kv_ops(f"c{i}", 6))
        station.start_all()
        sim.run(until=10.0)
        log = DuraSmartDelivery.LOG
        stores = [replica.store for replica in replicas]
        records = stores[0].read_log(log)
        assert len(records) >= 3
        cid, batch = records[1]
        rows = [request.tx_row() for request in batch]
        copies = 0
        for seed in range(12):
            rotted_cid, rotted_batch = _bitrot((cid, batch), random.Random(seed))
            assert rotted_batch is not batch or rotted_cid != cid
            for original, other in zip(batch, rotted_batch):
                if other is original:
                    continue
                copies += 1
                assert other.tx_row() is not original.tx_row()
                assert other.tx_row()[1:3] == (other.client_id, other.req_id)
                assert other.key != original.key
        assert copies  # some seed did hit a request
        stores[0].inject_fault("bit-rot", random.Random(5), log=log, index=1)
        assert not StableStore.verify_entry(stores[0].read_entries(log)[1])
        for store in stores[1:]:
            entry = store.read_entries(log)[1]
            assert StableStore.verify_entry(entry)
            assert entry.payload[0] == cid
            assert all(a is b for a, b in zip(entry.payload[1], batch))
        assert all(request.tx_row() is row
                   for request, row in zip(batch, rows))


class TestEquivocationYieldsDistinctTables:
    def test_chain_spells_the_decided_ordering_not_its_twin(self):
        result = run(Scenario(system="smartchain", clients=300, duration=2.0,
                              seed=3, faults="equivocate", audit=True,
                              observe=True))
        events = list(result.handle.obs.events)
        split = next(e.fields for e in events
                     if e.kind == "behavior-activated"
                     and "conflicting_hash" in e.fields)
        cid = split["cid"]
        decided = {e.fields["batch_hash"] for e in events
                   if e.kind == "decide" and e.fields["cid"] == cid}
        assert len(decided) == 1  # no fork: one value for the instance
        nodes = _nodes(result.handle.system)
        blocks = [next(b for b in n.chain if b.body.consensus_id == cid)
                  for n in nodes]
        assert _same_objects([b.body.transactions for b in blocks])
        rows = blocks[0].body.transactions
        twin = tuple(reversed(rows))  # the other half's PROPOSE
        spelled = _decided_batch_hash(rows).hex()
        assert {spelled} == decided
        assert _decided_batch_hash(twin).hex() != spelled
        assert split["conflicting_hash"] in (spelled,
                                             _decided_batch_hash(twin).hex())
        # Same row objects, another table: another Merkle root, so the
        # header commits to the decided ordering only.
        assert set(map(id, twin)) == set(map(id, rows))
        assert merkle_root(twin) != blocks[0].header.hash_transactions
        assert merkle_root(rows) == blocks[0].header.hash_transactions
