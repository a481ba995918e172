"""The content-addressed digest table (docs/performance.md, "The caches").

Two contracts: keys are type-exact (``1``, ``True`` and ``1.0`` never share
an entry), and verification is keyed by the payload's *present* content (a
rotted record misses the memo however warm it is).  Plus the bound, and the
satellites that ride on the table: ``batch_digest``, per-content Merkle
trees, the ``repr``-checksum counter.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import Scenario, run
from repro.crypto import hashing
from repro.crypto.hashing import (
    Memo,
    cache_stats,
    clear_caches,
    hash_obj,
    hash_obj_cached,
    set_caches_enabled,
)
from repro.crypto.merkle import MerkleTree, merkle_root, merkle_tree
from repro.ledger.block import BlockBody, TxRecord
from repro.sim.engine import Simulator
from repro.smr.requests import ClientRequest, batch_digest
from repro.storage.stable import StableStore, _fingerprint


@pytest.fixture(autouse=True)
def _fresh_cache_state():
    set_caches_enabled(True)
    clear_caches()
    yield
    set_caches_enabled(True)
    clear_caches()


class Canon:
    """A value object the encoder reaches through ``to_canonical``."""

    def __init__(self, value):
        self.value = value

    def to_canonical(self):
        return ("canon", self.value)


_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=False), st.sampled_from([0.0, 1.0, -1.0]),
    st.binary(max_size=6), st.text(max_size=6))
_keys = st.one_of(st.integers(-3, 3), st.text(max_size=4),
                  st.binary(max_size=4))
_plain = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=12)
#: Plain data with ``to_canonical`` objects at any container position.
_payloads = st.recursive(
    st.one_of(_atoms, _plain.map(Canon)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=12)


def _confuse(obj):
    """An ==-equal twin of ``obj`` wherever Python has one: ints become
    floats, 0/1 become bools — the values an equality-keyed memo would
    conflate although their canonical encodings differ."""
    if obj.__class__ is int and abs(obj) < 2 ** 53:
        return bool(obj) if obj in (0, 1) else float(obj)
    if obj.__class__ in (tuple, list):
        return obj.__class__(_confuse(x) for x in obj)
    if obj.__class__ is dict:
        return {k: _confuse(v) for k, v in obj.items()}
    if obj.__class__ is Canon:
        return Canon(_confuse(obj.value))
    return obj


class TestTypeExactKeys:
    @given(payload=_payloads)
    @settings(max_examples=150, deadline=None)
    def test_memoised_digest_is_hash_obj_in_either_order(self, payload):
        twin = _confuse(payload)
        expected = [hash_obj(payload), hash_obj(twin)]
        for first, second in ((payload, twin), (twin, payload)):
            clear_caches()
            order = [hash_obj_cached(first), hash_obj_cached(second)]
            again = [hash_obj_cached(first), hash_obj_cached(second)]
            want = expected if first is payload else expected[::-1]
            assert order == again == want
        set_caches_enabled(False)
        assert [hash_obj_cached(payload), hash_obj_cached(twin)] == expected

    @given(items=st.lists(_plain, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_memoised_root_is_the_tree_root(self, items):
        expected = MerkleTree(items).root
        assert merkle_root(items) == merkle_root(tuple(items)) == expected
        assert merkle_tree(items).root == expected
        twins = [_confuse(item) for item in items]
        assert merkle_root(twins) == MerkleTree(twins).root
        set_caches_enabled(False)
        assert merkle_root(items) == expected

    def test_one_true_and_one_point_zero_are_three_contents(self):
        trio = [(1,), (True,), (1.0,)]
        for order in (trio, trio[::-1]):
            clear_caches()
            assert len({hash_obj_cached(p) for p in order}) == 3
            assert len({merkle_root([p]) for p in order}) == 3
            assert len({MerkleTree([p]).leaves[0] for p in order}) == 3
            assert len({_fingerprint(p) for p in order}) == 3
            # ...also as rows of a table the checksum folds to a root.
            assert len({_fingerprint(("t", 1, (p, p))) for p in order}) == 3
        assert [hash_obj_cached(p) for p in trio] == [hash_obj(p)
                                                      for p in trio]

    def test_unhashable_payloads_are_memoised(self):
        block = {"number": 1, "transactions": [(1, 2, "op")], "hash": b"h"}
        before = cache_stats()
        assert hash_obj_cached(block) == hash_obj(block)
        assert hash_obj_cached(dict(block)) == hash_obj(block)
        after = cache_stats()
        assert after["digest_cache_misses"] - before["digest_cache_misses"] == 1
        assert after["digest_cache_hits"] - before["digest_cache_hits"] == 1

    def test_objects_are_keyed_by_their_canonical_form(self):
        batch = [ClientRequest(1, k, ("put", "k", k)) for k in range(3)]
        payload = (7, batch)
        before = cache_stats()
        assert hash_obj_cached(payload) == hash_obj(payload)
        rebuilt = (7, [ClientRequest(1, k, ("put", "k", k))
                       for k in range(3)])
        assert hash_obj_cached(rebuilt) == hash_obj(payload)
        after = cache_stats()
        assert after["digest_cache_misses"] - before["digest_cache_misses"] == 1
        assert after["digest_cache_hits"] - before["digest_cache_hits"] == 1

    def test_objects_beside_plain_values_still_have_a_key(self):
        payload = (Canon(1), {"a": 1, "b": Canon(2.0)}, [None, Canon("x")])
        assert hashing.content_key(payload) is not None
        assert hash_obj_cached(payload) == hash_obj(payload)
        assert hash_obj_cached(payload) == hash_obj(payload)

    def test_content_without_a_key_takes_the_uncached_path(self):
        nested = (1, Canon(Canon(2)))  # canonical form holds an object
        assert hashing.content_key(nested) is None
        before = cache_stats()
        assert hash_obj_cached(nested) == hash_obj(nested)
        assert cache_stats() == before


class TestCanonicalRows:
    def test_tx_record_round_trips_through_its_canonical_form(self):
        tx = TxRecord(7, 3, ("spend", "a", ("c1",), (("b", 5),)), 310, "")
        assert TxRecord.from_canonical(tx.to_canonical()) == tx


class TestBatchDigest:
    def test_tuple_and_list_of_requests_hash_alike(self):
        batch = [ClientRequest(c, 1, ("spend", f"a{c}", (c,)), special="")
                 for c in range(5)]
        expected = hash_obj([r.to_canonical() for r in batch])
        before = cache_stats()
        assert batch_digest(batch) == expected
        assert batch_digest(tuple(batch)) == expected
        assert hash_obj(tuple(r.to_canonical() for r in batch)) == expected
        after = cache_stats()
        # The second spelling reused the first one's digest.
        assert after["digest_cache_misses"] - before["digest_cache_misses"] == 1
        assert after["digest_cache_hits"] - before["digest_cache_hits"] == 1
        assert batch_digest(batch[::-1]) != expected


def _stored(payload, cell=False):
    """A store holding ``payload`` on stable media, stamped and verified
    once — so the memo is warm with the original content."""
    sim = Simulator()
    store = StableStore(sim)
    if cell:
        store.put("cell", payload, 10)
    else:
        store.append("log", payload, 10)
    store.sync()
    sim.run()
    return store


def _logged_shapes():
    txs = [TxRecord(c, 1, ("spend", f"a{c}", (f"coin{c}",), ((f"b{c}", 5),)),
                    310) for c in range(6)]
    results = [(c, 1, repr(("spent", (f"new{c}",))), hash_obj(("r", c)))
               for c in range(6)]
    header = (3, 0, 0, 0, hash_obj("t"), hash_obj("r"), hash_obj("p"))
    proof = tuple((rid, f"pub{rid}", hash_obj(("sig", rid)))
                  for rid in range(3))
    batch = [ClientRequest(c, 1, ("spend", f"a{c}", (f"coin{c}",))) for c in
             range(6)]
    naive = {"number": 3, "prev": hash_obj("p"), "consensus_id": 2,
             "transactions": [(r.client_id, r.req_id, r.op_repr)
                              for r in batch],
             "results": [(c, 1, "('spent',)") for c in range(6)],
             "hash": hash_obj("b"), "nbytes": 2000}
    return {
        "smartchain-txs": ("txs", 3, 2, tuple(t.to_canonical() for t in txs),
                           hash_obj("batch")),
        "smartchain-results": ("results", 3, tuple(results)),
        "smartchain-header": ("header", 3, header, proof),
        "dura-decision": (2, batch),
        "naive-block": naive,
    }


class TestBitrotUnderAWarmMemo:
    @pytest.mark.parametrize("shape", sorted(_logged_shapes()))
    def test_rotted_log_record_never_verifies(self, shape):
        payload = _logged_shapes()[shape]
        for seed in range(200):
            store = _stored(payload)
            (entry,) = store.read_entries("log")
            assert store.verify_entry(entry)          # a memo hit
            store.inject_fault("bit-rot", random.Random(seed), index=0)
            (entry,) = store.read_entries("log")
            assert entry.payload != payload
            assert not store.verify_entry(entry), (shape, seed)
            assert not store.verify_entry(entry)      # nor from the memo

    @pytest.mark.parametrize("minters", [("alice",), frozenset({"alice"})],
                             ids=["canonical", "repr-checksummed"])
    def test_rotted_snapshot_cell_never_verifies(self, minters):
        snapshot = (41, ({"coin1": ("alice", 5), "coin2": ("bob", 7)},
                         minters, 12, 0))
        for seed in range(200):
            store = _stored(snapshot, cell=True)
            assert store.verify_cell("cell")
            store.inject_fault("bit-rot", random.Random(seed), cell="cell")
            assert not store.verify_cell("cell"), seed

    def test_rot_and_back_verifies_again(self):
        payload = _logged_shapes()["smartchain-results"]
        store = _stored(payload)
        (entry,) = store.read_entries("log")
        entry.payload = ("results", 3, payload[2][:-1])
        assert not store.verify_entry(entry)
        entry.payload = payload
        assert store.verify_entry(entry)

    def test_table_checksum_matches_the_cache_off_reference(self):
        for payload in _logged_shapes().values():
            warm = _fingerprint(payload)
            set_caches_enabled(False)
            assert _fingerprint(payload) == warm
            set_caches_enabled(True)

    def test_plain_records_keep_the_canonical_digest(self):
        for payload in (("resume", 4), (2, [ClientRequest(1, 2, "op")]),
                        {"number": 1}, "entry", 7):
            assert _fingerprint(payload) == hash_obj(payload)


class TestBound:
    def test_never_exceeds_capacity_and_evicts_oldest_first(self):
        memo = Memo(capacity=8, shared=False)
        for key in range(100):
            memo.add(key, key)
            assert len(memo) <= 8
        # FIFO: the survivors are the most recently added, in order.
        assert list(memo) == list(range(100 - len(memo), 100))
        memo.clear()
        for key in range(8):
            memo.add(key, key)
        memo.add(8, 8)  # full: the older half goes, oldest first
        assert list(memo) == [4, 5, 6, 7, 8]

    def test_digest_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(hashing._digests, "capacity", 16)
        for k in range(100):
            hash_obj_cached(("k", k))
            assert len(hashing._digests) <= 16

    def test_clear_caches_empties_every_shared_table(self):
        from repro.apps import smartcoin
        hash_obj_cached(("a", 1))
        merkle_root([("a", 1)])
        merkle_tree([("a", 1)])
        smartcoin.coin_id(1, 2, 0)
        tables = hashing._tables
        assert len(tables) >= 4 and sum(map(len, tables)) >= 4
        clear_caches()
        assert all(len(table) == 0 for table in tables)

    def test_disabled_tables_stay_empty_and_uncounted(self):
        set_caches_enabled(False)
        before = cache_stats()
        memo = Memo(capacity=4, shared=False)
        assert memo.add("k", "v") == "v"
        assert len(memo) == 0 and cache_stats() == before


class TestProofsShareOneTree:
    def test_every_proof_of_a_body_comes_from_one_tree(self, monkeypatch):
        body = BlockBody(
            consensus_id=1,
            transactions=[TxRecord(c, 1, ("mint", "m", ((5, c),)), 180)
                          for c in range(9)],
            results=[(c, 1, "('minted',)", hash_obj(c)) for c in range(9)])
        built = []
        original = MerkleTree.__init__

        def counting(self, items):
            built.append(len(items))
            original(self, items)

        monkeypatch.setattr(MerkleTree, "__init__", counting)
        roots = {body.result_proof(i).compute_root() for i in range(9)}
        assert roots == {body.hash_results()}
        roots = {body.transaction_proof(i).compute_root() for i in range(9)}
        assert roots == {body.hash_transactions()}
        # One tree per table for the proofs, one per table for the roots.
        assert built == [9, 9, 9, 9]
        # An edited body is other content: its proofs come from a new tree.
        body.results[0] = (0, 1, "('forged',)", hash_obj(0))
        assert body.result_proof(0).compute_root() == body.hash_results()
        assert body.result_proof(1).compute_root() == body.hash_results()
        assert len(built) == 6


class TestReprChecksums:
    def test_counted_per_store(self):
        store = StableStore(Simulator())
        store.append("log", ("plain", 1), 10)
        assert store.repr_checksums == 0
        store.append("log", {1, 2}, 10)
        store.put("cell", object(), 10)
        store.write_snapshot("snap", ("s", frozenset({"a"})), 10)
        assert store.repr_checksums == 3

    @pytest.mark.parametrize("system", ["smartchain", "dura", "naive"])
    def test_regular_delivery_never_leaves_the_canonical_path(self, system):
        result = run(Scenario(system=system, clients=60, duration=1.5,
                              seed=2))
        assert result.completed > 0
        assert result.metrics["storage.repr_checksums"] == 0
