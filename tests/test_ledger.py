"""Unit tests for blocks, the chain container and the genesis block."""

import pytest

from repro.crypto.hashing import EMPTY_DIGEST, hash_obj
from repro.crypto.keys import KeyRegistry
from repro.errors import LedgerError
from repro.ledger.block import (
    Block,
    BlockBody,
    BlockHeader,
    Certificate,
    KeyAnnouncement,
    TxRecord,
)
from repro.ledger.chain import Blockchain
from repro.ledger.genesis import GenesisBlock
from repro.smr.views import View


def make_genesis(registry=None, n=4, z=10):
    registry = registry or KeyRegistry(1)
    view = View(0, tuple(range(n)))
    permanent = {}
    announcements = []
    for member in view.members:
        perm = registry.generate(f"perm-{member}")
        cons = registry.generate(f"cons-{member}")
        permanent[member] = perm.public
        payload = hash_obj(("keyann", 0, member, cons.public))
        announcements.append(KeyAnnouncement(0, member, cons.public,
                                             perm.sign(payload)))
    return GenesisBlock(view=view, permanent_keys=permanent,
                        key_announcements=announcements, checkpoint_period=z)


def make_block(number, prev_hash, txs=2, view_id=0, last_reconfig=-1,
               last_checkpoint=-1):
    records = [TxRecord(1000 + i, number * 100 + i, ("put", f"k{i}", i), 200)
               for i in range(txs)]
    results = [(r.client_id, r.req_id, "ok", hash_obj(("res", r.req_id)))
               for r in records]
    body = BlockBody(consensus_id=number - 1, transactions=records,
                     results=results, batch_hash=hash_obj(("batch", number)))
    header = BlockHeader(
        number=number, last_reconfig=last_reconfig,
        last_checkpoint=last_checkpoint, view_id=view_id,
        hash_transactions=body.hash_transactions(),
        hash_results=body.hash_results(),
        hash_last_block=prev_hash,
    )
    return Block(header, body)


class TestBlockStructures:
    def test_tx_record_roundtrip(self):
        record = TxRecord(7, 3, ("spend", "a", ("c",), (("b", 5),)), 310, "")
        row = record.to_canonical()
        assert type(row) is tuple and row == record
        assert row == ("tx", 7, 3, ("spend", "a", ("c",), (("b", 5),)), 310, "")
        assert TxRecord.from_canonical(row) == record
        assert (record.client_id, record.req_id, record.size) == (7, 3, 310)

    def test_header_roundtrip_and_digest_stability(self):
        block = make_block(1, EMPTY_DIGEST)
        restored = BlockHeader.from_record(block.header.to_record())
        assert restored == block.header
        assert restored.digest() == block.header.digest()

    def test_header_digest_changes_with_any_field(self):
        base = make_block(1, EMPTY_DIGEST).header
        variations = [
            BlockHeader(2, base.last_reconfig, base.last_checkpoint,
                        base.view_id, base.hash_transactions,
                        base.hash_results, base.hash_last_block),
            BlockHeader(base.number, 5, base.last_checkpoint, base.view_id,
                        base.hash_transactions, base.hash_results,
                        base.hash_last_block),
            BlockHeader(base.number, base.last_reconfig, base.last_checkpoint,
                        1, base.hash_transactions, base.hash_results,
                        base.hash_last_block),
        ]
        for other in variations:
            assert other.digest() != base.digest()

    def test_block_roundtrip_with_certificate_and_proof(self):
        registry = KeyRegistry(1)
        block = make_block(1, EMPTY_DIGEST)
        digest = block.digest()
        cert = Certificate(1, digest, 0)
        for member in range(3):
            key = registry.generate(f"c{member}")
            cert.add(member, key.sign(digest))
        block.certificate = cert
        block.consensus_proof[0] = registry.generate("p").sign(b"proof")
        restored = Block.from_record(block.to_record())
        assert restored.digest() == block.digest()
        assert set(restored.certificate.signatures) == {0, 1, 2}
        assert 0 in restored.consensus_proof
        restored.validate_body()

    def test_validate_body_detects_tampered_transactions(self):
        block = make_block(1, EMPTY_DIGEST)
        record = block.to_record()
        header_rec, body_rec, cert, proof = record
        cid, txs, results, batch_hash, anns, new_view = body_rec
        tampered_tx = list(txs[0])
        tampered_tx[2] = ("put", "EVIL", 999)
        tampered = (cid, (tuple(tampered_tx),) + txs[1:], results,
                    batch_hash, anns, new_view)
        forged = Block.from_record((header_rec, tampered, cert, proof))
        with pytest.raises(LedgerError):
            forged.validate_body()

    def test_validate_body_detects_tampered_results(self):
        block = make_block(1, EMPTY_DIGEST)
        block.body.results[0] = (9, 9, "FORGED", b"x")
        with pytest.raises(LedgerError):
            block.validate_body()

    def test_serialized_bytes_positive_and_monotone(self):
        small = make_block(1, EMPTY_DIGEST, txs=1)
        large = make_block(1, EMPTY_DIGEST, txs=50)
        assert 0 < small.serialized_bytes() < large.serialized_bytes()

    def test_key_announcement_roundtrip(self):
        registry = KeyRegistry(1)
        perm = registry.generate("perm")
        ann = KeyAnnouncement(2, 7, "pubkey", perm.sign(b"payload"))
        assert KeyAnnouncement.from_record(ann.to_record()) == ann


class TestBlockchain:
    def test_append_and_lookup(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        b1 = make_block(1, genesis.hash_for_block_one)
        chain.append(b1)
        b2 = make_block(2, b1.digest())
        chain.append(b2)
        assert chain.height == 2
        assert chain.get(1) is b1
        assert chain.head() is b2
        assert chain.head_digest() == b2.digest()

    def test_wrong_number_rejected(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        with pytest.raises(LedgerError):
            chain.append(make_block(5, genesis.hash_for_block_one))

    def test_broken_hash_chain_rejected(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        chain.append(make_block(1, genesis.hash_for_block_one))
        with pytest.raises(LedgerError):
            chain.append(make_block(2, b"\x00" * 32))

    def test_records_roundtrip(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        prev = genesis.hash_for_block_one
        for number in range(1, 6):
            block = make_block(number, prev)
            chain.append(block)
            prev = block.digest()
        restored = Blockchain.from_records(genesis, chain.to_records())
        assert restored.height == 5
        assert restored.head_digest() == chain.head_digest()

    def test_truncate_returns_dropped(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        prev = genesis.hash_for_block_one
        for number in range(1, 6):
            block = make_block(number, prev)
            chain.append(block)
            prev = block.digest()
        dropped = chain.truncate(3)
        assert [b.number for b in dropped] == [4, 5]
        assert chain.height == 3

    def test_suffix_chain(self):
        genesis = make_genesis()
        full = Blockchain(genesis)
        prev = genesis.hash_for_block_one
        blocks = []
        for number in range(1, 7):
            block = make_block(number, prev)
            blocks.append(block)
            full.append(block)
            prev = block.digest()
        suffix = Blockchain.from_suffix(genesis, 3, blocks[2].digest(),
                                        blocks[3:])
        assert suffix.height == 6
        assert suffix.base_height == 3
        assert suffix.get(5).number == 5
        with pytest.raises(LedgerError):
            suffix.get(2)  # not held locally
        assert [b.number for b in suffix.blocks(start=1)] == [4, 5, 6]

    def test_iteration_and_len(self):
        genesis = make_genesis()
        chain = Blockchain(genesis)
        chain.append(make_block(1, genesis.hash_for_block_one))
        assert len(chain) == 1
        assert [b.number for b in chain] == [1]


class TestGenesis:
    def test_roundtrip(self):
        genesis = make_genesis()
        restored = GenesisBlock.from_record(genesis.to_record())
        assert restored.view == genesis.view
        assert restored.permanent_keys == genesis.permanent_keys
        assert restored.checkpoint_period == genesis.checkpoint_period
        assert restored.digest() == genesis.digest()

    def test_missing_permanent_key_rejected(self):
        registry = KeyRegistry(1)
        view = View(0, (0, 1))
        with pytest.raises(LedgerError):
            GenesisBlock(view=view, permanent_keys={0: "only-one"},
                         key_announcements=[], checkpoint_period=10)

    def test_negative_checkpoint_period_rejected(self):
        genesis = make_genesis()
        with pytest.raises(LedgerError):
            GenesisBlock(view=genesis.view,
                         permanent_keys=genesis.permanent_keys,
                         key_announcements=genesis.key_announcements,
                         checkpoint_period=-1)

    def test_digest_sensitive_to_members(self):
        a = make_genesis(KeyRegistry(1), n=4)
        b = make_genesis(KeyRegistry(1), n=7)
        assert a.digest() != b.digest()

    def test_hash_for_block_one_is_empty_digest(self):
        assert make_genesis().hash_for_block_one == EMPTY_DIGEST
