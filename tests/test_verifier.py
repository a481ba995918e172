"""Third-party chain verification tests — the self-verifiability requirement.

These tests run a real consortium, take the serialized chain of ONE replica
(no shared objects) and verify it end to end; then they tamper with every
part of a block and check the verifier catches each manipulation.
"""

import pytest

from repro.config import PersistenceVariant, StorageMode
from repro.errors import VerificationError
from repro.crypto.hashing import hash_obj
from repro.ledger import Block, ChainVerifier, TxRecord

from tests.helpers import make_consortium, run_coin_traffic


@pytest.fixture(scope="module")
def strong_chain():
    """A verified strong-variant run shared by the tamper tests."""
    consortium = make_consortium(seed=11, checkpoint_period=5)
    run_coin_traffic(consortium, txs=30)
    records = consortium.node(1).chain_records()
    assert len(records) >= 5
    return consortium, records


def verify(consortium, records, **kwargs):
    kwargs.setdefault("uncertified_tail", 1)
    verifier = ChainVerifier(consortium.registry, consortium.genesis, **kwargs)
    return verifier.verify_records(records)


class TestValidChains:
    def test_full_chain_verifies(self, strong_chain):
        consortium, records = strong_chain
        report = verify(consortium, records)
        assert report.blocks_verified == len(records)
        assert report.total_transactions >= 30
        assert report.final_view.view_id == 0

    def test_all_replicas_serve_equivalent_history(self, strong_chain):
        consortium, _ = strong_chain
        heads = set()
        for node in consortium.nodes.values():
            report = verify(consortium, node.chain_records())
            heads.add(report.head_digest)
        assert len(heads) == 1

    def test_weak_mode_checks_decision_proofs(self):
        consortium = make_consortium(seed=12,
                                     variant=PersistenceVariant.WEAK)
        run_coin_traffic(consortium, txs=20)
        records = consortium.node(0).chain_records()
        report = verify(consortium, records, require_certificates=False)
        assert report.blocks_verified == len(records)

    def test_weak_chain_fails_strict_certificate_check(self):
        consortium = make_consortium(seed=12,
                                     variant=PersistenceVariant.WEAK)
        run_coin_traffic(consortium, txs=20)
        records = consortium.node(0).chain_records()
        with pytest.raises(VerificationError, match="certificate"):
            verify(consortium, records, uncertified_tail=0)

    def test_empty_chain_verifies(self):
        consortium = make_consortium(seed=13)
        report = verify(consortium, [])
        assert report.blocks_verified == 0

    def test_checkpoint_pointers_tracked(self):
        consortium = make_consortium(seed=14, checkpoint_period=3)
        run_coin_traffic(consortium, txs=30)
        records = consortium.node(0).chain_records()
        report = verify(consortium, records)
        assert report.checkpoints_referenced >= 1


def tamper(records, index, fn):
    """Return records with block ``index`` rewritten by ``fn(block)``."""
    blocks = [Block.from_record(r) for r in records]
    fn(blocks[index])
    return [b.to_record() for b in blocks]


class TestTamperDetection:
    def test_modified_transaction_detected(self, strong_chain):
        consortium, records = strong_chain

        def hack(block):
            tx = TxRecord.from_canonical(block.body.transactions[0])
            block.body.transactions[0] = TxRecord(
                tx.client_id, tx.req_id, ("mint", "thief", ((10**9, 1),)),
                tx.size, tx.special).to_canonical()

        with pytest.raises(VerificationError):
            verify(consortium, tamper(records, 1, hack))

    def test_modified_result_detected(self, strong_chain):
        consortium, records = strong_chain

        def hack(block):
            block.body.results[0] = (1, 1, "('minted', ('stolen',))", b"")

        with pytest.raises(VerificationError):
            verify(consortium, tamper(records, 1, hack))

    def test_removed_block_detected(self, strong_chain):
        consortium, records = strong_chain
        with pytest.raises(VerificationError):
            verify(consortium, records[:1] + records[2:])

    def test_reordered_blocks_detected(self, strong_chain):
        consortium, records = strong_chain
        swapped = list(records)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        with pytest.raises(VerificationError):
            verify(consortium, swapped)

    def test_forged_header_field_detected(self, strong_chain):
        consortium, records = strong_chain

        def hack(block):
            header = block.header
            block.header = type(header)(
                header.number, header.last_reconfig, 99, header.view_id,
                header.hash_transactions, header.hash_results,
                header.hash_last_block)

        with pytest.raises(VerificationError):
            verify(consortium, tamper(records, 1, hack))

    def test_stripped_certificate_detected(self, strong_chain):
        consortium, records = strong_chain
        with pytest.raises(VerificationError, match="certificate"):
            verify(consortium, tamper(records, 1,
                                      lambda b: setattr(b, "certificate",
                                                        None)))

    def test_certificate_with_forged_signatures_detected(self, strong_chain):
        consortium, records = strong_chain
        attacker = consortium.registry.generate("attacker")

        def hack(block):
            digest = block.certificate.header_digest
            for replica_id in list(block.certificate.signatures):
                block.certificate.signatures[replica_id] = \
                    attacker.sign(digest)

        with pytest.raises(VerificationError):
            verify(consortium, tamper(records, 1, hack))

    def test_certificate_below_quorum_detected(self, strong_chain):
        consortium, records = strong_chain

        def hack(block):
            sigs = block.certificate.signatures
            while len(sigs) > 2:
                sigs.pop(next(iter(sigs)))

        with pytest.raises(VerificationError):
            verify(consortium, tamper(records, 1, hack))

    def test_certificate_moved_between_blocks_detected(self, strong_chain):
        consortium, records = strong_chain
        blocks = [Block.from_record(r) for r in records]
        blocks[1].certificate = blocks[2].certificate
        with pytest.raises(VerificationError):
            verify(consortium, [b.to_record() for b in blocks])

    def test_uncertified_tail_tolerance_is_bounded(self, strong_chain):
        consortium, records = strong_chain
        blocks = [Block.from_record(r) for r in records]
        blocks[-1].certificate = None
        blocks[-2].certificate = None
        stripped = [b.to_record() for b in blocks]
        # Tail of 2 allowed -> passes; tail of 1 -> fails.
        verify(consortium, stripped, uncertified_tail=2)
        with pytest.raises(VerificationError):
            verify(consortium, stripped, uncertified_tail=1)


class TestForkAnalysis:
    def test_identical_chains_show_no_fork(self, strong_chain):
        consortium, records = strong_chain
        verifier = ChainVerifier(consortium.registry, consortium.genesis)
        assert verifier.find_fork(records, records) is None

    def test_diverging_chains_located(self, strong_chain):
        consortium, records = strong_chain

        def fork_header(block):
            header = block.header
            block.header = type(header)(
                header.number, header.last_reconfig, header.last_checkpoint,
                header.view_id, header.hash_transactions,
                hash_obj(("forged-results",)), header.hash_last_block)

        forked = tamper(records, 2, fork_header)
        verifier = ChainVerifier(consortium.registry, consortium.genesis)
        evidence = verifier.find_fork(records, forked)
        assert evidence is not None
        assert evidence.number == 3  # block index 2 -> number 3
        assert evidence.digest_a != evidence.digest_b
