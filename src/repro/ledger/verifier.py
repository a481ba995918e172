"""Third-party chain verification: the self-verifiability requirement.

The paper's Observation 2 demands *log self-verifiability*: "verifying a
single correct log should be enough for obtaining the complete execution
history of the system up to that point".  :class:`ChainVerifier` implements
exactly that: given only the genesis block and a sequence of serialized
block records — no live replicas, no shared objects — it validates:

- the header hash chain (block j cannot be forged without forging j+1...);
- the header's commitment to the body (transactions and results hashes);
- the certificate of each block: a Byzantine quorum of signatures by
  consensus keys **recorded on the chain itself** (genesis or reconfiguration
  blocks).  Keys that were never recorded do not count, which is precisely
  what defeats the fork of Figure 4: consensus keys of past views were
  erased by their owners, and an attacker who later compromises old members
  only obtains permanent keys — useless for certifying old-view blocks,
  because fresh announcements are only accepted for the *current* view at
  the position where they appear in the chain;
- view evolution: reconfiguration blocks switch the member set and the
  recorded key set for subsequent blocks;
- checkpoint and reconfiguration back-pointers.

In ``require_certificates=False`` mode (weak variant) the consensus decision
proof is checked instead — this proves ordering but not quorum persistence,
matching 1-Persistence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.crypto.hashing import EMPTY_DIGEST, hash_obj, hash_obj_cached
from repro.crypto.keys import KeyRegistry
from repro.errors import LedgerError, VerificationError
from repro.ledger.block import Block, KeyAnnouncement
from repro.ledger.genesis import GenesisBlock
from repro.smr.views import View

__all__ = ["ChainVerifier", "VerificationReport", "ForkEvidence"]


@dataclass
class VerificationReport:
    """Outcome of a successful chain verification."""

    blocks_verified: int
    head_digest: bytes
    final_view: View
    reconfigurations: int
    checkpoints_referenced: int
    total_transactions: int
    views_seen: list[int] = field(default_factory=list)


@dataclass
class ForkEvidence:
    """Two distinct valid-looking blocks at the same height."""

    number: int
    digest_a: bytes
    digest_b: bytes


class ChainVerifier:
    """Validates serialized chains against a genesis trust anchor."""

    def __init__(self, registry: KeyRegistry, genesis: GenesisBlock,
                 require_certificates: bool = True,
                 uncertified_tail: int = 0):
        self.registry = registry
        self.genesis = genesis
        self.require_certificates = require_certificates
        #: Number of trailing blocks allowed to lack a certificate.  A third
        #: party reading a *live* chain sees the PERSIST phase of the newest
        #: block(s) still in flight; those blocks are exactly the "not yet
        #: written" zone of 0-Persistence.  All other checks still apply.
        self.uncertified_tail = uncertified_tail

    # ------------------------------------------------------------------
    # Chain walk
    # ------------------------------------------------------------------
    def verify_records(self, records: Iterable[tuple]) -> VerificationReport:
        """Verify a full chain of serialized block records; raises
        :class:`VerificationError` on the first invalid block."""
        return self.verify_blocks(Block.from_record(r) for r in records)

    def verify_blocks(self, blocks: Iterable[Block]) -> VerificationReport:
        blocks = list(blocks)
        certified_until = len(blocks) - self.uncertified_tail
        view = self.genesis.view
        permanent = dict(self.genesis.permanent_keys)
        recorded: dict[int, dict[int, str]] = {}
        self._register_announcements(
            self.genesis.key_announcements, view, permanent, recorded)

        prev_digest = self.genesis.hash_for_block_one
        expected = 1
        last_reconfig = -1
        last_checkpoint = -1
        reconfigs = 0
        checkpoints = set()
        transactions = 0
        views_seen = [view.view_id]

        for block in blocks:
            header = block.header
            if header.number != expected:
                raise VerificationError(
                    f"block numbering broken: expected {expected}, "
                    f"found {header.number}")
            if header.hash_last_block != prev_digest:
                raise VerificationError(
                    f"block {header.number}: previous-hash mismatch "
                    f"(the chain is broken or forked here)")
            if header.view_id != view.view_id:
                raise VerificationError(
                    f"block {header.number}: declared view {header.view_id}, "
                    f"but the chain prescribes view {view.view_id}")
            if header.last_reconfig != last_reconfig:
                raise VerificationError(
                    f"block {header.number}: lastReconfig pointer "
                    f"{header.last_reconfig} != {last_reconfig}")
            if header.last_checkpoint != last_checkpoint:
                raise VerificationError(
                    f"block {header.number}: lastCheckpoint pointer "
                    f"{header.last_checkpoint} != {last_checkpoint}")
            try:
                block.validate_body()
            except LedgerError as exc:
                raise VerificationError(str(exc)) from exc

            tail_ok = header.number > certified_until
            if not (tail_ok and block.certificate is None):
                self._verify_block_authentication(block, view, recorded)

            # Announcements become *recorded* only once inside a valid block,
            # and only for the view active at that position.
            announcements = [KeyAnnouncement.from_record(a)
                             for a in block.body.key_announcements]
            current_anns = [a for a in announcements
                            if a.view_id == view.view_id and block.body.new_view is None]

            if block.body.new_view is not None:
                reconfigs += 1
                view, permanent = self._apply_reconfiguration(
                    block, view, permanent)
                next_anns = [a for a in announcements
                             if a.view_id == view.view_id]
                self._register_announcements(next_anns, view, permanent, recorded)
                last_reconfig = header.number
            else:
                self._register_announcements(current_anns, view, permanent,
                                             recorded)

            transactions += len(block.body.transactions)
            if header.last_checkpoint >= 0:
                checkpoints.add(header.last_checkpoint)
            if self._is_checkpoint_boundary(header.number):
                last_checkpoint = header.number
            prev_digest = header.digest()
            expected += 1
            if view.view_id != views_seen[-1]:
                views_seen.append(view.view_id)

        return VerificationReport(
            blocks_verified=expected - 1,
            head_digest=prev_digest,
            final_view=view,
            reconfigurations=reconfigs,
            checkpoints_referenced=len(checkpoints),
            total_transactions=transactions,
            views_seen=views_seen,
        )

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _register_announcements(
        self,
        announcements: Iterable[KeyAnnouncement],
        view: View,
        permanent: dict[int, str],
        recorded: dict[int, dict[int, str]],
    ) -> None:
        """Record consensus keys certified by their owners' permanent keys."""
        for ann in announcements:
            if ann.replica_id not in view.members or ann.view_id != view.view_id:
                raise VerificationError(
                    f"key announcement for replica {ann.replica_id} / view "
                    f"{ann.view_id} does not match view {view.view_id}")
            owner_key = permanent.get(ann.replica_id)
            if owner_key is None or not self.registry.verify(
                    owner_key, ann.payload(), ann.signature):
                raise VerificationError(
                    f"invalid key announcement for replica {ann.replica_id} "
                    f"in view {ann.view_id}")
            recorded.setdefault(ann.view_id, {})[ann.replica_id] = \
                ann.consensus_public

    def _verify_block_authentication(
        self, block: Block, view: View,
        recorded: dict[int, dict[int, str]],
    ) -> None:
        header = block.header
        keys = recorded.get(view.view_id, {})
        if self.require_certificates:
            cert = block.certificate
            if cert is None:
                raise VerificationError(
                    f"block {header.number}: missing certificate")
            if cert.header_digest != header.digest():
                raise VerificationError(
                    f"block {header.number}: certificate covers a different "
                    f"header")
            if cert.view_id != view.view_id:
                raise VerificationError(
                    f"block {header.number}: certificate claims view "
                    f"{cert.view_id}, chain prescribes {view.view_id}")
            payload = header.digest()
            valid = 0
            for replica_id, signature in cert.signatures.items():
                public = keys.get(replica_id)
                if public is None:
                    continue  # unrecorded key: cannot count toward the quorum
                if self.registry.verify(public, payload, signature):
                    valid += 1
            if valid < view.cert_quorum:
                raise VerificationError(
                    f"block {header.number}: certificate has {valid} valid "
                    f"recorded-key signatures, needs {view.cert_quorum}")
        else:
            proof = block.consensus_proof
            payload = hash_obj_cached(("accept", block.body.consensus_id,
                                       block.body.batch_hash))
            valid = 0
            for replica_id, signature in proof.items():
                public = keys.get(replica_id)
                if public is None:
                    continue
                if self.registry.verify(public, payload, signature):
                    valid += 1
            if valid < view.quorum:
                raise VerificationError(
                    f"block {header.number}: decision proof has {valid} valid "
                    f"signatures, needs {view.quorum}")

    def _apply_reconfiguration(
        self, block: Block, view: View, permanent: dict[int, str],
    ) -> tuple[View, dict[int, str]]:
        view_id, members, new_permanent = block.body.new_view
        new_view = View(view_id, tuple(members))
        if new_view.view_id != view.view_id + 1:
            raise VerificationError(
                f"block {block.number}: reconfiguration skips from view "
                f"{view.view_id} to {new_view.view_id}")
        updated = dict(permanent)
        updated.update(dict(new_permanent))
        missing = [m for m in new_view.members if m not in updated]
        if missing:
            raise VerificationError(
                f"block {block.number}: new view lacks permanent keys for "
                f"{missing}")
        return new_view, updated

    def _is_checkpoint_boundary(self, number: int) -> bool:
        z = self.genesis.checkpoint_period
        return z > 0 and number % z == 0

    # ------------------------------------------------------------------
    # Light-client inclusion proofs
    # ------------------------------------------------------------------
    @staticmethod
    def verify_inclusion(header, tx_row, proof) -> bool:
        """Light-client check: is the transaction row ``tx_row`` (an element
        of ``BlockBody.transactions``) committed by ``header``?

        ``proof`` is a Merkle path from :meth:`BlockBody.transaction_proof`;
        the caller must already trust the header (e.g. via a verified chain
        walk or a certificate check).
        """
        from repro.crypto.merkle import MerkleTree
        return MerkleTree.verify(header.hash_transactions, tx_row, proof)

    @staticmethod
    def verify_result_inclusion(header, result_record, proof) -> bool:
        """Light-client check for an execution result (auditability)."""
        from repro.crypto.merkle import MerkleTree
        return MerkleTree.verify(header.hash_results, result_record, proof)

    # ------------------------------------------------------------------
    # Fork analysis
    # ------------------------------------------------------------------
    def find_fork(self, records_a: Iterable[tuple],
                  records_b: Iterable[tuple]) -> ForkEvidence | None:
        """Compare two chains block by block; returns the first divergence
        (both chains' prefixes must independently make sense up to it)."""
        blocks_a = [Block.from_record(r) for r in records_a]
        blocks_b = [Block.from_record(r) for r in records_b]
        for block_a, block_b in zip(blocks_a, blocks_b):
            if block_a.digest() != block_b.digest():
                return ForkEvidence(block_a.number, block_a.digest(),
                                    block_b.digest())
        return None
