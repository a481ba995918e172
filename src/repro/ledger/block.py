"""Blocks: header, body, certificate (Figure 2 of the paper).

A block has three parts:

- **header** — block number, number of the block with the last
  reconfiguration, number of the block with the last checkpoint, hashes of
  the transaction batch, of the execution results and of the previous block;
- **body** — the consensus instance id, the ordered transactions and the
  result of each one (the paper's auditability requirement);
- **certificate** — ⌈(n+f+1)/2⌉ signatures of the header by distinct
  replicas of the view, created by the PERSIST phase in the strong variant.

Every structure serializes to plain tuples (``to_record``) so blocks can be
written to the stable store and re-parsed by a third-party verifier that
shares no objects with the replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Sequence

from repro.crypto import hashing
from repro.crypto.hashing import hash_obj
from repro.crypto.merkle import merkle_root, merkle_tree
from repro.crypto.keys import Signature
from repro.errors import LedgerError

__all__ = [
    "BlockHeader",
    "BlockBody",
    "Certificate",
    "KeyAnnouncement",
    "Block",
    "TxRecord",
]


class TxRecord(tuple):
    """Named view of a transaction row.

    A transaction has one stored spelling: its canonical row ``("tx",
    client_id, req_id, op, size, special)`` — what a block body, a logged
    ``txs`` record and the transaction Merkle tree hold, and what the
    request carries (:meth:`repro.smr.requests.ClientRequest.tx_row`).
    ``op`` is the application payload itself (tuples of primitives), so a
    recovering replica can re-execute logged transactions, and an auditor
    can inspect them.  A ``TxRecord`` *is* such a row (equal to it, hashed
    like it) with the fields named, for a reader or for writing a row by
    hand; the replicas themselves chain plain tuples.
    """

    __slots__ = ()

    def __new__(cls, client_id: int, req_id: int, op: Any, size: int,
                special: str = "") -> "TxRecord":
        return super().__new__(
            cls, ("tx", client_id, req_id, op, size, special))

    client_id = property(itemgetter(1))
    req_id = property(itemgetter(2))
    op = property(itemgetter(3))
    size = property(itemgetter(4))
    special = property(itemgetter(5))

    def to_canonical(self) -> tuple:
        return tuple(self)

    @classmethod
    def from_canonical(cls, row: tuple) -> "TxRecord":
        return cls(*row[1:])


@dataclass(frozen=True)
class BlockHeader:
    """Block metadata (Figure 2, top)."""

    number: int
    last_reconfig: int
    last_checkpoint: int
    view_id: int
    hash_transactions: bytes
    hash_results: bytes
    hash_last_block: bytes

    def digest(self) -> bytes:
        """SHA-256 of the canonical header.

        Headers are immutable, and the digest is re-derived on every PERSIST
        vote, chain append and certificate check — so the first computation
        is stored on the instance (``object.__setattr__`` because the
        dataclass is frozen)."""
        if not hashing.caches_enabled():
            return hash_obj(self.to_canonical())
        cached = getattr(self, "_digest", None)
        if cached is not None:
            hashing.CACHE_COUNTERS["digest_cache_hits"] += 1
            return cached
        hashing.CACHE_COUNTERS["digest_cache_misses"] += 1
        value = hash_obj(self.to_canonical())
        object.__setattr__(self, "_digest", value)
        return value

    def to_canonical(self) -> tuple:
        return ("hdr", self.number, self.last_reconfig, self.last_checkpoint,
                self.view_id, self.hash_transactions, self.hash_results,
                self.hash_last_block)

    def to_record(self) -> tuple:
        return (self.number, self.last_reconfig, self.last_checkpoint,
                self.view_id, self.hash_transactions, self.hash_results,
                self.hash_last_block)

    @classmethod
    def from_record(cls, record: tuple) -> "BlockHeader":
        return cls(*record)

    #: Serialized header size (3 ints + view + 3 SHA-256 digests + framing).
    WIRE_SIZE = 144


@dataclass
class BlockBody:
    """Ordered transactions and their results for one consensus instance."""

    consensus_id: int
    #: Canonical rows (see :class:`TxRecord`) and ``(client_id, req_id,
    #: result_repr, digest)`` rows.  A replica's live chain holds the very
    #: tuples it logged — rows its peers share (docs/performance.md,
    #: Contract 3); a body parsed from a record holds lists.
    transactions: Sequence[tuple]
    results: Sequence[tuple]
    #: The batch hash the consensus instance decided on (what the decision
    #: proof's ACCEPT signatures cover) — lets a third party check the proof.
    batch_hash: bytes = b""
    #: Certified consensus-key announcements carried by this block: either a
    #: reconfiguration's collected keys or late registrations (see
    #: repro.core.reconfig).
    key_announcements: list[tuple] = field(default_factory=list)
    #: For reconfiguration blocks: the new view as (view_id, members,
    #: permanent key map); None for ordinary blocks.
    new_view: tuple | None = None

    def hash_transactions(self) -> bytes:
        """Merkle root over the transactions (footnote 4 of the paper): a
        light client can check one transaction against the header."""
        return merkle_root(self.transactions)

    def hash_results(self) -> bytes:
        """Merkle root over the execution results."""
        return merkle_root(self.results)

    def transaction_proof(self, index: int):
        """Membership proof of transaction ``index`` against the header's
        ``hash_transactions`` root.  Proofs of one body share one tree
        (:func:`merkle_tree`), keyed by content so an edited body gets its
        own."""
        return merkle_tree(self.transactions).proof(index)

    def result_proof(self, index: int):
        """Membership proof of result ``index`` against ``hash_results``."""
        return merkle_tree(self.results).proof(index)

    def payload_bytes(self) -> int:
        tx_bytes = sum(size for _tx, _client, _req, _op, size, _special
                       in self.transactions)
        result_bytes = sum(len(r[2]) + 48 for r in self.results)
        return tx_bytes + result_bytes + 96 * len(self.key_announcements) + 64

    def to_record(self) -> tuple:
        return (self.consensus_id,
                tuple(self.transactions),
                tuple(self.results),
                self.batch_hash,
                tuple(self.key_announcements),
                self.new_view)

    @classmethod
    def from_record(cls, record: tuple) -> "BlockBody":
        cid, txs, results, batch_hash, announcements, new_view = record
        return cls(cid, list(txs), list(results), batch_hash,
                   list(announcements), new_view)


@dataclass(frozen=True)
class KeyAnnouncement:
    """A consensus public key certified by its owner's permanent key.

    ``signature`` covers (view_id, replica_id, consensus_public) and is made
    with the replica's *permanent* key, binding the rotating consensus key to
    the member identity recorded on the chain.
    """

    view_id: int
    replica_id: int
    consensus_public: str
    signature: Signature

    def payload(self) -> bytes:
        return hash_obj(("keyann", self.view_id, self.replica_id,
                         self.consensus_public))

    def to_record(self) -> tuple:
        return (self.view_id, self.replica_id, self.consensus_public,
                self.signature.signer, self.signature.value)

    @classmethod
    def from_record(cls, record: tuple) -> "KeyAnnouncement":
        view_id, replica_id, public, signer, value = record
        return cls(view_id, replica_id, public, Signature(signer, value))


@dataclass
class Certificate:
    """Quorum of header signatures: the proof a Byzantine quorum persisted
    the block (0-Persistence).  ``signatures`` maps replica id -> signature
    over the header digest, made with the view's consensus keys."""

    block_number: int
    header_digest: bytes
    view_id: int
    signatures: dict[int, Signature] = field(default_factory=dict)

    def add(self, replica_id: int, signature: Signature) -> None:
        self.signatures[replica_id] = signature

    def size_bytes(self) -> int:
        return 48 + Signature.WIRE_SIZE * len(self.signatures)

    def to_record(self) -> tuple:
        return (self.block_number, self.header_digest, self.view_id,
                tuple(sorted((rid, s.signer, s.value)
                             for rid, s in self.signatures.items())))

    @classmethod
    def from_record(cls, record: tuple) -> "Certificate":
        number, digest, view_id, sigs = record
        cert = cls(number, digest, view_id)
        for rid, signer, value in sigs:
            cert.signatures[rid] = Signature(signer, value)
        return cert


@dataclass
class Block:
    """A complete block.  ``certificate`` is None until the PERSIST phase
    completes (weak-variant blocks carry the consensus decision proof in
    ``consensus_proof`` instead)."""

    header: BlockHeader
    body: BlockBody
    certificate: Certificate | None = None
    #: Consensus decision proof: replica id -> signature over
    #: (cid, batch hash) — self-verifiable evidence of the ordering.
    consensus_proof: dict[int, Signature] = field(default_factory=dict)

    @property
    def number(self) -> int:
        return self.header.number

    def digest(self) -> bytes:
        return self.header.digest()

    def validate_body(self) -> None:
        """Check the header commits to this body; raise on mismatch."""
        if self.body.hash_transactions() != self.header.hash_transactions:
            raise LedgerError(f"block {self.number}: transaction hash mismatch")
        if self.body.hash_results() != self.header.hash_results:
            raise LedgerError(f"block {self.number}: results hash mismatch")

    def serialized_bytes(self) -> int:
        total = BlockHeader.WIRE_SIZE + self.body.payload_bytes()
        if self.certificate is not None:
            total += self.certificate.size_bytes()
        total += Signature.WIRE_SIZE * len(self.consensus_proof)
        return total

    def to_record(self) -> tuple:
        proof = tuple(sorted((rid, s.signer, s.value)
                             for rid, s in self.consensus_proof.items()))
        cert = self.certificate.to_record() if self.certificate else None
        return (self.header.to_record(), self.body.to_record(), cert, proof)

    @classmethod
    def from_record(cls, record: tuple) -> "Block":
        header_rec, body_rec, cert_rec, proof_rec = record
        block = cls(BlockHeader.from_record(header_rec),
                    BlockBody.from_record(body_rec))
        if cert_rec is not None:
            block.certificate = Certificate.from_record(cert_rec)
        for rid, signer, value in proof_rec:
            block.consensus_proof[rid] = Signature(signer, value)
        return block
