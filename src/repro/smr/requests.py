"""Client requests, replies and decisions — the SMR data plane."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.crypto.hashing import hash_obj_cached
from repro.crypto.keys import Signature
from repro.net.message import Message

__all__ = [
    "ClientRequest",
    "RequestKey",
    "batch_digest",
    "Decision",
    "RequestBatchMsg",
    "ReplyBatchMsg",
]

RequestKey = tuple[int, int]


@dataclass(slots=True)
class ClientRequest:
    """One client operation submitted for total ordering.

    ``op`` is the application payload (e.g. a SMaRtCoin transaction).
    ``size`` is the serialized request size in bytes — the quantity the
    paper reports (180 B MINT / 310 B SPEND requests) and that drives the
    bandwidth model.  ``signed`` marks whether a signature must be verified
    (and its cost charged) before execution.
    """

    client_id: int
    req_id: int
    op: Any
    size: int = 128
    signed: bool = True
    sent_at: float = 0.0
    #: Client station (machine) hosting the issuing client; replies for all
    #: clients of one station travel in one ReplyBatchMsg.
    station: int = -1
    #: Serialized size of this request's reply (e.g. 270 B MINT / 380 B SPEND).
    reply_size: int = 128
    #: Special ordered operations that bypass the application (view
    #: reconfigurations); empty string for normal requests.
    special: str = ""
    #: (client_id, req_id) — precomputed: this pair is the dict key for
    #: every pending/ledger/reply lookup, making it the single most-read
    #: attribute in a run (millions of accesses), so a property is too slow.
    key: RequestKey = field(init=False, repr=False, compare=False)
    #: ``repr(op)`` — precomputed once; re-derived per replica otherwise
    #: (canonical encoding, naive block payloads).
    op_repr: str = field(init=False, repr=False, compare=False)
    _canonical: tuple = field(init=False, repr=False, compare=False)
    #: The block row, built on first use (:meth:`tx_row`).  Reset here, so
    #: a copy made through ``__init__`` (``dataclasses.replace``, a rotted
    #: record) derives its own.
    _tx_row: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (self.client_id, self.req_id)
        self.op_repr = repr(self.op)
        self._canonical = ("req", self.client_id, self.req_id, self.special,
                           self.op_repr)
        self._tx_row = None

    def to_canonical(self) -> tuple:
        return self._canonical

    def tx_row(self) -> tuple:
        """This transaction as a block stores it: the canonical
        ``("tx", client_id, req_id, op, size, special)`` tuple — a block
        body's row, a logged ``txs`` row and a Merkle leaf of
        ``hash_transactions``.  The n replicas of a process hold the same
        request object, so they all chain and log this one tuple."""
        row = self._tx_row
        if row is None:
            row = self._tx_row = ("tx", self.client_id, self.req_id, self.op,
                                  self.size, self.special)
        return row


def batch_digest(batch: Sequence[ClientRequest]) -> bytes:
    """The batch hash consensus decides on: SHA-256 over the canonical
    requests, in order (a tuple and a list of them encode identically).

    Content-addressed, so the proposer, an equivocating twin's audit and the
    replay evidence of recovery hash a given batch once between them."""
    return hash_obj_cached([r.to_canonical() for r in batch])


@dataclass
class Decision:
    """The outcome of one consensus instance, handed to the delivery layer."""

    cid: int
    batch: list[ClientRequest]
    #: Quorum of signed ACCEPTs proving the decision (Section II-C1);
    #: mapping replica id -> signature over (cid, batch hash).
    proof: dict[int, Signature]
    batch_hash: bytes
    regency: int
    decided_at: float

    @property
    def size(self) -> int:
        return len(self.batch)

    def payload_bytes(self) -> int:
        return sum(req.size for req in self.batch)


@dataclass
class RequestBatchMsg(Message):
    """Client station → replicas: a group of client requests."""

    requests: list[ClientRequest] = field(default_factory=list)


@dataclass
class ReplyBatchMsg(Message):
    """Replica → client station: results for executed requests.

    ``results`` maps request key -> (result payload, result digest);
    stations match replies from distinct replicas by digest.
    """

    replica_id: int = -1
    results: dict[RequestKey, tuple[Any, bytes]] = field(default_factory=dict)
    block_number: int | None = None
