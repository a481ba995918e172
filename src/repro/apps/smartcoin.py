"""SMaRtCoin: the paper's digital coin application (Section IV-A).

A deterministic wallet-like service managing coins under Bitcoin's UTXO
model, broadly inspired by FabCoin.  Two transaction types:

- ``MINT`` — create coins for the issuer; only addresses listed as
  authorized minters (defined in the genesis block) may mint;
- ``SPEND`` — consume input coins owned by the issuer and produce output
  coins for recipient addresses (the evaluation uses single-input,
  single-output SPENDs).

Transactions are signed by clients; signature *cost* is charged by the
replication layer (sequentially or in the verification pool — Table I), and
the application enforces the authorization rules (mint permission, coin
ownership, value conservation).  Invalid transactions execute to an error
result that is recorded in the block: auditable rejection, not silent drop.

Operation payloads (``request.op``):
- ``("mint", issuer, ((value, nonce), ...))``
- ``("spend", issuer, (coin_id, ...), ((recipient, amount), ...))``
- ``("balance", address)`` — read-only helper for examples/tests.

Cross-shard transfers (sharded deployments only — see
:mod:`repro.ledger.xshard` and docs/sharding.md):
- ``("xlock", issuer, (coin_id, ...), dest_shard, recipient)`` — burn the
  input coins on this (source) shard and execute to an ``("xlocked",
  xfer_id, dest_shard, value, recipient)`` result the destination shard
  can later verify via a transfer certificate;
- ``("xmint", issuer, certificate_record)`` — present a transfer
  certificate on the destination shard; after stateless verification the
  locked value is minted for the recipient, exactly once per transfer id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.crypto import hashing
from repro.crypto.hashing import hash_obj
from repro.smr.requests import ClientRequest
from repro.smr.service import Application, ExecutionResult

__all__ = ["SmartCoin", "Wallet", "MINT_SIZES", "SPEND_SIZES",
           "XLOCK_SIZES", "XMINT_SIZES", "coin_id"]

#: (request bytes, reply bytes) — Section IV-B, Observation 1.
MINT_SIZES = (180, 270)
SPEND_SIZES = (310, 380)
#: Cross-shard lock: a SPEND-shaped request whose reply carries the lock
#: result the client will prove to the destination shard.
XLOCK_SIZES = (310, 380)
#: Cross-shard mint: the request carries a full transfer certificate
#: (header 144 B + quorum certificate + Merkle path), hence the size.
XMINT_SIZES = (720, 380)

#: In-memory bookkeeping bytes per UTXO, used to size snapshots.  The paper's
#: Figure 7 state of 8M UTXOs ≈ 1 GB gives ≈128 B per coin.
BYTES_PER_COIN = 128


#: Coin-id string memo: coin_id is a pure function of its arguments, so the
#: final string (not just the digest) can be shared across the n replicas
#: that each derive it.  Keys are (client_id, req_id, index) ints.
_coin_ids = hashing.Memo()
#: Result-row memo, keyed (client_id, req_id, result value): the block row
#: ``(client_id, req_id, repr(result), digest)``, born with the digest it
#: ends in and handed to every replica that derives the same result.
_result_rows = hashing.Memo()
_COUNTERS = hashing.CACHE_COUNTERS


def coin_id(client_id: int, req_id: int, index: int) -> str:
    """Deterministic coin identifier: any replica derives the same ids —
    memoized, since all n replicas execute every transaction."""
    key = (client_id, req_id, index)
    cached = _coin_ids.get(key)
    if cached is not None:
        _COUNTERS["digest_cache_hits"] += 1
        return cached
    return _coin_ids.add(
        key, hash_obj(("coin", client_id, req_id, index)).hex()[:32])


class SmartCoin(Application):
    """The UTXO state machine."""

    def __init__(self, minters: Iterable[str] = (),
                 synthetic_state_bytes: int = 0):
        #: coin id -> (owner address, value)
        self.coins: dict[str, tuple[str, int]] = {}
        self.minters: set[str] = set(minters)
        #: Extra bytes charged to snapshots to emulate large states
        #: (Figure 7's 1 GB) without materializing millions of dict entries.
        self.synthetic_state_bytes = synthetic_state_bytes
        self.minted_total = 0
        self.spent_total = 0
        self.rejected = 0
        #: Cross-shard state (all zero/empty in single-shard deployments,
        #: which keeps snapshots and state digests byte-identical to the
        #: pre-sharding format — see :meth:`snapshot`).
        #: Transfer ids already minted on this shard (each exactly once).
        self.redeemed: set[str] = set()
        #: Value burned by xlock (left this shard) / minted by xmint
        #: (arrived on this shard) — the conservation ledger.
        self.xlock_value_out = 0
        self.xmint_value_in = 0
        #: Stateless certificate validator, installed by the sharded
        #: deployment (``None`` = this shard accepts no transfers).
        self.transfer_verifier: Any = None
        #: Observability hook ``(kind, **fields)`` for cert-redeemed /
        #: cert-rejected events, installed per node by the harness.
        self.event_hook: Any = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, request: ClientRequest) -> ExecutionResult:
        result, row = self._execute(request)
        return result, row[3]

    def execute_rows(self, batch: list[ClientRequest]
                     ) -> tuple[dict, tuple[tuple, ...]]:
        results: dict = {}
        rows: dict = {}
        for request in batch:
            result, row = self._execute(request)
            key = request.key
            results[key] = (result, row[3])
            rows[key] = row
        return results, tuple(rows.values())

    def _execute(self, request: ClientRequest) -> tuple[Any, tuple]:
        """Apply one operation; returns (result, its result row)."""
        op = request.op
        kind = op[0]
        if kind == "mint":
            result = self._mint(request, op)
        elif kind == "spend":
            result = self._spend(request, op)
        elif kind == "xlock":
            result = self._xlock(request, op)
        elif kind == "xmint":
            result = self._xmint(request, op)
        elif kind == "balance":
            result = self.balance(op[1])
        else:
            result = ("error", f"unknown transaction type {kind!r}")
        # Memoized like coin_id: every replica produces this exact row.
        # The memo key is the result *value* (cheaper to hash than to
        # repr), so a divergent replica still gets a different row for the
        # same request; the digest bytes still cover repr(result).
        client_id, req_id = request.client_id, request.req_id
        key = (client_id, req_id, result)
        row = _result_rows.get(key)
        if row is None:
            text = repr(result)
            return result, _result_rows.add(key, (
                client_id, req_id, text,
                hash_obj(("sc", client_id, req_id, text))))
        _COUNTERS["digest_cache_hits"] += 1
        return result, row

    def conflict_keys(self, request: ClientRequest):
        """UTXO footprints for the parallel-execution scheduler.

        Coin ids are derivable *before* execution (``coin_id`` is a pure
        function of client, request and output index), so mints and spends
        declare exact write sets; two operations touching disjoint coins
        commute.  Commutative aggregates (``minted_total``, rejection
        counters) are deliberately excluded — execution itself still runs
        in sequence order, the sets only shape the timing model.  Ops whose
        footprint needs execution-time state (balance scans the whole coin
        map, xmint depends on certificate verification) return None and are
        scheduled as barriers.
        """
        op = request.op
        kind = op[0]
        client_id, req_id = request.client_id, request.req_id
        if kind == "spend":
            writes = tuple(op[2]) + tuple(
                coin_id(client_id, req_id, i) for i in range(len(op[3])))
            return ((), writes)
        if kind == "mint":
            return ((), tuple(coin_id(client_id, req_id, i)
                              for i in range(len(op[2]))))
        if kind == "xlock":
            return ((), tuple(op[2]))
        return None

    def _mint(self, request: ClientRequest, op: tuple) -> Any:
        _, issuer, outputs = op
        if issuer not in self.minters:
            self.rejected += 1
            return ("error", "issuer is not authorized to mint")
        coins = self.coins
        client_id, req_id = request.client_id, request.req_id
        if len(outputs) == 1:
            # The evaluation mints one coin per MINT; skip the loop.
            value = outputs[0][0]
            if value <= 0:
                self.rejected += 1
                return ("error", "mint value must be positive")
            cid = coin_id(client_id, req_id, 0)
            coins[cid] = (issuer, value)
            self.minted_total += value
            return ("minted", (cid,))
        created = []
        for index, (value, _nonce) in enumerate(outputs):
            if value <= 0:
                self.rejected += 1
                return ("error", "mint value must be positive")
            cid = coin_id(client_id, req_id, index)
            coins[cid] = (issuer, value)
            created.append(cid)
            self.minted_total += value
        return ("minted", tuple(created))

    def _spend(self, request: ClientRequest, op: tuple) -> Any:
        _, issuer, inputs, outputs = op
        coins = self.coins
        if len(inputs) == 1 and len(outputs) == 1:
            # The evaluation's SPENDs are single-input/single-output
            # (Section IV-A); this straight-line path keeps the exact error
            # semantics and ordering of the general loop below.
            cid = inputs[0]
            coin = coins.get(cid)
            if coin is None:
                self.rejected += 1
                return ("error", f"coin {cid} does not exist (double spend?)")
            owner, value = coin
            if owner != issuer:
                self.rejected += 1
                return ("error", f"coin {cid} is not owned by the issuer")
            _recipient, amount = outputs[0]
            if amount != value:
                self.rejected += 1
                return ("error", "inputs and outputs do not balance")
            if amount <= 0:
                self.rejected += 1
                return ("error", "output amounts must be positive")
            del coins[cid]
            new_cid = coin_id(request.client_id, request.req_id, 0)
            # The op's own (recipient, amount) pair: one tuple for all n
            # replicas' coin maps instead of an equal one each.
            coins[new_cid] = outputs[0]
            self.spent_total += value
            return ("spent", (new_cid,))
        total_in = 0
        for cid in inputs:
            coin = coins.get(cid)
            if coin is None:
                self.rejected += 1
                return ("error", f"coin {cid} does not exist (double spend?)")
            owner, value = coin
            if owner != issuer:
                self.rejected += 1
                return ("error", f"coin {cid} is not owned by the issuer")
            total_in += value
        if len(outputs) == 1:
            # The evaluation's SPENDs are single-input/single-output; skip
            # the generator machinery for that shape.
            total_out = outputs[0][1]
            bad_amount = total_out <= 0
        else:
            total_out = sum(amount for _, amount in outputs)
            bad_amount = any(amount <= 0 for _, amount in outputs)
        if total_out != total_in:
            self.rejected += 1
            return ("error", "inputs and outputs do not balance")
        if bad_amount:
            self.rejected += 1
            return ("error", "output amounts must be positive")
        for cid in inputs:
            del coins[cid]
        client_id, req_id = request.client_id, request.req_id
        created = []
        for index, output in enumerate(outputs):
            cid = coin_id(client_id, req_id, index)
            coins[cid] = output
            created.append(cid)
        self.spent_total += total_in
        return ("spent", tuple(created))

    # ------------------------------------------------------------------
    # Cross-shard transfers (two-phase: lock-and-burn, then mint)
    # ------------------------------------------------------------------
    def _xlock(self, request: ClientRequest, op: tuple) -> Any:
        from repro.ledger.xshard import transfer_id

        _, issuer, inputs, dest_shard, recipient = op
        coins = self.coins
        total_in = 0
        for cid in inputs:
            coin = coins.get(cid)
            if coin is None:
                self.rejected += 1
                return ("error", f"coin {cid} does not exist (double spend?)")
            owner, value = coin
            if owner != issuer:
                self.rejected += 1
                return ("error", f"coin {cid} is not owned by the issuer")
            total_in += value
        if total_in <= 0:
            self.rejected += 1
            return ("error", "nothing to lock")
        if not isinstance(dest_shard, int) or dest_shard < 0:
            self.rejected += 1
            return ("error", "invalid destination shard")
        for cid in inputs:
            del coins[cid]
        self.xlock_value_out += total_in
        xfer_id = transfer_id(request.client_id, request.req_id)
        # The repr of this result is what the destination shard's verifier
        # parses out of the transfer certificate; every field it needs to
        # mint — the transfer id, its own shard number, the value and the
        # recipient — is committed under the block's result Merkle root.
        return ("xlocked", xfer_id, dest_shard, total_in, recipient)

    def _xmint(self, request: ClientRequest, op: tuple) -> Any:
        _, _issuer, cert_record = op
        verifier = self.transfer_verifier
        if verifier is None:
            self.rejected += 1
            return self._reject_cert("this shard accepts no transfers",
                                     xfer="?")
        verdict = verifier.verify(cert_record)
        if verdict[0] == "error":
            self.rejected += 1
            return self._reject_cert(verdict[1], xfer="?")
        _tag, xfer_id, _dest_shard, value, recipient = verdict
        if xfer_id in self.redeemed:
            self.rejected += 1
            return self._reject_cert("transfer certificate already redeemed",
                                     xfer=xfer_id, replay=True)
        cid = coin_id(request.client_id, request.req_id, 0)
        self.coins[cid] = (recipient, value)
        self.redeemed.add(xfer_id)
        self.xmint_value_in += value
        if self.event_hook is not None:
            self.event_hook("cert-redeemed", xfer=xfer_id, value=value)
        return ("xminted", (cid,), xfer_id, value)

    def _reject_cert(self, reason: str, xfer: str,
                     replay: bool = False) -> tuple:
        if self.event_hook is not None:
            self.event_hook("cert-rejected", xfer=xfer, reason=reason,
                            replay=replay)
        return ("error", reason)

    # ------------------------------------------------------------------
    # Queries (used by examples and tests, not part of consensus)
    # ------------------------------------------------------------------
    def balance(self, address: str) -> int:
        return sum(value for owner, value in self.coins.values()
                   if owner == address)

    def coins_of(self, address: str) -> list[str]:
        return [cid for cid, (owner, _) in self.coins.items()
                if owner == address]

    def total_value(self) -> int:
        return sum(value for _, value in self.coins.values())

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _has_cross_shard_state(self) -> bool:
        return bool(self.redeemed or self.xlock_value_out
                    or self.xmint_value_in)

    def snapshot(self) -> tuple[Any, int]:
        nbytes = max(64, len(self.coins) * BYTES_PER_COIN
                     + self.synthetic_state_bytes)
        state = (dict(self.coins), frozenset(self.minters),
                 self.minted_total, self.spent_total)
        # Cross-shard bookkeeping extends the snapshot only once it is
        # non-empty: single-shard runs keep the pre-sharding 4-tuple format
        # byte-for-byte (state-transfer wire bytes, digests, traces).
        if self._has_cross_shard_state():
            state = state + (frozenset(self.redeemed),
                             self.xlock_value_out, self.xmint_value_in)
            nbytes += 40 * len(self.redeemed)
        return state, nbytes

    def install_snapshot(self, snapshot: Any) -> None:
        coins, minters, minted, spent = snapshot[:4]
        self.coins = dict(coins)
        self.minters = set(minters)
        self.minted_total = minted
        self.spent_total = spent
        if len(snapshot) > 4:
            redeemed, lock_out, mint_in = snapshot[4:]
            self.redeemed = set(redeemed)
            self.xlock_value_out = lock_out
            self.xmint_value_in = mint_in
        else:
            self.redeemed = set()
            self.xlock_value_out = 0
            self.xmint_value_in = 0

    def state_digest(self) -> bytes:
        base = (sorted(self.coins.items()), sorted(self.minters),
                self.minted_total, self.spent_total)
        if self._has_cross_shard_state():
            base = base + (sorted(self.redeemed), self.xlock_value_out,
                           self.xmint_value_in)
        return hash_obj(base)


@dataclass
class Wallet:
    """Client-side helper building properly-sized SMaRtCoin operations.

    Tracks the coins a client owns (from transaction results) so workloads
    can chain MINT → SPEND like the paper's two-phase methodology.
    """

    address: str
    owned: list[tuple[str, int]] = field(default_factory=list)  # (coin id, value)
    _nonce: itertools.count = field(default_factory=lambda: itertools.count(1))

    def mint_op(self, value: int, count: int = 1) -> tuple:
        outputs = tuple((value, next(self._nonce)) for _ in range(count))
        return ("mint", self.address, outputs)

    def spend_op(self, coin: tuple[str, int], recipient: str) -> tuple:
        cid, value = coin
        return ("spend", self.address, (cid,), ((recipient, value),))

    def xlock_op(self, coin: tuple[str, int], dest_shard: int,
                 recipient: str) -> tuple:
        cid, _value = coin
        return ("xlock", self.address, (cid,), dest_shard, recipient)

    def xmint_op(self, cert_record: tuple) -> tuple:
        return ("xmint", self.address, cert_record)

    def note_result(self, op: tuple, result: Any) -> None:
        """Update owned coins from an executed operation's result."""
        if not isinstance(result, tuple) or not result:
            return
        status = result[0]
        if status == "minted" and op[0] == "mint":
            for cid, (value, _nonce) in zip(result[1], op[2]):
                self.owned.append((cid, value))
        elif status == "spent" and op[0] == "spend":
            spent_ids = set(op[2])
            self.owned = [c for c in self.owned if c[0] not in spent_ids]
        elif status == "xlocked" and op[0] == "xlock":
            locked_ids = set(op[2])
            self.owned = [c for c in self.owned if c[0] not in locked_ids]
        elif status == "xminted" and op[0] == "xmint":
            # ("xminted", (coin_id,), xfer_id, value)
            self.owned.append((result[1][0], result[3]))

    def take_coin(self) -> tuple[str, int] | None:
        return self.owned.pop() if self.owned else None
