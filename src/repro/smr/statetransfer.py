"""State transfer: bringing recovered and joining replicas up to date.

Follows BFT-SMART's scheme (Section II-C2): the recovering replica probes
the group for the most recent decided consensus id, then asks one replica for
the state and ``f`` others for a hash of it — installing only when f+1
replies (one full + f hashes) match, so no coalition of f liars can poison
the recovery.  That holds because the hash is the delivery layer's
:meth:`~repro.smr.service.DeliveryLayer.package_digest`, a commitment to
*all* of the package: a package differing from the honest one anywhere — in
the last row of the last block as much as in the first — has another digest,
and f liars cannot make f+1 vouchers.

**The transfer ships the gap, not the chain.**  The request carries the
requester's verified chain head ``(block number, digest)``
(:meth:`~repro.smr.service.DeliveryLayer.transfer_base`); a server that
holds that very block answers with the blocks after it (a *delta*
package), anything else — a cold joiner, a base the server does not hold
or holds differently, a layer that keeps no chain — with its checkpoint +
suffix or snapshot package.  The choice is the server's, from what it
observes; every correct server makes the same one for the same request.

**The retry is a no-progress timer.**  It restarts the probe only after
``2 × request_timeout`` in which nothing moved: a filler chunk received or
an install being charged re-arms it, a rejected package does not.  Each
request round has an id that the servers echo, so chunks and hashes of a
superseded round — or arriving when no transfer is running, or for a
target this replica has already passed — are ignored.

Timing model: the sender serializes what it ships on the pool at
``state_serialize_bps`` and sends it in chunks (so consensus messages
interleave with the bulk transfer on its NIC instead of queueing behind one
gigantic message); the receiver pays an install cost for what it replays.
With the calibrated constants a 1 GB state takes ≈60 s end to end — the
green spots of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import LedgerError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.replica import ModSmartReplica

__all__ = [
    "StateTransferEngine",
    "StProbeMsg",
    "StInfoMsg",
    "StRequestMsg",
    "StChunkMsg",
    "StHashMsg",
]

#: Chunk size for bulk state shipping (bytes).
CHUNK_BYTES = 8 * 1024 * 1024


@dataclass
class StProbeMsg(Message):
    """Recovering replica → all: what is your last decided cid?"""

    size: int = field(default=32, kw_only=True)


@dataclass
class StInfoMsg(Message):
    last_decided: int = -1
    #: The sender's chain is self-verifiable (strong variant): a single
    #: full package from it can be trusted after standalone validation.
    self_verifiable: bool = False
    size: int = field(default=40, kw_only=True)


@dataclass
class StRequestMsg(Message):
    """Ask for the state up to an agreed consensus id."""

    want_full: bool = True
    up_to_cid: int = -1
    #: The requester's verified chain head ``(block number, digest)``, or
    #: None when it holds no chain; 40 more bytes on the wire.
    base: tuple[int, bytes] | None = None
    #: The requester's request round, echoed in every reply to it.
    transfer_id: int = 0
    size: int = field(default=48, kw_only=True)


@dataclass
class StChunkMsg(Message):
    """One chunk of a full state package; the final chunk carries the data."""

    seq: int = 0
    total: int = 1
    up_to_cid: int = -1
    final: bool = False
    package: Any = None
    digest: bytes = b""
    transfer_id: int = 0


@dataclass
class StHashMsg(Message):
    up_to_cid: int = -1
    digest: bytes = b""
    transfer_id: int = 0
    size: int = field(default=72, kw_only=True)


class StateTransferEngine:
    """Drives one state transfer at a time for its replica."""

    def __init__(self, replica: "ModSmartReplica"):
        self.replica = replica
        for msg_type, handler in ((StProbeMsg, self._on_probe),
                                  (StInfoMsg, self._on_info),
                                  (StRequestMsg, self._serve),
                                  (StChunkMsg, self._on_chunk),
                                  (StHashMsg, self._on_hash)):
            replica.runtime.register_handler(msg_type, handler)
        self._on_done: Callable[[int], None] | None = None
        self._infos: dict[int, tuple[int, bool]] = {}
        self._expect_self_verified = False
        self._full: tuple[int, Any, bytes] | None = None   # (cid, package, digest)
        self._hashes: dict[int, tuple[int, bytes]] = {}
        self._retry_timer = None
        #: Id of the current request round (see :class:`StRequestMsg`).
        self._round = 0
        self._probing = False
        #: An accepted package's install is being charged on the SM thread.
        self._installing = False
        # Statistics.
        self.transfers_completed = 0
        self.last_transfer_seconds = 0.0
        self._started_at = 0.0

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    @property
    def in_progress(self) -> bool:
        return self._on_done is not None

    def start(self, on_done: Callable[[int], None]) -> None:
        """Probe the view and fetch the state; ``on_done(cid)`` fires once the
        replica is up to date (immediately if it already is).

        If a transfer is already running, the new callback is chained onto
        the existing one and the probe restarts (fresher target)."""
        previous = self._on_done
        if previous is not None:
            def chained(cid: int, _prev=previous, _new=on_done) -> None:
                _prev(cid)
                _new(cid)
            on_done = chained
        self._on_done = on_done
        self._probe()

    def _probe(self) -> None:
        """Open a request round: ask the view how far it has decided."""
        replica = self.replica
        self._round += 1
        self._infos.clear()
        self._full = None
        self._hashes.clear()
        self._probing = True
        self._started_at = replica.sim.now
        rt = replica.runtime
        if rt.observing:
            rt.notify("state-transfer", phase="start",
                      from_cid=replica.last_decided)
        peers = [m for m in replica.cv.members if m != replica.id]
        if not peers:
            self._finish(replica.last_decided)
            return
        replica.runtime.broadcast(peers, StProbeMsg())
        self._arm_retry()

    def _arm_retry(self) -> None:
        replica = self.replica
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self._retry_timer = replica.sim.schedule(
            replica.config.request_timeout * 2, replica.guard(self._retry))

    def _retry(self) -> None:
        """Nothing moved for a whole retry period: probe again — unless an
        install is being charged on the SM thread, which cannot fail to
        progress and so re-arms the timer."""
        self._retry_timer = None
        if self._on_done is None:
            return
        if self._installing:
            self._arm_retry()
        else:
            self._probe()

    def _request(self, dst: int, want_full: bool, target: int) -> None:
        base = self.replica.delivery.transfer_base()
        self.replica.send(dst, StRequestMsg(
            want_full=want_full, up_to_cid=target, base=base,
            transfer_id=self._round, size=48 if base is None else 88))

    def _on_info(self, src: int, msg: StInfoMsg) -> None:
        replica = self.replica
        if not self._probing:
            return
        self._infos[src] = (msg.last_decided, msg.self_verifiable)
        if len(self._infos) < replica.f + 1:
            return
        # Standard target: the highest cid vouched for by >= f+1 repliers.
        values = sorted((cid for cid, _ in self._infos.values()), reverse=True)
        target = values[replica.f]
        # Self-verifiable chains (strong variant) can be adopted from a
        # single source: certificates carry their own proof of persistence.
        sv_peers = {p: cid for p, (cid, sv) in self._infos.items() if sv}
        sv_target = max(sv_peers.values(), default=-1)
        self._expect_self_verified = sv_target > target
        if self._expect_self_verified:
            target = sv_target
        if target <= replica.last_decided:
            # Nothing to fetch, but a layer that cannot self-verify drops
            # what the group does not support.
            resume = replica.delivery.reconcile_local(target)
            if resume < replica.last_decided:
                replica.stand_at(resume)
            self._finish(replica.last_decided)
            return
        if self._expect_self_verified:
            self._probing = False
            source = min(p for p, cid in sv_peers.items() if cid == target)
            self._request(source, True, target)
            return
        holders = sorted(p for p, (cid, _) in self._infos.items()
                         if cid >= target)
        if len(holders) < replica.f + 1:
            return  # wait for more probes (or the retry timer)
        self._probing = False
        # Prefer a non-leader as the full-state source: serving bulk state
        # perturbs the sender, and perturbing the leader stalls ordering.
        leader = replica.cv.leader(replica.regency)
        non_leaders = [p for p in holders if p != leader]
        full_source = (non_leaders[0] if non_leaders else holders[0])
        self._request(full_source, True, target)
        for other in holders[1:replica.f + 1]:
            self._request(other, False, target)

    def _stale(self, msg: "StChunkMsg | StHashMsg") -> bool:
        """A reply nobody is waiting for: no transfer is running (or its
        install is already under way), the request round it answers was
        superseded, or this replica has passed its target meanwhile."""
        return (self._on_done is None or self._installing
                or msg.transfer_id != self._round
                or msg.up_to_cid <= self.replica.last_decided)

    def _on_chunk(self, src: int, msg: StChunkMsg) -> None:
        if self._stale(msg):
            return
        if not msg.final:
            # Bulk filler chunk: only its bandwidth matters — and that the
            # transfer is moving.
            self._arm_retry()
            return
        self._full = (msg.up_to_cid, msg.package, msg.digest)
        self._maybe_install()

    def _on_hash(self, src: int, msg: StHashMsg) -> None:
        if self._stale(msg):
            return
        self._hashes[src] = (msg.up_to_cid, msg.digest)
        self._maybe_install()

    def _maybe_install(self) -> None:
        replica = self.replica
        delivery = replica.delivery
        if self._full is None:
            return
        cid, package, digest = self._full
        if self._expect_self_verified:
            # One untrusted source suffices if the package proves itself.
            accepted = delivery.verify_package(package)
        else:
            matching = sum(1 for (c, d) in self._hashes.values()
                           if c == cid and d == digest)
            # Full reply + f matching hashes = f+1 vouchers.
            if matching < replica.f:
                return
            # ... for the package actually received, not for what its
            # sender says it hashes to.
            try:
                accepted = delivery.package_digest(package) == digest
            except LedgerError:  # too malformed to have a digest
                accepted = False
        if not accepted:
            self._reject(cid)
            return
        self._installing = True
        replica.charge_sm(delivery.install_cost(package), self._install,
                          cid, package)

    def _reject(self, cid: int) -> None:
        """Drop a bad package.  It is no progress: the retry timer, left
        as it is, restarts the probe."""
        self._full = None
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("state-transfer", phase="rejected", cid=cid)

    def _install(self, cid: int, package: Any) -> None:
        replica = self.replica
        self._installing = False
        self._full = None
        if cid <= replica.last_decided:
            return  # ordering passed the target while the install waited
        try:
            replica.delivery.install_state(package)
        except LedgerError:
            self._reject(cid)  # does not extend this replica's chain
            return
        replica.stand_at(cid)
        if replica.delivery.can_self_verify():
            # Blocks that missed their certificate while this replica was
            # behind may be waiting on exactly its PERSIST vote (same as
            # the recover() path).
            replica.sim.call_soon(replica.delivery.repersist_missing)
        self._finish(cid)

    def _finish(self, cid: int) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._probing = False
        self.transfers_completed += 1
        self.last_transfer_seconds = self.replica.sim.now - self._started_at
        done, self._on_done = self._on_done, None
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("state-transfer", phase="done", cid=cid,
                      seconds=self.last_transfer_seconds)
        if done is not None:
            done(cid)
        self.replica._rearm_proposer(kick=True)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def _on_probe(self, src: int, msg: StProbeMsg) -> None:
        self.replica.send(src, StInfoMsg(
            last_decided=self.replica.last_decided,
            self_verifiable=self.replica.delivery.can_self_verify()))

    def _serve(self, src: int, msg: StRequestMsg) -> None:
        replica = self.replica
        cid = msg.up_to_cid if msg.up_to_cid >= 0 else replica.last_decided
        cid = min(cid, replica.last_decided)
        # Serve only once this replica has *processed* (executed) through
        # the agreed cid — otherwise two servers' packages for the same
        # target would differ by their delivery-pipeline lag.
        if replica.delivery.executed_cid < cid:
            replica.sim.schedule(0.02, replica.guard(self._serve), src, msg)
            return
        package, nbytes = replica.delivery.capture_state(up_to_cid=cid,
                                                         base=msg.base)
        digest = replica.delivery.package_digest(package)
        transfer = msg.transfer_id
        if not msg.want_full:
            # Hash-only replies are cheap: the digest is composed of
            # commitments the replica already holds (the PBFT
            # optimization), so no serialization charge.
            replica.send(src, StHashMsg(up_to_cid=cid, digest=digest,
                                        transfer_id=transfer))
            return
        total = max(1, -(-nbytes // CHUNK_BYTES))
        serialize_per_chunk = (nbytes / total) / replica.costs.state_serialize_bps

        def send_chunk(seq: int) -> None:
            if replica.crashed:
                return
            final = seq == total - 1
            chunk = StChunkMsg(
                seq=seq, total=total, up_to_cid=cid, final=final,
                package=package if final else None,
                digest=digest if final else b"",
                transfer_id=transfer,
                size=min(CHUNK_BYTES, max(1, nbytes - seq * CHUNK_BYTES)),
            )
            replica.send(src, chunk)
            if not final:
                # Serialization runs on background threads (the pool); the
                # state machine keeps executing — the paper observes only a
                # "slightly smaller" throughput while a replica serves state.
                replica.charge_pool(serialize_per_chunk, send_chunk, seq + 1)

        replica.charge_pool(serialize_per_chunk, send_chunk, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._on_done = None
        self._probing = False
        self._installing = False
        self._infos.clear()
        self._full = None
        self._hashes.clear()
