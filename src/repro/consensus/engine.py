"""The consensus-engine seam: SMR above, interchangeable protocols below.

The paper's thesis is that the blockchain layer is independent of the
consensus module ("consensus is only the beginning").  This module makes
that independence an explicit, executable contract: everything above
consensus — request batching, decision sequencing, leader-change
synchronization, state transfer, the blockchain delivery layer, the
safety auditor — talks to a :class:`ConsensusEngine`, never to a concrete
protocol.

The base class owns every agreement mechanism that does not depend on how
votes are counted, once for all engines:

- the instance table and its lifecycle (delivery, state-transfer
  discard, crash);
- the leader path: broadcasting PROPOSE, and the leader / regency /
  unseen-request checks a replica applies before adopting one;
- proposals beyond the processing window: buffered, then drained
  iteratively once the replica catches up;
- the two crypto-pool patterns: sign a vote then broadcast it, verify a
  vote then tally it;
- building the :class:`~repro.smr.requests.Decision` handed to the
  replica, and the ``consensus-phase`` events;
- surrendering the vouched writeset on a regency change.

A concrete engine supplies only what its protocol decides:

- its **quorum policy** — the fault threshold and every quorum size are
  declared by the engine, not assumed by the stack, so that n = 3f+1
  protocols (Mod-SMaRt) and n = 5f−1 protocols (the fast-path engine)
  run under the same replica, synchronizer and blockchain layer;
- its vote rounds: the message types and handlers it registers in
  :meth:`~ConsensusEngine.attach`, the per-instance bookkeeping
  (``_new_instance``) and what a proposal does to it (``_on_proposal``);
- ``vote_phases``, the vote message types and their phase names;
- re-voting after a SYNC or a view change, and the fault-injection hooks.

The replica owns everything protocol-independent: request ingestion and
verification gating, the decision buffer and in-order delivery, crash /
recovery, keys, and the collaborator wiring.  Regency (leader) changes
stay in the :class:`~repro.smr.leaderchange.Synchronizer`, which reaches
the engine only through ``abandon_regency`` and ``adopt_sync``.

Engines register under a string key (:func:`register_engine`) so scenarios
and the bench CLI can select them by name: ``Scenario(engine="fastbft")``,
``python -m repro.bench --engine fastbft``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable

from repro.consensus.messages import ProposeMsg, batch_wire_size
from repro.crypto.hashing import hash_obj_cached
from repro.errors import ConsensusError, ReproError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - avoid the smr <-> consensus cycle
    from repro.smr.replica import ModSmartReplica
    from repro.smr.requests import ClientRequest
    from repro.smr.views import View

__all__ = [
    "ConsensusEngine",
    "EngineError",
    "ENGINES",
    "register_engine",
    "create_engine",
    "engine_names",
]


class EngineError(ReproError):
    """An engine key is unknown or an engine contract is violated."""


class ConsensusEngine(abc.ABC):
    """One replica's pluggable agreement protocol.

    Lifecycle: construct, then :meth:`attach` to exactly one replica (the
    engine registers its message handlers there).  After that the replica
    calls :meth:`propose` when it leads and has a batch; the engine calls
    ``replica.handle_decision(decision)`` whenever an instance decides —
    in any order; the replica sequences decisions by consensus id.

    Class attributes every engine must define:

    ``name``
        The registry key (``"modsmart"``, ``"fastbft"``).
    ``vote_phases``
        The engine's vote-carrying message types, in round order, mapped
        to their phase names.  The names (:attr:`phases`) are the valid
        vocabulary for fault-plan knobs such as the withhold-votes
        ``phases`` parameter — plans naming a phase the engine lacks are
        rejected at install time (no silent no-ops) — and
        :meth:`vote_phase_of` is what that behavior consults before
        dropping a message.
    ``max_pipeline``
        Largest consensus-instance window the engine supports running
        concurrently (DISPEL-style pipelining).  The replica proposes at
        most ``min(config.pipeline_depth, engine.max_pipeline)`` instances
        ahead of the last decision.  The default of 1 declares a strictly
        sequential engine; engines that can tally independent instances
        concurrently raise it.
    """

    name: str = ""
    vote_phases: dict[type, str] = {}
    max_pipeline: int = 1

    def __init__(self) -> None:
        self.replica: "ModSmartReplica | None" = None
        #: cid -> this engine's per-instance vote bookkeeping.
        self.instances: dict[int, Any] = {}
        #: Proposals beyond the processing window: cid -> (src, PROPOSE).
        self.future_proposals: dict[int, tuple[int, ProposeMsg]] = {}
        self._draining = False

    @property
    def phases(self) -> tuple[str, ...]:
        """Ordered names of the engine's vote phases."""
        return tuple(self.vote_phases.values())

    def vote_phase_of(self, msg_type: type) -> str | None:
        """The phase name a message type carries a vote for, or None."""
        return self.vote_phases.get(msg_type)

    # ------------------------------------------------------------------
    # Quorum policy (pure functions of the group size)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fault_threshold(self, n: int) -> int:
        """Failures tolerated in a group of ``n`` replicas."""

    @abc.abstractmethod
    def quorum(self, n: int) -> int:
        """Votes that decide an instance (and match client replies)."""

    def stop_quorum(self, n: int) -> int:
        """STOP votes that install a new regency (default 2f+1)."""
        return 2 * self.fault_threshold(n) + 1

    def cert_quorum(self, n: int) -> int:
        """Signatures in a block certificate (paper: ⌊(n+f+1)/2⌋ ≥ 2f+1)."""
        f = self.fault_threshold(n)
        return max(2 * f + 1, (n + f + 1) // 2)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, replica: "ModSmartReplica") -> None:
        """Bind to ``replica`` and register PROPOSE; engines extend this
        with their vote message types."""
        if self.replica is not None:
            raise EngineError(
                f"engine {self.name!r} is already attached to replica "
                f"{self.replica.id}")
        self.replica = replica
        replica.runtime.register_handler(ProposeMsg, self._on_propose)

    def propose(self, batch: "list[ClientRequest]",
                cid: int | None = None) -> None:
        """Leader path: start agreement on ``batch`` for ``cid`` (default
        ``last_decided + 1``).  A pipelining replica passes explicit cids
        beyond the head so several instances run concurrently."""
        from repro.smr.requests import batch_digest  # smr imports us
        replica = self.replica
        if cid is None:
            cid = replica.last_decided + 1
        batch_hash = batch_digest(batch)
        replica.inflight.update(r.key for r in batch)
        msg = ProposeMsg(cid=cid, regency=replica.regency, batch=batch,
                         batch_hash=batch_hash, size=batch_wire_size(batch))
        obs = replica.sim.obs
        if obs.trace_pipeline and replica.id == obs.pipeline_node:
            now = replica.sim.now
            obs.tracer.mark_cid(cid, "propose", now)
            for req in batch:
                if obs.trace_request(req.key, "batch", now):
                    obs.tracer.bind(req.key, cid)
        replica.broadcast_view(msg)

    def has_open_proposal(self, cid: int) -> bool:
        """True when a value is already being ordered for ``cid`` (the
        replica then must not propose again for it)."""
        instance = self.instances.get(cid)
        return instance is not None and instance.batch_hash is not None

    def on_delivered(self, cid: int) -> None:
        """``cid`` was delivered: drop its instance bookkeeping."""
        instance = self.instances.pop(cid, None)
        if instance is not None:
            self._retire(instance)

    @abc.abstractmethod
    def on_view_installed(self, new_view: "View") -> None:
        """A reconfiguration installed ``new_view``: re-arm undecided
        instances under the new membership, quorums and keys."""

    def on_crash(self) -> None:
        """The replica crashed: drop all volatile consensus state."""
        for instance in self.instances.values():
            self._retire(instance)
        self.instances.clear()
        self.future_proposals.clear()

    # ------------------------------------------------------------------
    # Per-instance bookkeeping
    # ------------------------------------------------------------------
    def _instance(self, cid: int):
        instance = self.instances.get(cid)
        if instance is None:
            instance = self.instances[cid] = self._new_instance(cid)
        return instance

    @abc.abstractmethod
    def _new_instance(self, cid: int):
        """Fresh vote bookkeeping for ``cid``.  It must expose ``cid``,
        ``batch``, ``batch_hash``, ``decided_hash``, ``writeset`` and
        ``reset_for_regency(regency)``."""

    def _retire(self, instance) -> None:
        """Release what an instance holds beyond its tallies (timers)
        when it is dropped; nothing by default."""

    def _phase_event(self, cid: int, phase: str,
                     batch_hash: bytes | None) -> None:
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("consensus-phase", cid=cid, phase=phase,
                      batch_hash=(batch_hash or b"").hex())

    # ------------------------------------------------------------------
    # Proposals: buffer beyond the window, check, hand to the protocol
    # ------------------------------------------------------------------
    def _on_propose(self, src: int, msg: ProposeMsg) -> None:
        replica = self.replica
        if msg.cid <= replica.last_decided:
            return
        if msg.cid > replica.last_decided + replica.pipeline_window:
            # Beyond the processing window (the next instance in sequential
            # mode): hold until this replica catches up.
            self.future_proposals[msg.cid] = (src, msg)
            replica.arm_gap_check()
            return
        self._process_propose(src, msg)

    def _process_propose(self, src: int, msg: ProposeMsg) -> None:
        replica = self.replica
        if src != replica.cv.leader(msg.regency):
            return  # not from the leader of that regency
        if msg.regency != replica.regency:
            return
        # Adopt requests we have not seen from stations yet (and verify them).
        unseen = [r for r in msg.batch if r.key not in replica.admitted]
        if unseen:
            replica.ingest_requests(unseen)
        self._on_proposal(self._instance(msg.cid), msg)

    @abc.abstractmethod
    def _on_proposal(self, instance, msg: ProposeMsg) -> None:
        """The current leader proposed ``msg.batch`` for ``instance``:
        record it, cast this replica's first vote, and decide if a quorum
        was only waiting for the batch."""

    def kick_pending(self) -> None:
        """Process every buffered proposal that now falls inside the
        processing window (the whole window at pipeline depth > 1; exactly
        ``last_decided + 1`` in sequential mode).

        Processing one may decide it at once — a lagging replica may
        already hold its vote quorum — and the decision kicks again
        through ``replica.handle_decision``.  That nested kick returns at
        once and this loop re-scans, so a catch-up over thousands of
        buffered proposals takes one frame, not one per proposal."""
        if self._draining:
            return
        replica = self.replica
        self._draining = True
        try:
            while True:
                limit = replica.last_decided + replica.pipeline_window
                eligible = sorted(c for c in self.future_proposals
                                  if c <= limit)
                if not eligible:
                    return
                for c in eligible:
                    pending = self.future_proposals.pop(c, None)
                    if pending is not None and c > replica.last_decided:
                        self._process_propose(*pending)
        finally:
            self._draining = False

    def earliest_buffered(self) -> int | None:
        """Lowest buffered future-proposal cid, or None (gap detection)."""
        return min(self.future_proposals) if self.future_proposals else None

    def discard_through(self, cid: int) -> None:
        """A state transfer installed through ``cid``: drop buffered
        proposals and instance bookkeeping at or below it (with pipelining
        several stale instances may be open at once)."""
        self.future_proposals = {
            c: p for c, p in self.future_proposals.items() if c > cid}
        for c in [c for c in self.instances if c <= cid]:
            self._retire(self.instances.pop(c))

    def _trace_vote(self, cid: int) -> None:
        """Pipeline trace: this replica casts its first vote for ``cid``."""
        replica = self.replica
        obs = replica.sim.obs
        if obs.trace_pipeline:
            obs.trace_cid(replica.id, cid, "write", replica.sim.now)

    # ------------------------------------------------------------------
    # Votes on the crypto pool, and decisions
    # ------------------------------------------------------------------
    def _sign_and_broadcast(self, msg_type: type, tag: str, cid: int,
                            regency: int, batch_hash: bytes) -> None:
        """Sign ``(tag, cid, batch_hash)`` on the crypto pool (it would
        block a protocol thread, not the state machine), then broadcast it
        as a ``msg_type`` vote."""
        replica = self.replica
        key = replica.consensus_key()
        # Memoized: every replica derives the same payload for this (cid,
        # hash) — once per simulation instead of once per replica per vote.
        payload = hash_obj_cached((tag, cid, batch_hash))

        def signed() -> None:
            if key.is_erased:
                # A view change rotated the keys while this job was queued;
                # the instance will be re-run under the new view.
                return
            replica.broadcast_view(msg_type(
                cid=cid, regency=regency, batch_hash=batch_hash,
                signature=key.sign(payload)))
        replica.charge_pool(replica.costs.crypto.sign_time, signed)

    def _verify_then_tally(self, src: int, msg, tag: str,
                           tally: Callable[[int, Any], None]) -> None:
        """Verify ``msg``'s signature over ``(tag, cid, batch_hash)`` on the
        crypto pool, then ``tally(src, msg)`` unless ``cid`` was decided
        meanwhile."""
        replica = self.replica
        if msg.cid <= replica.last_decided:
            return
        if msg.signature is None:
            return
        public = replica.keydir.lookup(replica.cv.view_id, src)
        if public is None:
            return
        payload = hash_obj_cached((tag, msg.cid, msg.batch_hash))

        def verified() -> None:
            if (not replica.registry.verify(public, payload, msg.signature)
                    or msg.cid <= replica.last_decided):
                return
            tally(src, msg)
        replica.charge_pool(replica.costs.crypto.verify_time, verified)

    def _decide(self, instance, proof: dict) -> None:
        """Hand ``instance``'s decided batch, with ``proof``, to the
        replica for sequencing."""
        from repro.smr.requests import Decision  # smr imports us
        replica = self.replica
        if instance.batch is None:
            raise ConsensusError(
                f"replica {replica.id} decided cid {instance.cid} "
                "without a batch")
        replica.handle_decision(Decision(
            cid=instance.cid,
            batch=instance.batch,
            proof=proof,
            batch_hash=instance.decided_hash or b"",
            regency=replica.regency,
            decided_at=replica.sim.now,
        ))

    # ------------------------------------------------------------------
    # Synchronization-phase hooks (leader change)
    # ------------------------------------------------------------------
    def abandon_regency(self, cid: int, regency: int):
        """A new regency installs while ``cid`` is pending: reset the
        instance's tallies for ``regency`` and return the writeset — the
        ``(regency, batch_hash, batch)`` this replica vouched for, or
        ``None`` — for the STOPDATA message."""
        instance = self.instances.get(cid)
        if instance is None:
            return None
        writeset = instance.writeset
        instance.reset_for_regency(regency)
        return writeset

    @abc.abstractmethod
    def adopt_sync(self, cid: int, regency: int,
                   batch: "list[ClientRequest]", batch_hash: bytes) -> None:
        """Adopt the new leader's SYNC re-proposal as if it were a fresh
        proposal (including this replica's first-round vote)."""

    # ------------------------------------------------------------------
    # Fault-injection hooks (Byzantine behaviors stay engine-agnostic)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def value_bearing_types(self) -> tuple[type, ...]:
        """Message types whose receipt reveals a value under agreement —
        what the equivocation behavior double-votes in response to."""

    @abc.abstractmethod
    def fabricate_votes(self, cid: int, regency: int,
                        batch_hash: bytes) -> list[Message]:
        """All of this replica's vote messages for ``batch_hash`` —
        signed where the protocol signs — regardless of what it already
        voted.  Exactly what an honest replica may never produce; used by
        the equivocation behavior to attack any engine's quorums."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: String key -> engine factory.  Populated by the concrete engine
#: modules at import time (see repro/consensus/__init__.py).
ENGINES: dict[str, Callable[[], ConsensusEngine]] = {}


def register_engine(key: str,
                    factory: Callable[[], ConsensusEngine]) -> None:
    """Register an engine factory under ``key`` (last write wins, so tests
    can shadow built-ins)."""
    ENGINES[key] = factory


def create_engine(engine: "str | ConsensusEngine | None") -> ConsensusEngine:
    """Resolve ``engine`` — a registry key, an instance (returned as-is),
    or None for the default ``"modsmart"`` — into a fresh engine."""
    if engine is None:
        engine = "modsmart"
    if isinstance(engine, ConsensusEngine):
        return engine
    factory = ENGINES.get(engine)
    if factory is None:
        raise EngineError(
            f"unknown consensus engine {engine!r}; "
            f"registered engines: {', '.join(sorted(ENGINES))}")
    return factory()


def engine_names() -> list[str]:
    """Registered engine keys, sorted (CLI help and validation)."""
    return sorted(ENGINES)
