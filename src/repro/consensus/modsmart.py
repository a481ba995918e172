"""Mod-SMaRt's VP-Consensus repackaged as the default ConsensusEngine.

The protocol is unchanged from the pre-engine replica (Section II-C /
Figure 1 of the paper): PROPOSE carries the batch, WRITE echoes its hash,
ACCEPT is signed and a ⌈(n+f+1)/2⌉ quorum of ACCEPTs decides the instance
and forms the decision proof.  The per-instance vote bookkeeping stays in
:class:`~repro.consensus.instance.ConsensusInstance`.

Fault-free runs take exactly the code path the pre-engine replica took —
same hash-cache keys, same pool charges, same message and event order —
so event exports and bench results are byte-identical to the committed
baselines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consensus.engine import ConsensusEngine, register_engine
from repro.consensus.instance import ConsensusInstance, Phase
from repro.consensus.messages import (
    AcceptMsg,
    ProposeMsg,
    WriteMsg,
    batch_wire_size,
)
from repro.crypto.hashing import hash_obj, hash_obj_cached
from repro.errors import ConsensusError
from repro.net.message import Message
from repro.smr.requests import Decision, batch_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.requests import ClientRequest
    from repro.smr.views import View

__all__ = ["ModSmartEngine"]


class ModSmartEngine(ConsensusEngine):
    """Three-round VP-Consensus (PROPOSE / WRITE / signed-ACCEPT)."""

    name = "modsmart"
    phases = ("write", "accept")
    #: Instances tally independently (per-cid ConsensusInstance objects),
    #: so the protocol itself places no bound on concurrent instances; 16
    #: is a sanity cap matching BFT-SMART's pending-request bookkeeping.
    max_pipeline = 16

    def __init__(self) -> None:
        super().__init__()
        self.instances: dict[int, ConsensusInstance] = {}
        self.future_proposals: dict[int, tuple[int, ProposeMsg]] = {}

    # ------------------------------------------------------------------
    # Quorum policy: classic n = 3f+1 arithmetic
    # ------------------------------------------------------------------
    def fault_threshold(self, n: int) -> int:
        return (n - 1) // 3

    def quorum(self, n: int) -> int:
        """Byzantine dissemination quorum ⌈(n+f+1)/2⌉ ≥ 2f+1."""
        return (n + self.fault_threshold(n) + 2) // 2

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, replica) -> None:
        super().attach(replica)
        replica.runtime.register_handler(ProposeMsg, self._on_propose)
        replica.runtime.register_handler(WriteMsg, self._on_write)
        replica.runtime.register_handler(AcceptMsg, self._on_accept)

    def propose(self, batch: "list[ClientRequest]",
                cid: int | None = None) -> None:
        replica = self.replica
        if cid is None:
            cid = replica.last_decided + 1
        batch_hash = batch_digest(batch)
        replica.inflight.update(r.key for r in batch)
        msg = ProposeMsg(cid=cid, regency=replica.regency, batch=batch,
                         batch_hash=batch_hash, size=batch_wire_size(batch))
        replica.trace.emit(replica.sim.now, "propose", replica=replica.id,
                           cid=cid, batch=len(batch))
        obs = replica.sim.obs
        if obs.trace_pipeline and replica.id == obs.pipeline_node:
            now = replica.sim.now
            obs.tracer.mark_cid(cid, "propose", now)
            for req in batch:
                if obs.trace_request(req.key, "batch", now):
                    obs.tracer.bind(req.key, cid)
        replica.broadcast_view(msg)

    def has_open_proposal(self, cid: int) -> bool:
        instance = self.instances.get(cid)
        return instance is not None and instance.batch_hash is not None

    def on_delivered(self, cid: int) -> None:
        self.instances.pop(cid, None)

    def on_view_installed(self, new_view: "View") -> None:
        replica = self.replica
        members = set(new_view.members)
        quorum = self.quorum(new_view.n)
        for cid in list(self.instances):
            if cid <= replica.last_decided:
                continue
            # Old-view votes are void — their ACCEPT signatures used the
            # now-rotated consensus keys — so the tallies restart (the
            # proposed batch is kept).  Re-voting under the new view lets
            # the quorum re-form with the new membership and fresh keys.
            instance = self.instances[cid]
            instance.reset_for_view(quorum)
            if (instance.batch_hash is not None and not instance.decided
                    and replica.active and replica.id in members):
                replica.broadcast_view(WriteMsg(
                    cid=cid, regency=replica.regency,
                    batch_hash=instance.batch_hash))

    def on_crash(self) -> None:
        self.instances.clear()
        self.future_proposals.clear()

    # ------------------------------------------------------------------
    # Buffered out-of-order proposals
    # ------------------------------------------------------------------
    def kick_pending(self) -> None:
        replica = self.replica
        # Every buffered proposal that now falls inside the processing
        # window becomes eligible (the whole window at pipeline depth > 1;
        # exactly last_decided + 1 in sequential mode).  Processing one may
        # advance last_decided, so re-scan until a pass pops nothing.
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

    def earliest_buffered(self) -> int | None:
        return min(self.future_proposals) if self.future_proposals else None

    def discard_through(self, cid: int) -> None:
        self.future_proposals = {
            c: p for c, p in self.future_proposals.items() if c > cid}
        # Drop instance bookkeeping a state transfer made obsolete (with
        # pipelining several stale instances may be open at once).
        for c in [c for c in self.instances if c <= cid]:
            del self.instances[c]

    # ------------------------------------------------------------------
    # Synchronization-phase hooks
    # ------------------------------------------------------------------
    def abandon_regency(self, cid: int, regency: int):
        instance = self.instances.get(cid)
        if instance is None:
            return None
        writeset = instance.writeset
        instance.reset_for_regency(regency)
        return writeset

    def adopt_sync(self, cid: int, regency: int,
                   batch: "list[ClientRequest]", batch_hash: bytes) -> None:
        instance = self._instance(cid)
        if instance.on_propose(regency, batch, batch_hash):
            self.replica.broadcast_view(
                WriteMsg(cid=cid, regency=regency, batch_hash=batch_hash))

    # ------------------------------------------------------------------
    # Fault-injection hooks
    # ------------------------------------------------------------------
    def vote_phase_of(self, msg_type: type) -> str | None:
        return {WriteMsg: "write", AcceptMsg: "accept"}.get(msg_type)

    def value_bearing_types(self) -> tuple[type, ...]:
        return (ProposeMsg, WriteMsg)

    def fabricate_votes(self, cid: int, regency: int,
                        batch_hash: bytes) -> list[Message]:
        key = self.replica.consensus_key()
        if key.is_erased:
            return []
        signature = key.sign(hash_obj(("accept", cid, batch_hash)))
        return [
            WriteMsg(cid=cid, regency=regency, batch_hash=batch_hash),
            AcceptMsg(cid=cid, regency=regency, batch_hash=batch_hash,
                      signature=signature),
        ]

    # ------------------------------------------------------------------
    # Consensus message handling (verbatim from the pre-engine replica)
    # ------------------------------------------------------------------
    def _instance(self, cid: int) -> ConsensusInstance:
        instance = self.instances.get(cid)
        if instance is None:
            replica = self.replica
            observer = (self._consensus_event
                        if replica.runtime.observing else None)
            instance = ConsensusInstance(cid, replica.quorum,
                                         observer=observer)
            self.instances[cid] = instance
        return instance

    def _consensus_event(self, cid: int, phase: str,
                         batch_hash: bytes | None) -> None:
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("consensus-phase", cid=cid, phase=phase,
                      batch_hash=(batch_hash or b"").hex())

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
        instance = self._instance(msg.cid)
        if instance.on_propose(msg.regency, msg.batch, msg.batch_hash):
            if replica.active:
                write = WriteMsg(cid=msg.cid, regency=msg.regency,
                                 batch_hash=msg.batch_hash)
                obs = replica.sim.obs
                if obs.trace_pipeline:
                    obs.trace_cid(replica.id, msg.cid, "write",
                                  replica.sim.now)
                replica.broadcast_view(write)
        # A lagging replica may already hold a quorum of ACCEPTs that was
        # waiting only for the batch itself.
        if (not instance.decided
                and instance.accept_count(msg.batch_hash) >= replica.quorum):
            instance.phase = Phase.DECIDED
            instance.decided_hash = msg.batch_hash
            self._on_instance_decided(instance)

    def _on_write(self, src: int, msg: WriteMsg) -> None:
        replica = self.replica
        if msg.cid <= replica.last_decided:
            return
        if msg.regency != replica.regency and replica.active:
            return
        instance = self._instance(msg.cid)
        if instance.on_write(src, msg.batch_hash) and replica.active:
            self._send_accept(instance, msg)

    def _send_accept(self, instance: ConsensusInstance,
                     write: WriteMsg) -> None:
        replica = self.replica
        instance.record_accept_sent(write.regency)
        key = replica.consensus_key()
        # Memoized: every replica derives the same payload for this (cid,
        # hash) — once per simulation instead of once per replica per vote.
        payload = hash_obj_cached(("accept", write.cid, write.batch_hash))
        # Signing happens on the crypto pool (it would block a protocol
        # thread, not the state machine).
        def signed() -> None:
            if key.is_erased:
                # A view change rotated the keys while this job was queued;
                # the instance will be re-run under the new view.
                return
            signature = key.sign(payload)
            accept = AcceptMsg(cid=write.cid, regency=write.regency,
                               batch_hash=write.batch_hash,
                               signature=signature)
            replica.broadcast_view(accept)
        replica.charge_pool(replica.costs.crypto.sign_time, signed)

    def _on_accept(self, src: int, msg: AcceptMsg) -> None:
        replica = self.replica
        if msg.cid <= replica.last_decided:
            return
        if msg.signature is None:
            return
        public = replica.keydir.lookup(replica.cv.view_id, src)
        if public is None:
            return
        payload = hash_obj_cached(("accept", msg.cid, msg.batch_hash))
        # Verify on the pool, then tally.
        def verified() -> None:
            if not replica.registry.verify(public, payload, msg.signature):
                replica.trace.emit(replica.sim.now, "bad-accept-signature",
                                   replica=replica.id, src=src, cid=msg.cid)
                return
            if msg.cid <= replica.last_decided:
                return
            instance = self._instance(msg.cid)
            if instance.on_accept(src, msg.batch_hash, msg.signature):
                self._on_instance_decided(instance)
        replica.charge_pool(replica.costs.crypto.verify_time, verified)

    def _on_instance_decided(self, instance: ConsensusInstance) -> None:
        replica = self.replica
        if instance.batch is None:
            raise ConsensusError(
                f"replica {replica.id} decided cid {instance.cid} "
                "without a batch")
        decision = Decision(
            cid=instance.cid,
            batch=instance.batch,
            proof=instance.decision_proof(),
            batch_hash=instance.decided_hash or b"",
            regency=replica.regency,
            decided_at=replica.sim.now,
        )
        replica.handle_decision(decision)


register_engine("modsmart", ModSmartEngine)
