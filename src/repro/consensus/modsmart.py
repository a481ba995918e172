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
from repro.consensus.messages import AcceptMsg, ProposeMsg, WriteMsg
from repro.crypto.hashing import hash_obj
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.requests import ClientRequest
    from repro.smr.views import View

__all__ = ["ModSmartEngine"]


class ModSmartEngine(ConsensusEngine):
    """Three-round VP-Consensus (PROPOSE / WRITE / signed-ACCEPT)."""

    name = "modsmart"
    vote_phases = {WriteMsg: "write", AcceptMsg: "accept"}
    #: Instances tally independently (per-cid ConsensusInstance objects),
    #: so the protocol itself places no bound on concurrent instances; 16
    #: is a sanity cap matching BFT-SMART's pending-request bookkeeping.
    max_pipeline = 16

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
        replica.runtime.register_handler(WriteMsg, self._on_write)
        replica.runtime.register_handler(AcceptMsg, self._on_accept)

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

    # ------------------------------------------------------------------
    # Synchronization-phase hook
    # ------------------------------------------------------------------
    def adopt_sync(self, cid: int, regency: int,
                   batch: "list[ClientRequest]", batch_hash: bytes) -> None:
        instance = self._instance(cid)
        if instance.on_propose(regency, batch, batch_hash):
            self.replica.broadcast_view(
                WriteMsg(cid=cid, regency=regency, batch_hash=batch_hash))

    # ------------------------------------------------------------------
    # Fault-injection hooks
    # ------------------------------------------------------------------
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
    # Vote rounds (verbatim from the pre-engine replica)
    # ------------------------------------------------------------------
    def _new_instance(self, cid: int) -> ConsensusInstance:
        replica = self.replica
        observer = self._phase_event if replica.runtime.observing else None
        return ConsensusInstance(cid, replica.quorum, observer=observer)

    def _on_proposal(self, instance: ConsensusInstance,
                     msg: ProposeMsg) -> None:
        replica = self.replica
        if instance.on_propose(msg.regency, msg.batch, msg.batch_hash):
            if replica.active:
                self._trace_vote(msg.cid)
                replica.broadcast_view(WriteMsg(
                    cid=msg.cid, regency=msg.regency,
                    batch_hash=msg.batch_hash))
        # A lagging replica may already hold a quorum of ACCEPTs that was
        # waiting only for the batch itself.
        if (not instance.decided
                and instance.accept_count(msg.batch_hash) >= replica.quorum):
            instance.phase = Phase.DECIDED
            instance.decided_hash = msg.batch_hash
            self._decide(instance, instance.decision_proof())

    def _on_write(self, src: int, msg: WriteMsg) -> None:
        replica = self.replica
        if msg.cid <= replica.last_decided:
            return
        if msg.regency != replica.regency and replica.active:
            return
        instance = self._instance(msg.cid)
        if instance.on_write(src, msg.batch_hash) and replica.active:
            instance.record_accept_sent(msg.regency)
            self._sign_and_broadcast(AcceptMsg, "accept", msg.cid,
                                     msg.regency, msg.batch_hash)

    def _on_accept(self, src: int, msg: AcceptMsg) -> None:
        self._verify_then_tally(src, msg, "accept", self._count_accept)

    def _count_accept(self, src: int, msg: AcceptMsg) -> None:
        instance = self._instance(msg.cid)
        if instance.on_accept(src, msg.batch_hash, msg.signature):
            self._decide(instance, instance.decision_proof())


register_engine("modsmart", ModSmartEngine)
