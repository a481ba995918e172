"""FastBFT: a 2-round good-case engine at n = 5f−1.

The second :class:`~repro.consensus.engine.ConsensusEngine` — the proof
that the stack above consensus is protocol-agnostic.  It reproduces the
good-case pattern of Abraham, Nayak, Ren & Xiang ("Good-case Latency of
Byzantine Broadcast", PAPERS.md): with n ≥ 5f−1 replicas, agreement can
finish in two message rounds instead of Mod-SMaRt's three.

Normal case
-----------
1. The leader broadcasts PROPOSE (the batch).
2. Every replica broadcasts one signed FAST-VOTE for the first proposal
   it sees from the current leader.
3. A **fast quorum** qf = ⌈(n+3f−1)/2⌉ of matching votes decides; the
   vote signatures are the decision proof.

Slow path
---------
When votes arrive but the fast quorum cannot form (a withholder, a slow
link), any replica holding a **classic quorum** qs = ⌈(n+f+1)/2⌉ of
matching votes waits a short grace period and then broadcasts a signed
FAST-COMMIT; qs matching commits decide (one extra round, PBFT-style).
If not even the classic quorum forms — an equivocating leader splitting
the correct replicas — nothing decides and the ordinary Mod-SMaRt
synchronization phase (STOP/STOPDATA/SYNC, unchanged) replaces the
leader; the writeset reported in STOPDATA is the value this replica
fast-voted for.

Safety sketch (why these quorums)
---------------------------------
With f = ⌊(n+1)/5⌋ (so n ≥ 5f−1 with equality for the showcase sizes):

- two fast quorums intersect in ≥ 2·qf − n ≥ 3f−1 > f replicas, so in a
  correct one — and a correct replica fast-votes one value per instance;
- a fast and a classic quorum intersect in ≥ qf + qs − n ≥ 2f > f;
- two classic quorums intersect in ≥ f+1 > f (the usual argument).

Hence no two conflicting decisions, on either path, in the same regency;
across regencies the synchronization phase re-proposes the highest
vouched writeset exactly as for Mod-SMaRt.  For n=4 (f=1) the fast and
classic quorums coincide at 3; n=9 (f=2) shows the split: qf=7, qs=6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consensus.engine import ConsensusEngine, register_engine
from repro.consensus.messages import (
    FastCommitMsg,
    FastVoteMsg,
    ProposeMsg,
    batch_wire_size,
)
from repro.crypto.hashing import hash_obj, hash_obj_cached
from repro.crypto.keys import Signature
from repro.net.message import Message
from repro.smr.requests import Decision, batch_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.requests import ClientRequest
    from repro.smr.views import View

__all__ = ["FastBftEngine", "FastInstance"]

#: Grace period before falling back to the slow path once a classic (but
#: not fast) quorum of votes is held — long enough for straggler votes of
#: a healthy round, short against the request timeout.
SLOW_PATH_GRACE = 0.002


class FastInstance:
    """Vote/commit bookkeeping for one consensus id at one replica."""

    def __init__(self, cid: int):
        self.cid = cid
        self.regency: int | None = None
        self.batch: "list[ClientRequest] | None" = None
        self.batch_hash: bytes | None = None
        #: hash -> {replica: signature} for each round.
        self.votes: dict[bytes, dict[int, Signature]] = {}
        self.commits: dict[bytes, dict[int, Signature]] = {}
        self.voted = False
        self.committed = False
        self.decided = False
        self.decided_hash: bytes | None = None
        #: (regency, hash, batch) this replica fast-voted for (STOPDATA).
        self.writeset: tuple[int, bytes, list] | None = None
        self.slow_timer = None

    def cancel_timer(self) -> None:
        if self.slow_timer is not None:
            self.slow_timer.cancel()
            self.slow_timer = None

    def reset_for_regency(self, regency: int) -> None:
        """Leader change: tallies restart, the writeset is preserved."""
        self.regency = regency
        self.batch = None
        self.batch_hash = None
        self.votes.clear()
        self.commits.clear()
        self.voted = False
        self.committed = False
        self.cancel_timer()

    def reset_for_view(self) -> None:
        """View change: old-view signatures are void; the batch is kept."""
        self.votes.clear()
        self.commits.clear()
        self.voted = False
        self.committed = False
        self.cancel_timer()


class FastBftEngine(ConsensusEngine):
    """Two-round fast path at n = 5f−1 with a PBFT-style slow path."""

    name = "fastbft"
    phases = ("vote", "commit")
    #: Per-cid FastInstance tallies are independent, so concurrent
    #: instances compose exactly as in Mod-SMaRt; the same sanity cap.
    max_pipeline = 16

    def __init__(self) -> None:
        super().__init__()
        self.instances: dict[int, FastInstance] = {}
        self.future_proposals: dict[int, tuple[int, ProposeMsg]] = {}
        # Statistics (surface in bench metrics).
        self.fast_decisions = 0
        self.slow_decisions = 0

    # ------------------------------------------------------------------
    # Quorum policy: n = 5f−1 arithmetic
    # ------------------------------------------------------------------
    def fault_threshold(self, n: int) -> int:
        """Largest f with n ≥ 5f−1 (and always n ≥ 3f+1)."""
        return min((n + 1) // 5, (n - 1) // 3)

    def quorum(self, n: int) -> int:
        """Classic quorum ⌈(n+f+1)/2⌉ — slow path, replies, certificates."""
        return (n + self.fault_threshold(n) + 2) // 2

    def fast_quorum(self, n: int) -> int:
        """Fast quorum ⌈(n+3f−1)/2⌉ — two-round decisions."""
        return (n + 3 * self.fault_threshold(n)) // 2

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, replica) -> None:
        super().attach(replica)
        replica.runtime.register_handler(ProposeMsg, self._on_propose)
        replica.runtime.register_handler(FastVoteMsg, self._on_vote)
        replica.runtime.register_handler(FastCommitMsg, self._on_commit)

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
        instance = self.instances.pop(cid, None)
        if instance is not None:
            instance.cancel_timer()

    def on_view_installed(self, new_view: "View") -> None:
        replica = self.replica
        members = set(new_view.members)
        for cid in list(self.instances):
            if cid <= replica.last_decided:
                continue
            instance = self.instances[cid]
            if instance.decided:
                continue
            instance.reset_for_view()
            if (instance.batch_hash is not None
                    and replica.active and replica.id in members):
                self._send_vote(instance)

    def on_crash(self) -> None:
        for instance in self.instances.values():
            instance.cancel_timer()
        self.instances.clear()
        self.future_proposals.clear()

    # ------------------------------------------------------------------
    # Buffered out-of-order proposals
    # ------------------------------------------------------------------
    def kick_pending(self) -> None:
        replica = self.replica
        # Same windowed re-scan as ModSmartEngine.kick_pending: everything
        # now inside the processing window is eligible, and processing can
        # advance last_decided, so loop until a pass pops nothing.
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
        for c in [c for c in self.instances if c <= cid]:
            self.instances.pop(c).cancel_timer()

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
        if instance.decided or instance.batch_hash is not None:
            return
        instance.regency = regency
        instance.batch = batch
        instance.batch_hash = batch_hash
        self._phase_event(cid, "proposed", batch_hash)
        if self.replica.active:
            self._send_vote(instance)

    # ------------------------------------------------------------------
    # Fault-injection hooks
    # ------------------------------------------------------------------
    def vote_phase_of(self, msg_type: type) -> str | None:
        return {FastVoteMsg: "vote", FastCommitMsg: "commit"}.get(msg_type)

    def value_bearing_types(self) -> tuple[type, ...]:
        return (ProposeMsg, FastVoteMsg)

    def fabricate_votes(self, cid: int, regency: int,
                        batch_hash: bytes) -> list[Message]:
        key = self.replica.consensus_key()
        if key.is_erased:
            return []
        vote_sig = key.sign(hash_obj(("fastvote", cid, batch_hash)))
        commit_sig = key.sign(hash_obj(("fastcommit", cid, batch_hash)))
        return [
            FastVoteMsg(cid=cid, regency=regency, batch_hash=batch_hash,
                        signature=vote_sig),
            FastCommitMsg(cid=cid, regency=regency, batch_hash=batch_hash,
                          signature=commit_sig),
        ]

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _instance(self, cid: int) -> FastInstance:
        instance = self.instances.get(cid)
        if instance is None:
            instance = FastInstance(cid)
            self.instances[cid] = instance
        return instance

    def _phase_event(self, cid: int, phase: str,
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
            self.future_proposals[msg.cid] = (src, msg)
            replica.arm_gap_check()
            return
        self._process_propose(src, msg)

    def _process_propose(self, src: int, msg: ProposeMsg) -> None:
        replica = self.replica
        if src != replica.cv.leader(msg.regency):
            return
        if msg.regency != replica.regency:
            return
        unseen = [r for r in msg.batch if r.key not in replica.admitted]
        if unseen:
            replica.ingest_requests(unseen)
        instance = self._instance(msg.cid)
        if instance.decided:
            return
        if (instance.batch_hash is not None
                and instance.batch_hash != msg.batch_hash):
            return  # conflicting proposal: first one wins locally
        first = instance.batch_hash is None
        instance.regency = msg.regency
        instance.batch = msg.batch
        instance.batch_hash = msg.batch_hash
        if first:
            self._phase_event(msg.cid, "proposed", msg.batch_hash)
            if replica.active:
                obs = replica.sim.obs
                if obs.trace_pipeline:
                    obs.trace_cid(replica.id, msg.cid, "write",
                                  replica.sim.now)
                self._send_vote(instance)
        # A lagging replica may hold a quorum of votes/commits that was
        # waiting only for the batch itself.
        self._maybe_decide(instance)

    def _send_vote(self, instance: FastInstance) -> None:
        if instance.voted:
            return
        instance.voted = True
        replica = self.replica
        cid, regency = instance.cid, instance.regency or 0
        batch_hash = instance.batch_hash
        # The value this replica vouches for: reported in STOPDATA so a
        # new leader must re-propose any possibly-decided value.
        instance.writeset = (regency, batch_hash, instance.batch)
        key = replica.consensus_key()
        payload = hash_obj_cached(("fastvote", cid, batch_hash))

        def signed() -> None:
            if key.is_erased:
                return
            vote = FastVoteMsg(cid=cid, regency=regency,
                               batch_hash=batch_hash,
                               signature=key.sign(payload))
            replica.broadcast_view(vote)
        replica.charge_pool(replica.costs.crypto.sign_time, signed)

    def _on_vote(self, src: int, msg: FastVoteMsg) -> None:
        self._tally(src, msg, "fastvote", self._count_vote)

    def _on_commit(self, src: int, msg: FastCommitMsg) -> None:
        self._tally(src, msg, "fastcommit", self._count_commit)

    def _tally(self, src: int, msg, tag: str, count) -> None:
        """Verify the signature on the pool, then tally the round."""
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
            if not replica.registry.verify(public, payload, msg.signature):
                replica.trace.emit(replica.sim.now, f"bad-{tag}-signature",
                                   replica=replica.id, src=src, cid=msg.cid)
                return
            if msg.cid <= replica.last_decided:
                return
            count(src, msg)
        replica.charge_pool(replica.costs.crypto.verify_time, verified)

    def _count_vote(self, src: int, msg: FastVoteMsg) -> None:
        instance = self._instance(msg.cid)
        if instance.decided:
            return
        votes = instance.votes.setdefault(msg.batch_hash, {})
        if src in votes:
            return
        votes[src] = msg.signature
        self._maybe_decide(instance)
        if instance.decided:
            return
        # Slow path: a classic quorum formed but the fast quorum has not —
        # give straggler votes a grace period, then commit.
        n = self.replica.cv.n
        if (len(votes) >= self.quorum(n)
                and instance.batch_hash == msg.batch_hash
                and not instance.committed
                and instance.slow_timer is None):
            instance.slow_timer = self.replica.sim.schedule(
                SLOW_PATH_GRACE, self.replica.guard(self._slow_path),
                instance)

    def _slow_path(self, instance: FastInstance) -> None:
        instance.slow_timer = None
        if instance.decided or instance.committed:
            return
        replica = self.replica
        batch_hash = instance.batch_hash
        if batch_hash is None or not replica.active:
            return
        votes = instance.votes.get(batch_hash, {})
        if len(votes) < self.quorum(replica.cv.n):
            return
        instance.committed = True
        cid, regency = instance.cid, instance.regency or 0
        self._phase_event(cid, "committed", batch_hash)
        key = replica.consensus_key()
        payload = hash_obj_cached(("fastcommit", cid, batch_hash))

        def signed() -> None:
            if key.is_erased:
                return
            commit = FastCommitMsg(cid=cid, regency=regency,
                                   batch_hash=batch_hash,
                                   signature=key.sign(payload))
            replica.broadcast_view(commit)
        replica.charge_pool(replica.costs.crypto.sign_time, signed)

    def _count_commit(self, src: int, msg: FastCommitMsg) -> None:
        instance = self._instance(msg.cid)
        if instance.decided:
            return
        commits = instance.commits.setdefault(msg.batch_hash, {})
        if src in commits:
            return
        commits[src] = msg.signature
        self._maybe_decide(instance)

    def _maybe_decide(self, instance: FastInstance) -> None:
        """Decide once either quorum is complete *and* the batch is known."""
        if instance.decided or instance.batch is None:
            return
        batch_hash = instance.batch_hash
        n = self.replica.cv.n
        votes = instance.votes.get(batch_hash, {})
        commits = instance.commits.get(batch_hash, {})
        if len(votes) >= self.fast_quorum(n):
            proof, fast = dict(votes), True
        elif len(commits) >= self.quorum(n):
            proof, fast = dict(commits), False
        else:
            return
        instance.decided = True
        instance.decided_hash = batch_hash
        instance.cancel_timer()
        if fast:
            self.fast_decisions += 1
        else:
            self.slow_decisions += 1
        self._phase_event(instance.cid, "decided", batch_hash)
        replica = self.replica
        replica.handle_decision(Decision(
            cid=instance.cid,
            batch=instance.batch,
            proof=proof,
            batch_hash=batch_hash or b"",
            regency=replica.regency,
            decided_at=replica.sim.now,
        ))


register_engine("fastbft", FastBftEngine)
