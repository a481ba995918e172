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
from repro.consensus.messages import FastCommitMsg, FastVoteMsg, ProposeMsg
from repro.crypto.hashing import hash_obj
from repro.crypto.keys import Signature
from repro.net.message import Message

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
        self.reset_for_view()

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
    vote_phases = {FastVoteMsg: "vote", FastCommitMsg: "commit"}
    #: Per-cid FastInstance tallies are independent, so concurrent
    #: instances compose exactly as in Mod-SMaRt; the same sanity cap.
    max_pipeline = 16

    def __init__(self) -> None:
        super().__init__()
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
        replica.runtime.register_handler(FastVoteMsg, self._on_vote)
        replica.runtime.register_handler(FastCommitMsg, self._on_commit)

    def on_view_installed(self, new_view: "View") -> None:
        replica = self.replica
        members = set(new_view.members)
        for cid, instance in list(self.instances.items()):
            if cid <= replica.last_decided or instance.decided:
                continue
            instance.reset_for_view()
            if (instance.batch_hash is not None
                    and replica.active and replica.id in members):
                self._send_vote(instance)

    # ------------------------------------------------------------------
    # Synchronization-phase hook
    # ------------------------------------------------------------------
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
    # Vote rounds
    # ------------------------------------------------------------------
    def _new_instance(self, cid: int) -> FastInstance:
        return FastInstance(cid)

    def _retire(self, instance: FastInstance) -> None:
        instance.cancel_timer()

    def _on_proposal(self, instance: FastInstance, msg: ProposeMsg) -> None:
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
            if self.replica.active:
                self._trace_vote(msg.cid)
                self._send_vote(instance)
        # A lagging replica may hold a quorum of votes/commits that was
        # waiting only for the batch itself.
        self._maybe_decide(instance)

    def _send_vote(self, instance: FastInstance) -> None:
        if instance.voted:
            return
        instance.voted = True
        regency = instance.regency or 0
        # The value this replica vouches for: reported in STOPDATA so a
        # new leader must re-propose any possibly-decided value.
        instance.writeset = (regency, instance.batch_hash, instance.batch)
        self._sign_and_broadcast(FastVoteMsg, "fastvote", instance.cid,
                                 regency, instance.batch_hash)

    def _on_vote(self, src: int, msg: FastVoteMsg) -> None:
        self._verify_then_tally(src, msg, "fastvote", self._count_vote)

    def _on_commit(self, src: int, msg: FastCommitMsg) -> None:
        self._verify_then_tally(src, msg, "fastcommit", self._count_commit)

    def _count_vote(self, src: int, msg: FastVoteMsg) -> None:
        instance = self._instance(msg.cid)
        votes = instance.votes.setdefault(msg.batch_hash, {})
        if instance.decided or src in votes:
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
        if len(instance.votes.get(batch_hash, {})) < self.quorum(replica.cv.n):
            return
        instance.committed = True
        self._phase_event(instance.cid, "committed", batch_hash)
        self._sign_and_broadcast(FastCommitMsg, "fastcommit", instance.cid,
                                 instance.regency or 0, batch_hash)

    def _count_commit(self, src: int, msg: FastCommitMsg) -> None:
        instance = self._instance(msg.cid)
        commits = instance.commits.setdefault(msg.batch_hash, {})
        if instance.decided or src in commits:
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
        self._decide(instance, proof)


register_engine("fastbft", FastBftEngine)
