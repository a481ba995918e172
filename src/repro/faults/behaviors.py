"""Byzantine behaviors as :class:`~repro.smr.runtime.Interceptor` subclasses.

Each behavior attacks one of the paper's safety/liveness arguments through
the real protocol — no hand-seeded event traces:

- :class:`EquivocateBehavior` — an equivocating leader sends conflicting
  PROPOSEs to disjoint subsets of the correct replicas and double-votes for
  every value it sees (attacks agreement, Section II-C / Figure 1: with
  ≤ f traitors no two conflicting ⌈(n+f+1)/2⌉ quorums can form).
- :class:`MuteBehavior` — a silent (or selectively silent) replica
  (attacks liveness; the synchronization phase must route around it).
- :class:`WithholdVotesBehavior` — participates everywhere except the
  engine's vote steps (a stealthier liveness attack: the replica still
  looks alive to failure detectors).
- :class:`StaleReplayBehavior` — refuses to erase retired per-view
  consensus keys and, after a reconfiguration, replays PERSIST votes signed
  with the retired key (attacks the forgetting protocol end-to-end,
  Section V-D / Observation 3: the group must reject the stale signature).
- :class:`StopSpamBehavior` — floods the group with unsolicited STOP votes
  for regencies ahead of the current one (attacks the synchronization
  phase: with ≤ f spammers the f+1 join threshold is never reached, so
  correct replicas must keep the current leader and keep deciding).

Behaviors are engine-agnostic: they consult the compromised replica's
:class:`~repro.consensus.engine.ConsensusEngine` for which message types
carry values and votes (``value_bearing_types``/``vote_phase_of``) and
for fabricated double-votes (``fabricate_votes``), so the same plan
attacks Mod-SMaRt and the fast-path engine alike.  Overrides that only
make sense for one engine — e.g. ``withhold-votes`` naming a ``write``
phase under an engine without one — fail fast at install time.

A behavior's random draws come from its own seeded RNG stream, so chaos
runs replay bit-for-bit; its first activation is announced with a
``behavior-activated`` protocol event so audited runs show the attack next
to the invariant checks.
"""

from __future__ import annotations

import random
from typing import Any, Hashable

from repro.consensus.messages import ProposeMsg, StopMsg, batch_wire_size
from repro.core.persistence import PersistMsg
from repro.crypto.hashing import hash_obj
from repro.faults.plan import BehaviorSpec
from repro.net.message import Message
from repro.smr.requests import batch_digest
from repro.smr.runtime import Interceptor

__all__ = [
    "Behavior",
    "EquivocateBehavior",
    "MuteBehavior",
    "WithholdVotesBehavior",
    "StaleReplayBehavior",
    "StopSpamBehavior",
    "build_behavior",
]


class Behavior(Interceptor):
    """Base class tying one behavior spec to one compromised replica."""

    def __init__(self, replica, spec: BehaviorSpec,
                 byzantine: frozenset[int], seed_material: str):
        self.replica = replica
        self.spec = spec
        #: Every Byzantine node in the plan — colluders are never fooled by
        #: each other's equivocation, so attacks target correct nodes only.
        self.byzantine = byzantine
        self.rng = random.Random(seed_material)
        self.activated = False

    def install(self) -> None:
        """Attach to the replica's runtime (both chains + event taps)."""
        self.replica.runtime.install(self)

    def validate(self) -> str | None:
        """Check the spec against the replica's engine before installing.

        Returns an error message when the spec only makes sense for an
        engine this replica is not running (the injector turns it into a
        :class:`FaultInjectionError`), or None when the spec applies.
        """
        return None

    def window_active(self, cid: int | None = None) -> bool:
        """Is the behavior's trigger window (time and cid) open?"""
        spec = self.spec
        now = self.replica.sim.now
        if now < spec.after:
            return False
        if spec.until is not None and now >= spec.until:
            return False
        if cid is not None and spec.cids is not None and cid not in spec.cids:
            return False
        return True

    def activate(self, **detail: Any) -> None:
        """Announce the first engagement of this behavior (once)."""
        if self.activated:
            return
        self.activated = True
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("behavior-activated", behavior=self.spec.behavior,
                      **detail)


class EquivocateBehavior(Behavior):
    """Equivocating leader + double-voter.

    Outbound: when this replica leads and proposes a batch of two or more
    requests, the correct replicas are split into two halves that receive
    *conflicting* PROPOSEs for the same consensus id (the second half gets
    the batch in reverse order, a genuinely different value with a different
    hash).  Colluding Byzantine peers and the traitor itself keep the
    original, so each half sees a self-consistent leader.

    Inbound: the traitor votes in *every* phase for *every* value it
    learns of in the instance (the engine's ``value_bearing_types`` says
    which inbound messages reveal a value, its ``fabricate_votes``
    produces the full forbidden vote set), trying to complete conflicting
    quorums.
    With ≤ f traitors both values can reach at most f + ⌈(n-f)/2⌉ < quorum
    votes, the instance stalls, and the synchronization phase replaces the
    leader — the run must stay audit-clean.  With f+1 traitors the vote
    arithmetic breaks and the auditor must report a fork.
    """

    def __init__(self, replica, spec, byzantine, seed_material):
        super().__init__(replica, spec, byzantine, seed_material)
        self._variants: dict[int, dict[Hashable, ProposeMsg]] = {}
        self._voted: set[tuple[int, bytes]] = set()

    def on_outbound(self, dst: Hashable, msg: Message):
        if not isinstance(msg, ProposeMsg) or not self.window_active(msg.cid):
            return [(dst, msg)]
        if len(msg.batch) < 2:
            return [(dst, msg)]  # a 1-request batch has no second ordering
        variants = self._variants.get(msg.cid)
        if variants is None:
            variants = self._split(msg)
            self._variants[msg.cid] = variants
        return [(dst, variants.get(dst, msg))]

    def _split(self, msg: ProposeMsg) -> dict[Hashable, ProposeMsg]:
        replica = self.replica
        correct = [m for m in replica.cv.members if m not in self.byzantine]
        group_b = correct[len(correct) // 2:]
        batch_b = list(reversed(msg.batch))
        conflict = ProposeMsg(
            cid=msg.cid, regency=msg.regency, batch=batch_b,
            batch_hash=batch_digest(batch_b),
            size=batch_wire_size(batch_b))
        self.activate(cid=msg.cid, split=sorted(group_b),
                      conflicting_hash=conflict.batch_hash.hex())
        return {dst: conflict for dst in group_b}

    def on_inbound(self, src: Hashable, msg: Message):
        cid = getattr(msg, "cid", None)
        batch_hash = getattr(msg, "batch_hash", None)
        if (isinstance(msg, self.replica.engine.value_bearing_types())
                and cid is not None
                and batch_hash is not None and self.window_active(cid)
                and cid > self.replica.last_decided
                and (cid, batch_hash) not in self._voted):
            self._voted.add((cid, batch_hash))
            self._double_vote(cid, msg.regency, batch_hash)
        return msg

    def _double_vote(self, cid: int, regency: int, batch_hash: bytes) -> None:
        """Vote for this value in every phase regardless of previous votes
        — exactly what an honest replica may never do."""
        replica = self.replica
        rt = replica.runtime
        self.activate(cid=cid)
        votes = replica.engine.fabricate_votes(cid, regency, batch_hash)
        # send_raw: fabricated votes must not loop back through this chain.
        for dst in replica.cv.members:
            for vote in votes:
                rt.send_raw(dst, vote)


class MuteBehavior(Behavior):
    """Silent replica: drops outbound traffic inside its window.

    ``params['kinds']`` restricts the muting to specific message kinds
    (class names); ``params['targets']`` to specific destinations.
    """

    def on_outbound(self, dst: Hashable, msg: Message):
        if not self.window_active(getattr(msg, "cid", None)):
            return [(dst, msg)]
        kinds = self.spec.params.get("kinds")
        if kinds is not None and msg.kind not in kinds:
            return [(dst, msg)]
        targets = self.spec.params.get("targets")
        if targets is not None and dst not in targets:
            return [(dst, msg)]
        self.activate(muted=msg.kind)
        return []


class WithholdVotesBehavior(Behavior):
    """Drops this replica's own consensus votes (and PERSIST shares).

    ``params['phases']`` may restrict withholding to a subset of the
    engine's vote phases (``engine.phases``, e.g. ``write``/``accept``
    under Mod-SMaRt, ``vote``/``commit`` under the fast path) plus
    ``persist``; the default withholds all of them.  Naming a phase the
    replica's engine lacks fails fast at install time.
    """

    def _valid_phases(self) -> tuple[str, ...]:
        return tuple(self.replica.engine.phases) + ("persist",)

    def validate(self) -> str | None:
        phases = self.spec.params.get("phases")
        if phases is None:
            return None
        unknown = sorted(set(phases) - set(self._valid_phases()))
        if unknown:
            engine = self.replica.engine
            return (f"withhold-votes names phase(s) {unknown} that engine "
                    f"{engine.name!r} lacks (valid: "
                    f"{list(self._valid_phases())})")
        return None

    def _phase_of(self, msg: Message) -> str | None:
        if isinstance(msg, PersistMsg):
            return "persist"
        return self.replica.engine.vote_phase_of(type(msg))

    def on_outbound(self, dst: Hashable, msg: Message):
        phase = self._phase_of(msg)
        if phase is None or not self.window_active(getattr(msg, "cid", None)):
            return [(dst, msg)]
        phases = self.spec.params.get("phases", self._valid_phases())
        if phase not in phases:
            return [(dst, msg)]
        self.activate(withheld=phase)
        return []


class StaleReplayBehavior(Behavior):
    """Retired-key replayer attacking the forgetting protocol.

    On install the compromised replica stops erasing retired per-view keys
    (``replica.erase_retired_keys = False`` — modelling key exfiltration
    before the rotation).  When a later view installs, it waits briefly and
    then replays a PERSIST vote for the next block signed with the retired
    key of the *previous* view.  A correct group must refuse the vote: the
    current view's key directory no longer vouches for that key, and the
    rejection is recorded as a ``stale-reject`` protocol event
    (Observation 3: compromising retired members' keys breaks nothing).

    ``params['delay']`` tunes how long after the view change the replay
    fires (default 0.05 s).
    """

    def __init__(self, replica, spec, byzantine, seed_material):
        super().__init__(replica, spec, byzantine, seed_material)
        self._replayed_views: set[int] = set()

    def install(self) -> None:
        super().install()
        self.replica.erase_retired_keys = False

    def on_event(self, kind: str, fields: dict[str, Any]) -> None:
        if kind != "view-change" or not self.window_active():
            return
        new_view = fields.get("view", 0)
        retired = new_view - 1
        if retired < 0 or retired in self._replayed_views:
            return
        self._replayed_views.add(retired)
        delay = self.spec.params.get("delay", 0.05)
        members = list(fields.get("members", ()))
        self.replica.sim.schedule(delay, self._replay, retired, members)

    def _replay(self, retired_view: int, members: list[int]) -> None:
        replica = self.replica
        key = replica.consensus_keys.get(retired_view)
        if key is None or key.is_erased or replica.crashed:
            return
        target = max(replica.delivery.height, 0) + 1
        digest = hash_obj(("stale-replay", replica.id, target,
                           self.rng.random()))
        msg = PersistMsg(block_number=target, header_digest=digest,
                         replica_id=replica.id, signature=key.sign(digest))
        self.activate(retired_view=retired_view, block=target)
        for dst in members:
            if dst != replica.id:
                replica.runtime.send_raw(dst, msg)


class StopSpamBehavior(Behavior):
    """STOP-vote spammer attacking the synchronization phase.

    Inside its window the compromised replica periodically broadcasts
    unsolicited STOP votes for regencies ahead of the current one
    (``params['ahead']`` of them, default 2, every ``params['period']``
    seconds, default 0.05).  Correct replicas only *join* a change once
    f+1 distinct members vote for it, so with ≤ f spammers the votes can
    never recruit anyone: the group must keep the current leader and keep
    deciding.  The liveness auditor confirms that nothing wedges and no
    request misses its bound.
    """

    def install(self) -> None:
        super().install()
        period = self.spec.params.get("period", 0.05)
        self.replica.sim.schedule_at(self.spec.after + period, self._spam)

    def _spam(self) -> None:
        replica = self.replica
        spec = self.spec
        if spec.until is not None and replica.sim.now >= spec.until:
            return  # window closed for good: stop rescheduling
        if not replica.crashed and self.window_active():
            self.activate(regency=replica.regency)
            ahead = spec.params.get("ahead", 2)
            for k in range(1, ahead + 1):
                msg = StopMsg(next_regency=replica.regency + k)
                # send_raw: the spam must not loop back through this chain.
                for dst in replica.cv.members:
                    if dst != replica.id:
                        replica.runtime.send_raw(dst, msg)
        replica.sim.schedule(spec.params.get("period", 0.05), self._spam)


_BEHAVIOR_CLASSES = {
    "equivocate": EquivocateBehavior,
    "mute": MuteBehavior,
    "withhold-votes": WithholdVotesBehavior,
    "stale-replay": StaleReplayBehavior,
    "stop-spam": StopSpamBehavior,
}


def build_behavior(replica, spec: BehaviorSpec, byzantine: frozenset[int],
                   seed_material: str) -> Behavior:
    """Instantiate the behavior class named by ``spec`` for ``replica``."""
    cls = _BEHAVIOR_CLASSES[spec.behavior]
    return cls(replica, spec, byzantine, seed_material)
