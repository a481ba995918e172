"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a seeded, serializable description of an adversarial
scenario: which replicas run which Byzantine behavior (and inside which
time/consensus-id window), what the network does (partitions, healing,
lossy/slow links), which nodes crash and recover on what schedule, and any
membership changes.  The :class:`~repro.faults.inject.FaultInjector` turns a
plan into installed behavior interceptors and scheduled simulator actions.

Plans are data, not code, so the same chaos scenario can be named on the
bench CLI (``--faults equivocate``), stored in a file, or constructed in a
test — and the same plan + the same simulator seed always reproduces the
same run bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.storage.stable import STORAGE_FAULT_KINDS

__all__ = [
    "BehaviorSpec",
    "NetworkAction",
    "CrashSpec",
    "MembershipAction",
    "StorageFaultSpec",
    "FaultPlan",
    "NAMED_PLANS",
    "load_plan",
]

#: Behaviors implemented in :mod:`repro.faults.behaviors`.
BEHAVIOR_KINDS = ("equivocate", "mute", "withhold-votes", "stale-replay",
                  "stop-spam")


class FaultPlanError(ReproError):
    """A fault plan is malformed or cannot be resolved."""


@dataclass(frozen=True)
class BehaviorSpec:
    """One Byzantine behavior assigned to one or more replicas.

    ``after``/``until`` bound the active window in simulated seconds;
    ``cids`` (optional) restricts the behavior to specific consensus ids.
    ``params`` are behavior-specific knobs (see :mod:`repro.faults.behaviors`).
    """

    behavior: str
    nodes: tuple[int, ...]
    after: float = 0.0
    until: float | None = None
    cids: tuple[int, ...] | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIOR_KINDS:
            raise FaultPlanError(
                f"unknown behavior {self.behavior!r}; "
                f"expected one of {BEHAVIOR_KINDS}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.cids is not None:
            object.__setattr__(self, "cids", tuple(self.cids))


@dataclass(frozen=True)
class NetworkAction:
    """One scheduled network manipulation.

    ``op`` is one of ``partition`` (needs ``groups``), ``heal``, ``drop``
    (needs ``src``/``dst``/``p``) or ``delay`` (needs ``src``/``dst``/
    ``seconds``).
    """

    op: str
    at: float
    groups: tuple[tuple[int, ...], ...] = ()
    src: int | None = None
    dst: int | None = None
    p: float = 0.0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("partition", "heal", "drop", "delay"):
            raise FaultPlanError(f"unknown network op {self.op!r}")
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in self.groups))


@dataclass(frozen=True)
class CrashSpec:
    """A crash (and optional recovery) cycle for one node.

    ``repeat`` > 1 with a ``period`` produces a crash-recover storm: the
    cycle re-fires every ``period`` seconds.
    """

    node: int
    at: float
    recover_at: float | None = None
    repeat: int = 1
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.repeat > 1 and self.period <= 0.0:
            raise FaultPlanError("repeated crashes need a positive period")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultPlanError("recover_at must come after the crash")


@dataclass(frozen=True)
class StorageFaultSpec:
    """One scheduled storage fault against one node's stable store.

    ``kind`` is one of :data:`repro.storage.stable.STORAGE_FAULT_KINDS`
    (``bit-rot``, ``torn-write``, ``gray-disk``, ``fsync-lie``); ``at`` is
    when the fault is injected (simulated seconds); ``params`` are
    kind-specific knobs passed to
    :meth:`~repro.storage.stable.StableStore.inject_fault` (e.g. ``factor``/
    ``duration``/``budget`` for gray-disk, ``index`` for bit-rot).  The
    corruption site is otherwise drawn from the plan's seeded RNG stream,
    so the same (sim seed, plan) pair always damages the same record.
    """

    node: int
    kind: str
    at: float
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown storage fault {self.kind!r}; "
                f"expected one of {STORAGE_FAULT_KINDS}")
        if self.at < 0.0:
            raise FaultPlanError("storage fault time must be >= 0")


@dataclass(frozen=True)
class MembershipAction:
    """A scheduled reconfiguration request (currently: ``leave``)."""

    op: str
    node: int
    at: float

    def __post_init__(self) -> None:
        if self.op != "leave":
            raise FaultPlanError(f"unknown membership op {self.op!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete adversarial scenario, serializable and seeded.

    ``seed`` is folded together with the simulator seed into the behaviors'
    private RNG stream, so the same (sim seed, plan) pair is deterministic
    while distinct plans draw independently.
    """

    name: str
    seed: int = 0
    behaviors: tuple[BehaviorSpec, ...] = ()
    network: tuple[NetworkAction, ...] = ()
    crashes: tuple[CrashSpec, ...] = ()
    #: Storage faults (bit-rot, torn-write, gray-disk, fsync-lie) scheduled
    #: against individual nodes' stable stores — composable with ``crashes``
    #: so a damaged log is actually *read back* (docs/faults.md, "Storage
    #: faults & verified recovery").
    storage: tuple[StorageFaultSpec, ...] = ()
    membership: tuple[MembershipAction, ...] = ()
    #: SMR config overrides applied to every replica at install time, e.g.
    #: ``{"request_timeout": 0.25}`` so a short chaos run still exercises
    #: the leader-change path (the default 2 s trigger outlasts the run).
    protocol: dict[str, Any] = field(default_factory=dict)
    #: Hints for the liveness auditor (``Scenario(audit_liveness=True)``):
    #: ``gst`` (when the plan's chaos settles into bounded delays),
    #: ``bound`` (post-GST latency bound the plan is expected to meet) and
    #: ``wedge_k``.  Explicit Scenario values win over these.
    liveness: dict[str, Any] = field(default_factory=dict)
    #: Shard this plan targets in a sharded run (``None`` = unscoped).  The
    #: plan's node ids are *shard-relative* (0..n-1); the harness offsets
    #: them by the shard's base id before installing, so the same chaos
    #: plan can be pointed at any group (see docs/sharding.md).
    shard: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "behaviors", tuple(self.behaviors))
        object.__setattr__(self, "network", tuple(self.network))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "storage", tuple(self.storage))
        object.__setattr__(self, "membership", tuple(self.membership))
        if self.shard is not None and self.shard < 0:
            raise FaultPlanError(f"shard must be >= 0, got {self.shard}")

    @property
    def byzantine_nodes(self) -> frozenset[int]:
        """Every node running at least one Byzantine behavior."""
        return frozenset(n for spec in self.behaviors for n in spec.nodes)

    def scoped_to(self, base: int) -> "FaultPlan":
        """The same plan with every node id offset by ``base`` — how a
        shard-relative plan lands on the replicas of shard ``base //
        SHARD_STRIDE``.  ``base == 0`` returns the plan unchanged."""
        if base == 0:
            return self

        def off(node: int | None) -> int | None:
            return None if node is None else node + base

        return FaultPlan(
            name=self.name,
            seed=self.seed,
            behaviors=tuple(
                BehaviorSpec(spec.behavior,
                             tuple(n + base for n in spec.nodes),
                             after=spec.after, until=spec.until,
                             cids=spec.cids, params=dict(spec.params))
                for spec in self.behaviors),
            network=tuple(
                NetworkAction(action.op, action.at,
                              groups=tuple(tuple(n + base for n in group)
                                           for group in action.groups),
                              src=off(action.src), dst=off(action.dst),
                              p=action.p, seconds=action.seconds)
                for action in self.network),
            crashes=tuple(
                CrashSpec(spec.node + base, spec.at,
                          recover_at=spec.recover_at,
                          repeat=spec.repeat, period=spec.period)
                for spec in self.crashes),
            storage=tuple(
                StorageFaultSpec(spec.node + base, spec.kind, spec.at,
                                 params=dict(spec.params))
                for spec in self.storage),
            membership=tuple(
                MembershipAction(action.op, action.node + base, action.at)
                for action in self.membership),
            protocol=dict(self.protocol),
            liveness=dict(self.liveness),
            shard=self.shard,
        )

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FaultPlan":
        try:
            return cls(
                name=data["name"],
                seed=int(data.get("seed", 0)),
                behaviors=tuple(BehaviorSpec(**spec)
                                for spec in data.get("behaviors", ())),
                network=tuple(NetworkAction(**action)
                              for action in data.get("network", ())),
                crashes=tuple(CrashSpec(**spec)
                              for spec in data.get("crashes", ())),
                storage=tuple(StorageFaultSpec(**spec)
                              for spec in data.get("storage", ())),
                membership=tuple(MembershipAction(**action)
                                 for action in data.get("membership", ())),
                protocol=dict(data.get("protocol", {})),
                liveness=dict(data.get("liveness", {})),
                shard=data.get("shard"),
            )
        except (KeyError, TypeError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc


# ----------------------------------------------------------------------
# Named plans: one canonical scenario per behavior, sized for the default
# n=4 (f=1) SMARTCHAIN consortium — each stays within the fault threshold,
# so an audited run must come out clean.
# ----------------------------------------------------------------------
NAMED_PLANS: dict[str, FaultPlan] = {
    # An equivocating leader: replica 0 (the initial leader) sends
    # conflicting PROPOSEs to disjoint halves of the correct replicas and
    # double-votes for both values.  With a single traitor no conflicting
    # quorums can form; the protocol stalls the instance and changes leader
    # (the shortened request timeout lets that happen within a short run).
    # The window bounds the attack to one equivocating instance so the run
    # also demonstrates recovery; drop ``until`` to model a permanently
    # faulty leader.
    "equivocate": FaultPlan(
        name="equivocate",
        behaviors=(BehaviorSpec("equivocate", nodes=(0,),
                                after=0.3, until=0.45),),
        protocol={"request_timeout": 0.25},
    ),
    # A silent replica: replica 2 stops transmitting entirely mid-run.
    "mute": FaultPlan(
        name="mute",
        behaviors=(BehaviorSpec("mute", nodes=(2,), after=0.5),),
    ),
    # A vote-withholding replica: replica 1 keeps proposing/receiving but
    # never contributes WRITE or ACCEPT votes.
    "withhold-votes": FaultPlan(
        name="withhold-votes",
        behaviors=(BehaviorSpec("withhold-votes", nodes=(1,), after=0.5),),
    ),
    # The forgetting-protocol attack (Section V-D): replica 3 refuses to
    # erase retired per-view consensus keys, leaves the group, and after
    # the reconfiguration replays PERSIST votes signed with its retired
    # key — the group must reject them (Observation 3).
    "stale-replay": FaultPlan(
        name="stale-replay",
        behaviors=(BehaviorSpec("stale-replay", nodes=(3,), after=0.0),),
        membership=(MembershipAction("leave", node=3, at=0.6),),
    ),
    # A crash-recover storm composed with network chaos: replica 2 cycles
    # through crash/recovery while a brief partition isolates replica 3
    # and the 1->3 link stays lossy.
    "crash-storm": FaultPlan(
        name="crash-storm",
        crashes=(CrashSpec(node=2, at=0.6, recover_at=1.0,
                           repeat=2, period=1.0),),
        network=(
            NetworkAction("drop", at=0.5, src=1, dst=3, p=0.05),
            NetworkAction("partition", at=0.7, groups=((0, 1, 2), (3,))),
            NetworkAction("heal", at=1.1),
        ),
    ),
    # The same storm confined to shard 0 of a sharded deployment: node
    # ids are shard-relative, so the harness offsets them by the shard's
    # base id and the other groups never see a fault (their throughput
    # must be unaffected — see docs/sharding.md).
    "crash-storm-shard0": FaultPlan(
        name="crash-storm-shard0",
        shard=0,
        crashes=(CrashSpec(node=2, at=0.6, recover_at=1.0,
                           repeat=2, period=1.0),),
        network=(
            NetworkAction("drop", at=0.5, src=1, dst=3, p=0.05),
            NetworkAction("partition", at=0.7, groups=((0, 1, 2), (3,))),
            NetworkAction("heal", at=1.1),
        ),
    ),
}


def _replica_link_delays(at: float, seconds: float,
                         n: int = 4) -> tuple[NetworkAction, ...]:
    """Slow every inter-replica link (client links stay fast)."""
    return tuple(NetworkAction("delay", at=at, src=src, dst=dst,
                               seconds=seconds)
                 for src in range(n) for dst in range(n) if src != dst)


# Liveness-attacking plans (Bravo et al.): each pairs with
# ``Scenario(audit_liveness=True)``.  The adversary here controls message
# *timing*, not content — exactly the partial-synchrony threat model.
NAMED_PLANS.update({
    # Leader-targeted message delay: from t=0.4 the adversary holds every
    # message the current leader exchanges with the group for 0.3 s — and
    # since leadership rotates round-robin under escalation, every
    # inter-replica link is slowed.  The delays are *bounded*, so the
    # network is synchronous with an unknown Δ ≈ 0.3 s; the shortened
    # fixed request timeout (0.25 s < Δ) sits below it.  Under the
    # exponential synchronizer the timeout doubles past Δ within two
    # regency changes and progress resumes (slowly); under the legacy
    # fixed policy every SYNC is overtaken by the next escalation and the
    # system wedges — see "leader-delay-fixed".
    "leader-delay": FaultPlan(
        name="leader-delay",
        network=_replica_link_delays(at=0.4, seconds=0.3),
        protocol={"request_timeout": 0.25},
        liveness={"gst": 0.4, "bound": 4.0},
    ),
    # Negative control: the same attack against the legacy fixed-timeout
    # synchronizer.  An audited run must FAIL (wedge + unreplied
    # requests, exit code 2 on the CLI).
    "leader-delay-fixed": FaultPlan(
        name="leader-delay-fixed",
        network=_replica_link_delays(at=0.4, seconds=0.3),
        protocol={"request_timeout": 0.25, "synchronizer": "fixed"},
        liveness={"gst": 0.4, "bound": 4.0},
    ),
    # Timeout-edge jitter: link delays oscillate just around the (short)
    # request timeout, provoking spurious watchdog fires at the worst
    # moments.  The synchronizer must absorb the churn — every change
    # completes, the backoff resets once decisions resume, and no request
    # misses its bound.
    "timeout-jitter": FaultPlan(
        name="timeout-jitter",
        network=(_replica_link_delays(at=0.5, seconds=0.2)
                 + _replica_link_delays(at=1.1, seconds=0.0)
                 + _replica_link_delays(at=1.7, seconds=0.22)
                 + _replica_link_delays(at=2.3, seconds=0.0)),
        protocol={"request_timeout": 0.25},
        liveness={"gst": 2.3, "bound": 3.0},
    ),
    # STOP spam: replica 3 floods the group with unsolicited STOP votes
    # for regencies ahead of the current one.  With one spammer the f+1
    # join threshold is never met, so the group must keep the leader and
    # keep replying within the (tight) bound.
    "stop-spam": FaultPlan(
        name="stop-spam",
        behaviors=(BehaviorSpec("stop-spam", nodes=(3,), after=0.4,
                                params={"period": 0.05, "ahead": 2}),),
        liveness={"bound": 1.0},
    ),
})


# Storage-fault plans (docs/faults.md, "Storage faults & verified
# recovery"): each composes a storage fault with a crash-recover storm so
# the damaged stable log is actually read back, and pairs with
# ``Scenario(audit=True)`` — verified recovery must keep the recovered
# replica on the canonical chain (the recovery auditor's
# ``recovery-divergence`` invariant).
NAMED_PLANS.update({
    # Bit-rot under a crash storm: a stable log record on replica 2 is
    # silently corrupted, then the replica crash-recovers twice.  Verified
    # recovery must detect the checksum mismatch, truncate to the longest
    # valid prefix and state-transfer the rest.
    "bitrot-recovery": FaultPlan(
        name="bitrot-recovery",
        storage=(StorageFaultSpec(node=2, kind="bit-rot", at=0.8),),
        crashes=(CrashSpec(node=2, at=1.0, recover_at=1.4,
                           repeat=2, period=1.0),),
    ),
    # The same storm confined to shard 1 of a sharded deployment (node ids
    # shard-relative, as in "crash-storm-shard0").  Shard 1 is where
    # cross-shard transfers from shard 0 are minted, so the recovered
    # replica's log replay redeems its transfer certificates again.
    "bitrot-recovery-shard1": FaultPlan(
        name="bitrot-recovery-shard1",
        shard=1,
        storage=(StorageFaultSpec(node=2, kind="bit-rot", at=0.8),),
        crashes=(CrashSpec(node=2, at=1.0, recover_at=1.4,
                           repeat=2, period=1.0),),
    ),
    # Torn write: replica 1's next sync commits only a prefix of its group
    # before the replica crash-recovers.  Verified recovery must stop at
    # the resulting hole (cid/linkage gap) instead of replaying past it.
    "torn-write-recovery": FaultPlan(
        name="torn-write-recovery",
        storage=(StorageFaultSpec(node=1, kind="torn-write", at=0.7),),
        crashes=(CrashSpec(node=1, at=1.0, recover_at=1.4,
                           repeat=2, period=1.0),),
    ),
    # Gray disk (fail-slow, not fail-stop): replica 0's disk serves syncs
    # 8x slower for 0.6 s.  No crash — the run must stay live and every
    # over-budget sync must surface as a ``disk-degraded`` event.
    "gray-disk": FaultPlan(
        name="gray-disk",
        storage=(StorageFaultSpec(node=0, kind="gray-disk", at=0.5,
                                  params={"factor": 8.0, "duration": 0.6,
                                          "budget": 0.01}),),
    ),
    # Negative control: the same bit-rot storm with recovery verification
    # switched off.  The corrupted record replays blindly, so an audited
    # run must FAIL with a ``recovery-divergence`` violation (exit code 2
    # on the CLI) — this is what checksummed recovery buys.
    "bitrot-unverified": FaultPlan(
        name="bitrot-unverified",
        storage=(StorageFaultSpec(node=2, kind="bit-rot", at=0.8),),
        crashes=(CrashSpec(node=2, at=1.0, recover_at=1.4,
                           repeat=2, period=1.0),),
        protocol={"verify_recovery": False},
    ),
})


def load_plan(source: "FaultPlan | dict | str") -> FaultPlan:
    """Resolve ``source`` into a :class:`FaultPlan`.

    Accepts a plan object (returned as-is), a JSON mapping, the name of a
    plan in :data:`NAMED_PLANS`, a path to a JSON file, or an inline JSON
    string.
    """
    if isinstance(source, FaultPlan):
        return source
    if isinstance(source, dict):
        return FaultPlan.from_json(source)
    if source in NAMED_PLANS:
        return NAMED_PLANS[source]
    if source.lstrip().startswith("{"):
        try:
            return FaultPlan.from_json(json.loads(source))
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"bad inline fault plan JSON: {exc}") from exc
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return FaultPlan.from_json(json.load(fh))
    raise FaultPlanError(
        f"unknown fault plan {source!r}; named plans: "
        f"{', '.join(sorted(NAMED_PLANS))}")
