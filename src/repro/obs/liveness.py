"""Online liveness auditor for the protocol event stream.

The safety auditor (:mod:`repro.obs.audit`) checks that nothing *bad*
happens; this module checks that something *good* keeps happening.  The
specification follows Bravo, Chockler & Gotsman ("Liveness and Latency of
Byzantine SMR"): after the global stabilization time (GST), every submitted
request must commit — and reply — within a bounded amount of time.  The
auditor subscribes to the :class:`~repro.obs.events.EventLog` and tracks
every request's lifecycle from ``request-submitted`` (client station)
through ``decide``/``execute`` (replicas) to ``request-replied`` (reply
quorum met), plus the regency timeline from ``leader-change`` events.

Invariants
----------
``bounded-latency``
    Every request submitted at time ``s`` is replied by
    ``max(s, gst) + bound``.  A reply after the deadline violates it
    immediately; a request still outstanding when the run's horizon passes
    its deadline violates it at :meth:`finalize`.
``no-wedge``
    The system never performs ``wedge_k`` consecutive regency changes with
    zero decisions in between — the signature of a synchronizer livelock
    (e.g. a fixed timeout smaller than the actual message delay, where each
    SYNC is overtaken by the next escalation).

Violations reuse :class:`~repro.obs.audit.Violation` and
:class:`~repro.obs.audit.AuditError`, so the bench CLI's exit-code
convention (2 on violation) applies unchanged.  Only the first
``max_flagged`` late requests produce ``Violation`` records (a wedged run
would otherwise drown the report); the full count is always tallied.

Beyond pass/fail, the auditor aggregates the run's liveness story for the
JSON report (:meth:`summary`): the regency timeline (when each regency was
installed, by which leader, under which timeout, and how many decisions it
made) and per-regency latency attribution (each reply attributed to the
regency in charge when it completed).  Both are kept per consensus group
(``scope``, see :class:`~repro.obs.audit.Auditor`): stations are
shard-homed, so a request is judged against its home shard's regencies, and
one shard's decisions never reset another's wedge counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.audit import Auditor
from repro.obs.events import ProtocolEvent

__all__ = ["LIVENESS_INVARIANTS", "LivenessAuditor"]

#: Names of the invariants the liveness auditor enforces.
LIVENESS_INVARIANTS = ("bounded-latency", "no-wedge")


def _genesis_timeline() -> list[dict[str, Any]]:
    return [{"regency": 0, "installed_at": 0.0, "leader": 0,
             "timeout": None, "decisions": 0}]


@dataclass
class _LivenessGroup:
    """One consensus group's request lifecycles and regency timeline."""

    #: (client, req) -> submit time
    outstanding: dict[tuple[int, int], float] = field(default_factory=dict)
    #: One entry per installed regency (the first replica to install it
    #: creates the entry).
    timeline: list[dict[str, Any]] = field(default_factory=_genesis_timeline)
    seen_regencies: set[int] = field(default_factory=lambda: {0})
    #: Wedge detection: unique decided cids, and consecutive regency
    #: changes without a fresh decision in between.
    decided_cids: set[int] = field(default_factory=set)
    changes_without_progress: int = 0
    wedge_flagged: bool = False
    #: Replies bucketed by the regency in charge when they completed.
    latency_by_regency: dict[int, list[float]] = field(default_factory=dict)


class LivenessAuditor(Auditor):
    """Tracks request lifecycles and regency churn against a liveness spec.

    Parameters
    ----------
    bound:
        Post-GST latency bound in simulated seconds: every request
        submitted at ``s`` must be replied by ``max(s, gst) + bound``.
    gst:
        Global stabilization time.  Requests submitted before it get their
        deadline measured from the GST (pre-GST asynchrony is excused, as
        in the partial-synchrony model).
    wedge_k:
        Number of consecutive zero-decision regency changes that count as
        a wedge.
    strict:
        Raise :class:`AuditError` at the first violation instead of
        collecting them.
    max_flagged:
        Cap on ``bounded-latency`` Violation records kept (the total count
        is tallied regardless).
    scope:
        Node id -> consensus group (see :class:`~repro.obs.audit.Auditor`).
    """

    INVARIANTS = LIVENESS_INVARIANTS
    SLOT = "liveness"
    SECTION = "liveness"
    GROUP = _LivenessGroup

    def __init__(self, bound: float = 1.0, gst: float = 0.0,
                 wedge_k: int = 4, strict: bool = False,
                 max_flagged: int = 10,
                 scope: Callable[[int], int] | None = None):
        super().__init__(strict=strict, scope=scope)
        self.bound = float(bound)
        self.gst = float(gst)
        self.wedge_k = int(wedge_k)
        self.max_flagged = max_flagged
        self._submitted = 0
        self._replied = 0
        self._late_replies = 0   # total past-deadline replies (capped flags)
        self._late_outstanding = 0
        self._max_latency = 0.0
        self._watchdog_fires = 0

    def _deadline(self, submitted: float) -> float:
        return max(submitted, self.gst) + self.bound

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _on_request_submitted(self, event: ProtocolEvent,
                              group: _LivenessGroup) -> None:
        client = event.fields.get("client")
        req = event.fields.get("req")
        if client is None or req is None:
            return
        self._submitted += 1
        group.outstanding[(client, req)] = event.time

    def _on_request_replied(self, event: ProtocolEvent,
                            group: _LivenessGroup) -> None:
        client = event.fields.get("client")
        req = event.fields.get("req")
        submitted = group.outstanding.pop((client, req), None)
        if submitted is None:
            return
        self._replied += 1
        latency = event.time - submitted
        if latency > self._max_latency:
            self._max_latency = latency
        regency = group.timeline[-1]["regency"]
        group.latency_by_regency.setdefault(regency, []).append(latency)
        deadline = self._deadline(submitted)
        if event.time > deadline:
            self._late_replies += 1
            if len(self.violations) < self.max_flagged:
                self._flag(
                    "bounded-latency",
                    f"request ({client}, {req}) submitted at "
                    f"t={submitted:.3f} replied at t={event.time:.3f} — "
                    f"{event.time - deadline:.3f}s past its deadline "
                    f"(max(submit, gst={self.gst:.3f}) + "
                    f"bound={self.bound:.3f})",
                    event, client=client, req=req, submitted=submitted,
                    deadline=deadline, latency=latency)

    # ------------------------------------------------------------------
    # Regency churn / wedge detection
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent, group: _LivenessGroup) -> None:
        cid = event.fields.get("cid")
        if cid is None or cid in group.decided_cids:
            return
        group.decided_cids.add(cid)
        group.changes_without_progress = 0
        group.wedge_flagged = False
        group.timeline[-1]["decisions"] += 1

    def _on_leader_change(self, event: ProtocolEvent,
                          group: _LivenessGroup) -> None:
        regency = event.fields.get("regency")
        if regency is None or regency in group.seen_regencies:
            return  # later replicas installing the same regency
        group.seen_regencies.add(regency)
        group.timeline.append({
            "regency": regency,
            "installed_at": event.time,
            "leader": event.fields.get("leader"),
            "timeout": event.fields.get("timeout"),
            "decisions": 0,
        })
        group.changes_without_progress += 1
        changes = group.changes_without_progress
        if changes >= self.wedge_k and not group.wedge_flagged:
            group.wedge_flagged = True
            first = group.timeline[-changes]
            self._flag(
                "no-wedge",
                f"{changes} consecutive regency "
                f"changes (r{first['regency']}..r{regency}) with zero "
                f"decisions in between (wedge_k={self.wedge_k}) — the "
                f"synchronizer is livelocked",
                event, first_regency=first["regency"],
                last_regency=regency, changes=changes)

    def _on_watchdog_fired(self, event: ProtocolEvent,
                           group: _LivenessGroup) -> None:
        self._watchdog_fires += 1

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, horizon: float | None) -> "LivenessAuditor":
        """Judge still-outstanding requests against the run's horizon.

        A request whose deadline lies beyond the horizon is not a
        violation — the run simply ended too early to tell; with no
        horizon, none is judged.
        """
        if horizon is None:
            return self
        for key in sorted(self.groups):
            outstanding = self.groups[key].outstanding
            for request, submitted in sorted(
                    outstanding.items(), key=lambda item: (item[1], item[0])):
                deadline = self._deadline(submitted)
                if horizon <= deadline:
                    continue
                self._late_outstanding += 1
                if len(self.violations) < self.max_flagged:
                    event = ProtocolEvent(
                        time=horizon, seq=-1, kind="request-submitted",
                        node=-1,
                        fields={"client": request[0], "req": request[1]})
                    self._flag(
                        "bounded-latency",
                        f"request {request} submitted at t={submitted:.3f} "
                        f"still outstanding at the horizon "
                        f"t={horizon:.3f} (deadline was t={deadline:.3f})",
                        event, client=request[0], req=request[1],
                        submitted=submitted, deadline=deadline)
        return self

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _summary_fields(self) -> dict[str, Any]:
        timeline: list[dict[str, Any]] = []
        latency_by_regency: dict[str, dict[str, float]] = {}
        for key in sorted(self.groups):
            group = self.groups[key]
            timeline += [{"shard": key, **entry} for entry in group.timeline]
            for regency in sorted(group.latency_by_regency):
                samples = group.latency_by_regency[regency]
                latency_by_regency[f"s{key}/r{regency}"] = {
                    "count": len(samples),
                    "mean_s": sum(samples) / len(samples),
                    "max_s": max(samples),
                }
        return {
            "bound_s": self.bound,
            "gst_s": self.gst,
            "wedge_k": self.wedge_k,
            "shards": len(self.groups),
            "submitted": self._submitted,
            "replied": self._replied,
            "outstanding": sum(len(group.outstanding)
                               for group in self.groups.values()),
            "max_latency_s": self._max_latency,
            "late_replies": self._late_replies,
            "late_outstanding": self._late_outstanding,
            "watchdog_fires": self._watchdog_fires,
            "regency_changes": sum(len(group.timeline) - 1
                                   for group in self.groups.values()),
            "regency_timeline": timeline,
            "latency_by_regency": latency_by_regency,
        }
