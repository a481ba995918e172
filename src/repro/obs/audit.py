"""The auditor protocol, and the online safety auditor.

The paper's core claims are protocol claims: no forks (Observation 3 /
Section V-D), 0-Persistence after full crashes (Observation 2 / Section
V-C), correct view change and key forgetting.  Every auditor subscribes to
the :class:`~repro.obs.events.EventLog` and checks each event as it is
emitted, so a violation is detected *at* the event that exposes it — the
:class:`Violation` carries that event plus the context that contradicts it.

The protocol (:class:`Auditor`)
-------------------------------
An auditor is a set of ``_on_<kind>(event, group)`` handlers over per-group
state.  ``scope`` maps a node id to its consensus group (the harness passes
:func:`repro.core.multichain.shard_of_node`); consensus ids and block
heights restart in every group, so each group is checked on its own.
Events with ``node < 0`` (network-wide faults) reach every group.  The same
object audits a live run (:meth:`Auditor.attach`) or a recorded one
(:meth:`Auditor.replay`).

Safety invariants
-----------------
``agreement``
    Two replicas never decide different batch hashes for the same
    consensus id (``decide`` events).
``no-fork``
    Two replicas never hold different blocks at the same height, and no
    block ever contradicts a completed persist certificate for its height
    (``block-append`` / ``persist-certificate`` events).
``view-monotonicity``
    Installed view ids strictly increase per replica (``view-change``).
``persistence``
    After a *full* crash (every known replica of the group crashed), the
    recovered group's best local chain still contains every certified
    block — 0-Persistence; a certified block that no recovering replica
    holds was lost (``crash`` / ``recovering`` events).
``retired-key``
    The forgetting invariant: no persist certificate for a block above a
    reconfiguration point carries a view older than the view in effect at
    that height — such a certificate could only have been signed with
    retired (erased) consensus keys (``reconfig`` / ``persist-certificate``
    events).
``no-double-mint``
    A cross-shard transfer certificate is redeemed at most once per
    replica incarnation, at one value, and never presented again after
    redemption (``cert-redeemed`` / ``cert-rejected`` events).
``delivery-order``
    Algorithm 1 is a sequential handler.  Within one incarnation a replica
    appends each block for the lowest cid it has not executed since it
    last stood somewhere — its ``recovering.local_cid``, or the cid of its
    last ``state-transfer`` ``done`` — and never executes a decision twice
    or one at or below where it stood (``block-append`` / ``execute``
    events).  A decision handed to the delivery layer out of order breaks
    it: the cause of which ``no-fork`` sees the symptom.  Executions alone
    may complete out of cid order, since batches overlap on an execution
    pool.

``SafetyAuditor(strict=True)`` raises :class:`AuditError` at the violating
event; the default collects violations so the harness can fail the run at
the end with the complete list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable

from repro.obs.events import CLIENT_KINDS, EVENT_KINDS, ProtocolEvent

__all__ = ["INVARIANTS", "Violation", "AuditError", "Auditor",
           "SafetyAuditor"]

#: Names of the invariants the safety auditor enforces.
INVARIANTS = ("agreement", "no-fork", "view-monotonicity", "persistence",
              "retired-key", "no-double-mint", "delivery-order")


@dataclass
class Violation:
    """One invariant breach, with the event that exposed it."""

    invariant: str
    message: str
    event: ProtocolEvent
    context: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "event": self.event.to_json(),
            "context": {k: (v.hex() if isinstance(v, bytes) else v)
                        for k, v in self.context.items()},
        }

    def __str__(self) -> str:
        return (f"[{self.invariant}] {self.message} "
                f"(at t={self.event.time:.6f} node={self.event.node} "
                f"event={self.event.kind})")


class AuditError(Exception):
    """Raised when a run violated a safety invariant."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(
            f"{len(self.violations)} safety violation(s):\n  {lines}")


def _one_group(node: int) -> int:
    return 0


class Auditor:
    """What every auditor shares: wiring, dispatch, scope, violations.

    A subclass names its ``INVARIANTS``, the ``Observability`` attribute
    :meth:`attach` claims (``SLOT``) and its run-report section
    (``SECTION``); supplies ``GROUP``, the factory of one group's state;
    and defines ``_on_<kind>(event, group)`` handlers (``-`` in a kind
    becomes ``_``) plus the extra summary fields (:meth:`_summary_fields`).
    Groups appear with their first handled event.
    """

    INVARIANTS: ClassVar[tuple[str, ...]] = ()
    SLOT: ClassVar[str] = ""
    SECTION: ClassVar[str] = ""
    GROUP: ClassVar[Callable[[], Any]] = dict
    #: kind -> handler, built once per class.
    _handlers: ClassVar[dict[str, Callable[..., None]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {
            kind: handler for kind in sorted(EVENT_KINDS)
            if (handler := getattr(
                cls, "_on_" + kind.replace("-", "_"), None)) is not None}

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None):
        self.strict = strict
        self.scope = scope or _one_group
        self.violations: list[Violation] = []
        self.events_checked = 0
        #: group key -> that group's state (a ``GROUP()``).
        self.groups: dict[int, Any] = {}
        self._group_of_node: dict[int, Any] = {}
        self._broadcast: list[ProtocolEvent] = []

    def attach(self, obs: Any) -> "Auditor":
        """Subscribe to a run's event stream (forces recording on)."""
        obs.record_events = True
        obs.events.subscribe(self.on_event)
        setattr(obs, self.SLOT, self)
        return self

    def replay(self, events: Iterable[ProtocolEvent],
               horizon: float | None = None) -> "Auditor":
        """Audit a recorded stream: feed it in ``(time, seq)`` order, then
        :meth:`finalize` at ``horizon``."""
        for event in sorted(events, key=lambda e: e.sort_key):
            self.on_event(event)
        return self.finalize(horizon)

    def finalize(self, horizon: float | None) -> "Auditor":
        """Judge what only the end of the run can tell (nothing, here)."""
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise AuditError(self.violations)

    def summary(self) -> dict[str, Any]:
        return {
            "invariants": list(self.INVARIANTS),
            "events_checked": self.events_checked,
            **self._summary_fields(),
            "violations": [v.to_json() for v in self.violations],
        }

    def _summary_fields(self) -> dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def group(self, key: int) -> Any:
        """Group ``key``'s state; a new group first sees the node-less
        events so far, as if it had existed from the start."""
        state = self.groups.get(key)
        if state is None:
            state = self.groups[key] = self.GROUP()
            for event in self._broadcast:
                self._handlers[event.kind](self, event, state)
        return state

    def group_of(self, node: int) -> Any:
        state = self._group_of_node.get(node)
        if state is None:
            state = self._group_of_node[node] = self.group(self.scope(node))
        return state

    def on_event(self, event: ProtocolEvent) -> None:
        self.events_checked += 1
        handler = self._handlers.get(event.kind)
        if handler is None:
            return
        if event.node >= 0:
            handler(self, event, self.group_of(event.node))
            return
        self._broadcast.append(event)
        for state in list(self.groups.values()):
            handler(self, event, state)

    def _flag(self, invariant: str, message: str, event: ProtocolEvent,
              **context: Any) -> None:
        violation = Violation(invariant=invariant, message=message,
                              event=event, context=context)
        self.violations.append(violation)
        if self.strict:
            raise AuditError([violation])


#: Kinds whose ``node`` is not a replica of the group: reconfig events may
#: come from off-cluster submitters (the View Manager), request lifecycle
#: events from client stations (node 9000+).
_NON_REPLICA_KINDS = CLIENT_KINDS | {"reconfig"}


@dataclass
class _SafetyGroup:
    """One consensus group's safety bookkeeping."""

    #: agreement: cid -> (batch_hash, first deciding node, event)
    decided: dict[int, tuple[str, int, ProtocolEvent]] = field(
        default_factory=dict)
    #: no-fork: height -> (digest, first appending node, event)
    blocks: dict[int, tuple[str, int, ProtocolEvent]] = field(
        default_factory=dict)
    #: persistence / no-fork: height -> (digest, cert view, event)
    certified: dict[int, tuple[str, int, ProtocolEvent]] = field(
        default_factory=dict)
    #: view-monotonicity: node -> last installed view id
    views: dict[int, int] = field(default_factory=dict)
    #: retired-key: (reconfig block number, view installed there)
    view_from: list[tuple[int, int]] = field(default_factory=list)
    #: persistence: membership learned from the stream + crash tracking
    known: set[int] = field(default_factory=set)
    crashed: set[int] = field(default_factory=set)
    epoch_nodes: frozenset[int] | None = None
    epoch_required: dict[int, str] = field(default_factory=dict)
    epoch_heights: dict[int, int] = field(default_factory=dict)
    #: no-double-mint: node -> {xfer: first redemption this incarnation}
    redeemed: dict[int, dict[str, ProtocolEvent]] = field(
        default_factory=dict)
    #: no-double-mint: xfer -> minted value (must agree across replicas)
    minted: dict[str, int] = field(default_factory=dict)
    #: transfers already flagged (one violation per transfer)
    flagged: set[str] = field(default_factory=set)
    #: delivery-order: node -> highest cid through which it has executed
    #: or installed everything (None: not known until it says where it
    #: stands), and the cids it executed above that
    done_through: dict[int, int | None] = field(default_factory=dict)
    done_above: dict[int, set[int]] = field(default_factory=dict)


class SafetyAuditor(Auditor):
    """Checks protocol events against the paper's safety invariants.

    Attach to a run with :meth:`attach`, replay a recorded log with
    :meth:`replay`, or feed a chain through :meth:`ingest_chain`.
    """

    INVARIANTS = INVARIANTS
    SLOT = "auditor"
    SECTION = "audit"
    GROUP = _SafetyGroup

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None):
        super().__init__(strict=strict, scope=scope)
        self._ingest_seq = 1_000_000_000  # synthetic seq for offline feeds

    def on_event(self, event: ProtocolEvent) -> None:
        if event.node >= 0 and event.kind not in _NON_REPLICA_KINDS:
            self.group_of(event.node).known.add(event.node)
        super().on_event(event)

    def _summary_fields(self) -> dict[str, Any]:
        return {"shards": len(self.groups),
                "transfers_redeemed": sum(len(group.minted)
                                          for group in self.groups.values())}

    # ------------------------------------------------------------------
    # agreement
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent, group: _SafetyGroup) -> None:
        cid = event.fields.get("cid")
        batch_hash = event.fields.get("batch_hash")
        if cid is None or batch_hash is None:
            return
        seen = group.decided.get(cid)
        if seen is None:
            group.decided[cid] = (batch_hash, event.node, event)
        elif seen[0] != batch_hash:
            self._flag(
                "agreement",
                f"cid {cid}: node {event.node} decided {batch_hash[:16]}… "
                f"but node {seen[1]} decided {seen[0][:16]}…",
                event, cid=cid, first_node=seen[1], first_hash=seen[0],
                conflicting_hash=batch_hash)

    # ------------------------------------------------------------------
    # no-fork
    # ------------------------------------------------------------------
    def _on_block_append(self, event: ProtocolEvent,
                         group: _SafetyGroup) -> None:
        self._check_append_order(event, group)
        number = event.fields.get("block")
        digest = event.fields.get("digest")
        if number is None or digest is None:
            return
        seen = group.blocks.get(number)
        if seen is None:
            group.blocks[number] = (digest, event.node, event)
        elif seen[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: node {event.node} appended "
                f"{digest[:16]}… but node {seen[1]} holds {seen[0][:16]}…",
                event, block=number, first_node=seen[1],
                first_digest=seen[0], conflicting_digest=digest)
        certified = group.certified.get(number)
        if certified is not None and certified[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: node {event.node} appended a block "
                f"contradicting its persist certificate",
                event, block=number, certified_digest=certified[0],
                conflicting_digest=digest)

    # ------------------------------------------------------------------
    # view-monotonicity
    # ------------------------------------------------------------------
    def _on_view_change(self, event: ProtocolEvent,
                        group: _SafetyGroup) -> None:
        view = event.fields.get("view")
        if view is None:
            return
        last = group.views.get(event.node)
        if last is not None and view <= last:
            self._flag(
                "view-monotonicity",
                f"node {event.node} installed view {view} after view {last}",
                event, previous_view=last, installed_view=view)
        else:
            group.views[event.node] = view

    # ------------------------------------------------------------------
    # retired-key (forgetting invariant) + certificate bookkeeping
    # ------------------------------------------------------------------
    def _on_reconfig(self, event: ProtocolEvent, group: _SafetyGroup) -> None:
        if event.fields.get("op") != "install":
            return
        block = event.fields.get("block")
        view = event.fields.get("view")
        if block is not None and view is not None:
            group.view_from.append((block, view))

    def view_at_height(self, number: int, group: int = 0) -> int:
        """The view in whose keys a certificate at ``number`` must be signed
        (the view installed by the newest reconfiguration block *below*)."""
        return self._view_at(self.group(group), number)

    @staticmethod
    def _view_at(group: _SafetyGroup, number: int) -> int:
        view = 0
        for reconfig_block, installed in group.view_from:
            if number > reconfig_block:
                view = max(view, installed)
        return view

    def _on_persist_certificate(self, event: ProtocolEvent,
                                group: _SafetyGroup) -> None:
        number = event.fields.get("block")
        digest = event.fields.get("digest")
        view = event.fields.get("view")
        if number is None or digest is None:
            return
        expected_view = self._view_at(group, number)
        if view is not None and view < expected_view:
            self._flag(
                "retired-key",
                f"certificate for block {number} carries view {view}, but "
                f"view {expected_view} was in effect at that height — its "
                f"signing keys were retired (erased) by the forgetting "
                f"protocol",
                event, block=number, certificate_view=view,
                expected_view=expected_view)
        seen = group.certified.get(number)
        if seen is None:
            group.certified[number] = (digest, view if view is not None
                                       else 0, event)
        elif seen[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: two persist certificates over different "
                f"digests",
                event, block=number, first_digest=seen[0],
                conflicting_digest=digest)
        held = group.blocks.get(number)
        if held is not None and held[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: persist certificate contradicts the "
                f"block held by node {held[1]}",
                event, block=number, held_digest=held[0],
                certified_digest=digest)

    # ------------------------------------------------------------------
    # persistence (0-Persistence after a full crash)
    # ------------------------------------------------------------------
    def _on_crash(self, event: ProtocolEvent, group: _SafetyGroup) -> None:
        # A recovered replica rebuilds its app and replays its log, which
        # redeems every logged transfer again: no-double-mint holds per
        # incarnation.
        group.redeemed.pop(event.node, None)
        self._stand_at(event, group, None)
        group.crashed.add(event.node)
        if group.known and group.crashed >= group.known:
            # Full crash: every replica the stream knows about is down.
            # Snapshot what 0-Persistence owes the group on the way back up.
            group.epoch_nodes = frozenset(group.crashed)
            group.epoch_required = {number: digest for number, (digest, _v, _e)
                                    in group.certified.items()}
            group.epoch_heights = {}

    def _on_recovering(self, event: ProtocolEvent,
                       group: _SafetyGroup) -> None:
        self._stand_at(event, group, event.fields.get("local_cid"))
        group.crashed.discard(event.node)
        if group.epoch_nodes is None or event.node not in group.epoch_nodes:
            return
        height = event.fields.get("height")
        if height is None:
            return
        group.epoch_heights[event.node] = height
        if set(group.epoch_heights) < group.epoch_nodes:
            return
        # Every replica of the full-crash epoch reloaded its stable state.
        group_max = max(group.epoch_heights.values())
        lost = sorted(number for number in group.epoch_required
                      if number > group_max)
        if lost:
            self._flag(
                "persistence",
                f"full-crash recovery lost certified block(s) {lost}: best "
                f"recovered height is {group_max}",
                event, lost_blocks=lost, group_max_height=group_max,
                certified_max=max(group.epoch_required),
                recovered_heights=dict(sorted(group.epoch_heights.items())))
        group.epoch_nodes = None
        group.epoch_required = {}
        group.epoch_heights = {}

    def _on_recover(self, event: ProtocolEvent, group: _SafetyGroup) -> None:
        group.crashed.discard(event.node)

    # ------------------------------------------------------------------
    # no-double-mint
    # ------------------------------------------------------------------
    def _on_cert_redeemed(self, event: ProtocolEvent,
                          group: _SafetyGroup) -> None:
        xfer = event.fields.get("xfer")
        value = event.fields.get("value")
        redeemed = group.redeemed.setdefault(event.node, {})
        first = redeemed.get(xfer)
        if first is not None:
            # The replicated mint is deterministic: a repeat within one
            # incarnation means replay protection failed.
            self._flag_transfer(
                group, xfer,
                f"transfer {xfer} redeemed twice on node {event.node} "
                f"(first at t={first.time:.6f})",
                event, xfer=xfer, node=event.node, first_time=first.time)
            return
        redeemed[xfer] = event
        known = group.minted.setdefault(xfer, value)
        if known != value:
            self._flag_transfer(
                group, xfer,
                f"transfer {xfer} minted value {value} on node "
                f"{event.node} but {known} elsewhere",
                event, xfer=xfer, value=value, expected=known)

    def _on_cert_rejected(self, event: ProtocolEvent,
                          group: _SafetyGroup) -> None:
        if not event.fields.get("replay"):
            return  # malformed/forged certificates are rejected, not flagged
        # A client presented an already-redeemed certificate: refused, but
        # a fault-free run never produces one.
        xfer = event.fields.get("xfer")
        self._flag_transfer(
            group, xfer,
            f"transfer {xfer} presented again after redemption "
            f"(double-mint attempt refused by node {event.node})",
            event, xfer=xfer, reason=event.fields.get("reason"))

    def _flag_transfer(self, group: _SafetyGroup, xfer: str, message: str,
                       event: ProtocolEvent, /, **context: Any) -> None:
        """One violation per transfer: a misbehaving presentation reaches
        all n replicas."""
        if xfer not in group.flagged:
            group.flagged.add(xfer)
            self._flag("no-double-mint", message, event, **context)

    # ------------------------------------------------------------------
    # delivery-order
    # ------------------------------------------------------------------
    @staticmethod
    def _stand_at(event: ProtocolEvent, group: _SafetyGroup,
                  cid: int | None) -> None:
        """The node's state now reflects cid ``cid`` (None: not known)."""
        group.done_through[event.node] = cid
        group.done_above.pop(event.node, None)

    def _on_state_transfer(self, event: ProtocolEvent,
                           group: _SafetyGroup) -> None:
        if event.fields.get("phase") == "done":
            self._stand_at(event, group, event.fields.get("cid"))

    def _on_execute(self, event: ProtocolEvent, group: _SafetyGroup) -> None:
        cid = event.fields.get("cid")
        through = group.done_through.get(event.node, -1)
        if cid is None or through is None:
            return
        above = group.done_above.setdefault(event.node, set())
        if cid <= through or cid in above:
            self._flag(
                "delivery-order",
                f"node {event.node} executed cid {cid} again: it already "
                f"stood at or executed it",
                event, cid=cid, done_through=through)
            return
        above.add(cid)
        while through + 1 in above:
            through += 1
            above.remove(through)
        group.done_through[event.node] = through

    def _check_append_order(self, event: ProtocolEvent,
                            group: _SafetyGroup) -> None:
        """A block is appended for the lowest decision not executed yet."""
        cid = event.fields.get("cid")
        through = group.done_through.get(event.node, -1)
        if cid is not None and through is not None and cid != through + 1:
            self._flag(
                "delivery-order",
                f"node {event.node} appended a block for cid {cid} where "
                f"cid {through + 1} comes next",
                event, cid=cid, expected=through + 1,
                block=event.fields.get("block"))

    # ------------------------------------------------------------------
    # Offline sweep: feed a chain through the same invariant path
    # ------------------------------------------------------------------
    def ingest_chain(self, node: int, blocks: Iterable[Any],
                     now: float = 0.0) -> None:
        """Audit a replica's chain after the fact: synthesize the
        ``block-append`` (and ``persist-certificate``) events its blocks
        imply and run them through the online checks."""
        for block in blocks:
            self.on_event(self._synthetic(
                "block-append", node, now, block=block.number,
                digest=block.digest().hex(), view=block.header.view_id))
            certificate = getattr(block, "certificate", None)
            if certificate is not None:
                self.on_event(self._synthetic(
                    "persist-certificate", node, now,
                    block=certificate.block_number,
                    digest=certificate.header_digest.hex(),
                    view=certificate.view_id,
                    signers=sorted(certificate.signatures)))

    def _synthetic(self, kind: str, node: int, now: float,
                   **fields: Any) -> ProtocolEvent:
        event = ProtocolEvent(time=now, seq=self._ingest_seq, kind=kind,
                              node=node, fields=fields)
        self._ingest_seq += 1
        return event
