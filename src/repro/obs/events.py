"""Typed, bounded protocol event stream.

This module records the run's *protocol* events — decisions, view changes,
persist certificates, crashes, recoveries — as typed records, and it is the
only event stream the protocol code writes to.  Tooling consumes it: the
online safety auditor (:mod:`repro.obs.audit`) subscribes
to the stream, the trace exporter (:mod:`repro.obs.traceview`) renders it
on a per-node timeline, and ``--events`` dumps it as JSONL.

Recording follows the PR 1 guard discipline: emitters check a single
``if obs.record_events:`` attribute before touching the log (and before
computing any event field, e.g. a block digest), so disabled runs pay
nothing.  The log is bounded — once ``capacity`` events are held the oldest
are dropped and counted — and ordering is fully deterministic: every event
carries a ``(time, seq)`` key where ``seq`` is the per-log emission index,
so exports are byte-identical across runs with the same seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["EVENT_KINDS", "CLIENT_KINDS", "ProtocolEvent", "EventLog"]

#: Every event kind the protocol layers may emit.  ``emit`` rejects
#: anything else so a typo cannot silently produce an unauditable stream.
EVENT_KINDS = frozenset({
    "consensus-phase",      # consensus/instance.py: PROPOSED/ACCEPTED/DECIDED
    "decide",               # smr/replica.py: decision delivered in cid order
    "view-change",          # smr/replica.py: a new view was installed
    "leader-change",        # smr/leaderchange.py: regency installed
    "key-rotation",         # smr/replica.py: older per-view keys erased
    "crash",                # smr/replica.py: volatile state lost
    "recovering",           # smr/replica.py: local stable state reloaded
    "recover",              # smr/replica.py: state transfer done, active again
    "state-transfer",       # smr/statetransfer.py: transfer start / done
    "block-append",         # core/blockchain_layer.py: block on the local chain
    "persist-vote",         # core/blockchain_layer.py: PERSIST share broadcast
    "persist-certificate",  # core/blockchain_layer.py: certificate quorum met
    "persist-timeout",      # core/blockchain_layer.py: PERSIST gave up
    "checkpoint",           # core/blockchain_layer.py: checkpoint block
    "suffix-lost",          # core/blockchain_layer.py: weak-variant truncation
    "reconfig",             # core/reconfig.py + smr/viewmanager.py
    "stale-reject",         # core/blockchain_layer.py: retired-key vote refused
    "fault-injected",       # faults/inject.py: a FaultPlan action fired
    "behavior-activated",   # faults/behaviors.py: a Byzantine behavior engaged
    "execute",              # smr/replica.py: a decision's batch executed
    "request-submitted",    # clients/client.py: invocation left the station
    "request-replied",      # clients/client.py: reply quorum met, client freed
    "watchdog-armed",       # smr/leaderchange.py: progress watchdog scheduled
    "watchdog-fired",       # smr/leaderchange.py: starvation detected
    "sync-phase",           # smr/leaderchange.py: STOP/STOPDATA/SYNC steps
    "cert-redeemed",        # apps/smartcoin.py: cross-shard transfer minted
    "cert-rejected",        # apps/smartcoin.py: transfer certificate refused
    "pipeline-stalled",     # smr/replica.py: in-flight window made no progress
    "log-corruption-detected",  # delivery recover_local: checksum/linkage cut
    "snapshot-rejected",    # delivery recover_local: snapshot digest mismatch
    "recovery-fallback",    # delivery recover_local: truncated, needs transfer
    "recovery-verified",    # delivery recover_local: replayed prefix validated
    "disk-degraded",        # storage/disk.py: gray sync exceeded its budget
})

#: Event kinds emitted by client stations rather than replicas.  Their
#: ``node`` is a *station* id (9000+), so membership-tracking consumers
#: (the safety auditor's full-crash detection) must skip them.
CLIENT_KINDS = frozenset({"request-submitted", "request-replied"})


def _json_safe(value: Any) -> Any:
    """Render an event field as deterministic JSON-serializable data."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (tuple, set, frozenset)):
        return sorted(_json_safe(v) for v in value) \
            if isinstance(value, (set, frozenset)) else [_json_safe(v) for v in value]
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """One protocol event: what happened, where, and when.

    ``seq`` is the per-log emission index; ``(time, seq)`` is a total order
    that is stable across runs with the same seed (the simulator itself
    breaks timestamp ties by insertion order, so emission order is
    deterministic).  Slotted: a run keeps tens of thousands of these, and
    an instance ``__dict__`` each was a quarter of the log's memory.
    """

    time: float
    seq: int
    kind: str
    node: int
    fields: dict[str, Any]

    @property
    def sort_key(self) -> tuple[float, int]:
        return (self.time, self.seq)

    def to_json(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "seq": self.seq,
            "kind": self.kind,
            "node": self.node,
            **{k: _json_safe(v) for k, v in self.fields.items()},
        }


class EventLog:
    """Bounded, subscribable store of :class:`ProtocolEvent` records.

    Subscribers are called synchronously from :meth:`emit` (the auditor
    relies on seeing events in emission order); keep them cheap.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = max(1, capacity)
        self.dropped = 0
        self._events: list[ProtocolEvent] = []
        self._seq = 0
        self._subscribers: list[Callable[[ProtocolEvent], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, node: int, time: float,
             **fields: Any) -> ProtocolEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown protocol event kind {kind!r}")
        event = ProtocolEvent(time=time, seq=self._seq, kind=kind,
                              node=node, fields=fields)
        self._seq += 1
        self._events.append(event)
        if len(self._events) > self.capacity:
            overflow = len(self._events) - self.capacity
            del self._events[:overflow]
            self.dropped += overflow
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[ProtocolEvent], None]) -> None:
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[ProtocolEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> list[ProtocolEvent]:
        return [event for event in self._events if event.kind == kind]

    def counts(self) -> dict[str, int]:
        """Events retained per kind (sorted by kind for stable JSON)."""
        out: dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The retained events as JSONL, byte-identical per seed."""
        lines = [json.dumps(event.to_json(), sort_keys=True)
                 for event in sorted(self._events, key=lambda e: e.sort_key)]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> int:
        """Write the stream to ``path``; returns the number of events."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self._events)
