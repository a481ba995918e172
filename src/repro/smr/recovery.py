"""Verified recovery: the one replay every durable delivery layer shares.

Durability and recovery are layers above consensus (Section V, Observation
2), so what a crashed replica may trust of its own disk is decided once,
here, whatever the layer logs: **a stored record is adopted iff its
checksum holds and it links to its predecessor; everything after the first
bad record is truncated and left to state transfer.**  A layer supplies
three things — the name of its log, a *linkage predicate* over
``(previous adopted payload, payload)`` and an *apply step* for an adopted
payload — and keeps nothing else of the mechanism: the walk, the
truncation, the checkpoint check, the tallies and the
``log-corruption-detected`` / ``recovery-fallback`` / ``recovery-verified``
/ ``snapshot-rejected`` events all live in :class:`Replay`.

``SMRConfig(verify_recovery=False)`` — the negative control of
``docs/faults.md`` — is the same walk with the two checks skipped: a rotted
record is applied like any other, which is exactly what the recovery
auditor must catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.smr.replica import ModSmartReplica

__all__ = ["LINKED", "DETACHED", "RecoveryStats", "Replay"]

#: Linkage verdict: the record extends the adopted prefix.
LINKED = ""
#: Linkage verdict: the record is sound but continues from state this
#: replica does not hold locally (Dura-SMaRt's ``RESUME`` marker ahead of
#: the replayed prefix).  The replay stops and falls back to state
#: transfer, but the log is kept — nothing in it is damaged.  Any other
#: non-empty verdict names the damage and truncates the log there.
DETACHED = "detached"

#: ``links(previous adopted payload or None, payload) -> verdict``.
Links = Callable[[Any, Any], str]
#: ``adopt(payload) -> consensus id the payload carries the replica to``
#: (``None`` when it carries none: markers, partial block records).
Adopt = Callable[[Any], "int | None"]


@dataclass
class RecoveryStats:
    """What a delivery layer's local recoveries replayed, cut and fell back
    on, over the life of the replica (rolled into run metrics)."""

    verified_entries: int = 0
    truncated_entries: int = 0
    fallbacks: int = 0
    snapshots_rejected: int = 0
    #: Report of the most recent recovery (``None`` before the first):
    #: ``replayed`` ``[cid, recomputed batch hash]`` evidence pairs,
    #: ``verified``/``truncated`` record counts, ``snapshot_rejected`` and
    #: ``fallback`` flags.  Carried on the ``recovering`` event so the
    #: recovery auditor can compare the replayed prefix against the
    #: canonical decision stream.
    last: dict | None = None

    def metrics(self) -> dict[str, int]:
        return {
            "recovery.verified_entries": self.verified_entries,
            "recovery.truncated_entries": self.truncated_entries,
            "recovery.fallbacks": self.fallbacks,
        }


class Replay:
    """One local recovery of one delivery layer."""

    def __init__(self, replica: "ModSmartReplica", stats: RecoveryStats):
        self.replica = replica
        self.stats = stats
        self.verify = replica.config.verify_recovery
        self.report = stats.last = {
            "replayed": [], "verified": 0, "truncated": 0,
            "snapshot_rejected": False, "fallback": False,
        }

    def _notify(self, kind: str, **fields: Any) -> None:
        rt = self.replica.runtime
        if rt.observing:
            rt.notify(kind, **fields)

    def load_checkpoint(self, key: str) -> Any:
        """The stable snapshot cell ``key`` — ``None`` when there is none,
        or when its stored digest no longer matches its content."""
        store = self.replica.store
        checkpoint = store.read_cell(key)
        if checkpoint is None or not self.verify or store.verify_cell(key):
            return checkpoint
        store.bitrot_detected += 1
        self.stats.snapshots_rejected += 1
        self.report["snapshot_rejected"] = True
        self._notify("snapshot-rejected", key=key)
        return None

    def replay(self, log: str, adopt: Adopt, links: Links | None = None,
               cid: int = -1) -> int:
        """Walk ``log``, adopting its longest checksum- and linkage-valid
        prefix; returns the last adopted consensus id (``cid`` when no
        adopted record carries one)."""
        store = self.replica.store
        entries = store.read_entries(log)
        verdict = LINKED
        previous = None
        adopted = 0
        for entry in entries:
            payload = entry.payload
            if self.verify:
                if not store.verify_entry(entry):
                    store.bitrot_detected += 1
                    verdict = "checksum"
                    break
                if links is not None:
                    verdict = links(previous, payload)
                    if verdict:
                        break
            reached = adopt(payload)
            if reached is not None:
                cid = reached
            previous = payload
            adopted += 1
        if not self.verify:
            return cid
        self.stats.verified_entries += adopted
        self.report["verified"] = adopted
        if verdict == DETACHED:
            self.fallback(cid)
        elif verdict:
            dropped = len(entries) - adopted
            store.truncate_log(log, adopted)
            self.stats.truncated_entries += dropped
            self.report["truncated"] = dropped
            self.fallback(cid, dropped, reason=verdict, log=log,
                          index=adopted)
        return cid

    def fallback(self, from_cid: int, dropped: int = 0, reason: str = "",
                 log: str = "", index: int = 0) -> None:
        """Local state stops at ``from_cid``; state transfer supplies the
        rest.  ``reason`` names damage found at record ``index`` of
        ``log``."""
        self.stats.fallbacks += 1
        self.report["fallback"] = True
        if reason:
            self._notify("log-corruption-detected", log=log, index=index,
                         reason=reason, dropped=dropped)
        self._notify("recovery-fallback", from_cid=from_cid, dropped=dropped)

    def evidence(self, cid: int, digest_of: Callable[[Any], bytes],
                 requests: Any) -> None:
        """Replay evidence for the recovery auditor: ``cid`` was rebuilt
        from ``requests``, whose recomputed batch hash must equal the one
        the group decided.  Hashed only when somebody is watching."""
        if self.replica.runtime.observing:
            self.report["replayed"].append([cid, digest_of(requests).hex()])

    def finish(self, cid: int) -> None:
        """The recovery is complete with service state at ``cid``."""
        if self.verify:
            self._notify("recovery-verified", entries=self.report["verified"],
                         truncated=self.report["truncated"], cid=cid)
