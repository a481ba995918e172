"""Online recovery auditor: does a recovered replica rejoin on the truth?

The safety auditor checks what replicas *say* while running; this auditor
checks what a crashed replica *rebuilds from its own disk*.  Verified
recovery (``docs/faults.md``, "Storage faults & verified recovery")
truncates the stable log to its longest checksum- and linkage-valid prefix
and replays only that; each ``recovering`` event carries the replayed
``(cid, recomputed batch hash)`` pairs as evidence.  The auditor compares
that evidence against the canonical decision stream (``decide`` events),
so a corrupted record that slips through unverified replay — the
``verify_recovery=False`` negative control — shows up as a divergence at
the exact recovery that resurrected it, *before* state transfer silently
heals the replica and hides the hole.

Invariants
----------
``recovery-divergence``
    A recovered replica's replayed prefix must match the canonical chain:
    every replayed cid's recomputed batch hash equals the decided batch
    hash for that cid.
``phantom-replay``
    A recovered replica must not replay a consensus id that was never
    decided (a corrupted cid field points the replay at history that does
    not exist).

The auditor also tallies the recovery/storage health events
(``log-corruption-detected``, ``snapshot-rejected``, ``recovery-fallback``,
``recovery-verified``, ``disk-degraded``) for the run report.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.audit import Auditor
from repro.obs.events import ProtocolEvent

__all__ = ["RECOVERY_INVARIANTS", "RecoveryAuditor"]

#: Names of the invariants the recovery auditor enforces.
RECOVERY_INVARIANTS = ("recovery-divergence", "phantom-replay")


class RecoveryAuditor(Auditor):
    """Checks recovery evidence against the canonical decision stream.

    A group's state is its canonical decisions (cid -> batch hash hex from
    ``decide`` events), so a recovery is compared only against its own
    shard's decisions.
    """

    INVARIANTS = RECOVERY_INVARIANTS
    SLOT = "recovery"
    SECTION = "recovery"
    GROUP = dict

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None):
        super().__init__(strict=strict, scope=scope)
        # Health tallies.
        self.recoveries_seen = 0
        self.recoveries_verified = 0
        self.corruption_detected = 0
        self.snapshots_rejected = 0
        self.fallbacks = 0
        self.disk_degraded = 0
        self.replayed_checked = 0

    def _summary_fields(self) -> dict[str, Any]:
        return {
            "recoveries_seen": self.recoveries_seen,
            "recoveries_verified": self.recoveries_verified,
            "replayed_checked": self.replayed_checked,
            "corruption_detected": self.corruption_detected,
            "snapshots_rejected": self.snapshots_rejected,
            "fallbacks": self.fallbacks,
            "disk_degraded": self.disk_degraded,
        }

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent, decided: dict) -> None:
        decided.setdefault(event.fields["cid"], event.fields["batch_hash"])

    def _on_recovering(self, event: ProtocolEvent, decided: dict) -> None:
        self.recoveries_seen += 1
        for cid, digest in event.fields.get("replayed", ()):
            self.replayed_checked += 1
            canonical = decided.get(cid)
            if canonical is None:
                self._flag(
                    "phantom-replay",
                    f"replica {event.node} replayed cid {cid}, which was "
                    "never decided",
                    event, cid=cid, replayed_hash=digest)
            elif canonical != digest:
                self._flag(
                    "recovery-divergence",
                    f"replica {event.node} replayed cid {cid} with batch "
                    f"hash {digest[:16]}…, but the group decided "
                    f"{canonical[:16]}…",
                    event, cid=cid, replayed_hash=digest,
                    decided_hash=canonical)

    def _on_recovery_verified(self, event: ProtocolEvent, _: dict) -> None:
        self.recoveries_verified += 1

    def _on_log_corruption_detected(self, event: ProtocolEvent,
                                    _: dict) -> None:
        self.corruption_detected += 1

    def _on_snapshot_rejected(self, event: ProtocolEvent, _: dict) -> None:
        self.snapshots_rejected += 1

    def _on_recovery_fallback(self, event: ProtocolEvent, _: dict) -> None:
        self.fallbacks += 1

    def _on_disk_degraded(self, event: ProtocolEvent, _: dict) -> None:
        self.disk_degraded += 1
