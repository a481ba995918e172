"""The Dura-SMaRt durability layer (Bessani et al., USENIX ATC'13).

This is BFT-SMART's efficient durability layer, reproduced as a delivery
layer (Section II-C2 of the paper):

- **Parallel logging**: a decided batch is appended to the stable log while
  (not before) the service executes it; replies wait for both.
- **Group commit**: while one synchronous write is in flight, further
  decisions accumulate; the next write covers all of them with a single
  stable-media barrier — "the latency of writing one or ten request batches
  in the stable log is similar".
- **Batched delivery**: accumulated batches are handed to the service as one
  group, paying the per-delivery overhead once (this is the 3.6× of Table I).

It is the 'Durable-SMaRt' baseline of Table I and Figure 6.
"""

from __future__ import annotations

from typing import Any

from repro.config import StorageMode
from repro.smr import scheduler
from repro.smr.requests import Decision, batch_digest
from repro.smr.service import Application, DeliveryLayer
from repro.storage.stable import AsyncFlusher

__all__ = ["DuraSmartDelivery"]

#: Serialized overhead per logged decision: consensus metadata plus the
#: decision proof (a quorum of 72-byte signatures).
_LOG_ENTRY_OVERHEAD = 64


class DuraSmartDelivery(DeliveryLayer):
    """Durable delivery with parallel logging and group commit."""

    LOG = "dura-oplog"
    SNAPSHOT = "dura-snapshot"
    #: Oplog marker written when a state-transfer package is adopted: the
    #: entries that follow continue from the package's cid, so the cid gap
    #: before them is legitimate (verified recovery stops replaying there
    #: instead of flagging a torn write).
    RESUME = "resume"

    def __init__(self, app: Application, storage: StorageMode = StorageMode.SYNC,
                 checkpoint_every: int = 0):
        self.app = app
        self.storage = storage
        #: Take an application snapshot every this many decisions (0 = never).
        self.checkpoint_every = checkpoint_every
        self.executed_cid = -1
        self._pending_group: list[Decision] = []
        self._sync_in_flight = False
        self._flusher: AsyncFlusher | None = None
        self._since_checkpoint = 0
        # Statistics.
        self.group_sizes: list[int] = []
        self.decisions_logged = 0
        # Verified-recovery outcome (rolled into run metrics, docs/faults.md).
        self.recovery_verified_entries = 0
        self.recovery_truncated_entries = 0
        self.recovery_fallbacks = 0
        self.snapshots_rejected = 0
        #: Report of the most recent :meth:`recover_local` (``None`` before
        #: the first recovery); carried on the ``recovering`` event so the
        #: recovery auditor can compare the replayed prefix against the
        #: canonical decision stream.
        self.last_recovery: dict | None = None

    def attach(self, replica) -> None:
        super().attach(replica)
        if self.storage is StorageMode.ASYNC:
            self._flusher = AsyncFlusher(
                replica.store, replica.config.async_flush_interval)
            self._flusher.start()

    # ------------------------------------------------------------------
    # Delivery path
    # ------------------------------------------------------------------
    def on_decide(self, decision: Decision) -> None:
        replica = self.replica
        nbytes = (decision.payload_bytes() + _LOG_ENTRY_OVERHEAD
                  + 72 * len(decision.proof))
        if self.storage is not StorageMode.MEMORY:
            replica.store.append(self.LOG, self._log_payload(decision), nbytes)
        self.decisions_logged += 1
        self._pending_group.append(decision)
        if self.storage is StorageMode.SYNC:
            self._maybe_start_sync()
        else:
            # Async/memory: no stable barrier gates delivery.
            self._deliver_group(self._take_group())

    def _maybe_start_sync(self) -> None:
        if self._sync_in_flight or not self._pending_group:
            return
        group = self._take_group()
        self._sync_in_flight = True
        self.replica.store.sync(self._synced, group)

    def _take_group(self) -> list[Decision]:
        limit = self.replica.config.group_commit_limit
        group, self._pending_group = (
            self._pending_group[:limit], self._pending_group[limit:])
        return group

    def _synced(self, group: list[Decision]) -> None:
        self._sync_in_flight = False
        obs = self.replica.sim.obs
        if obs.trace_pipeline:
            now = self.replica.sim.now
            for decision in group:
                obs.trace_cid(self.replica.id, decision.cid, "body_write", now)
        self._deliver_group(group)
        self._maybe_start_sync()

    def _deliver_group(self, group: list[Decision]) -> None:
        if not group:
            return
        self.group_sizes.append(len(group))
        obs = self.replica.sim.obs
        if obs.enabled:
            obs.metrics.histogram(
                "dura.group_size", node=self.replica.id).observe(len(group))
        replica = self.replica
        costs = replica.costs
        if scheduler.parallel_execution(replica, self.app):
            # The whole group is one dependency plan — ordering across the
            # group's decisions is preserved by batch concatenation order —
            # while the per-delivery overhead and log serialization stay on
            # the SM thread.
            combined = [req for d in group for req in d.batch]
            serial = (costs.batch_overhead
                      + costs.dura_log_per_tx * len(combined))
            scheduler.charge_execution(replica, self.app, combined, serial,
                                       self._apply_group, group)
            return
        # One per-delivery overhead for the whole group (the key win).
        work = costs.batch_overhead
        for decision in group:
            work += replica.execution_cost(decision.batch) - costs.batch_overhead
            work += costs.dura_log_per_tx * len(decision.batch)
        replica.charge_sm(work, self._apply_group, group)

    def _apply_group(self, group: list[Decision]) -> None:
        replica = self.replica
        obs = replica.sim.obs
        for decision in group:
            results = self.app.execute_batch(decision.batch)
            self.executed_cid = decision.cid
            if obs.trace_pipeline:
                obs.trace_cid(replica.id, decision.cid, "execute",
                              replica.sim.now)
            replica.send_replies(results, decision.batch)
            replica.note_executed(decision)
        self._since_checkpoint += len(group)
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        self._since_checkpoint = 0
        snapshot, nbytes = self.app.snapshot()
        store = self.replica.store
        store.write_snapshot(self.SNAPSHOT, (self.executed_cid, snapshot), nbytes)

    # ------------------------------------------------------------------
    # State transfer / recovery
    # ------------------------------------------------------------------
    def capture_state(self, up_to_cid: int | None = None) -> tuple[Any, int]:
        snapshot, nbytes = self.app.snapshot()
        return (self.executed_cid, snapshot), nbytes

    def install_state(self, package: Any) -> None:
        cid, snapshot = package
        self.app.install_snapshot(snapshot)
        self.executed_cid = cid
        # Mark the oplog: decisions appended from here on continue after
        # ``cid``, so the gap to the pre-crash prefix is not a torn write.
        if self.storage is not StorageMode.MEMORY:
            self.replica.store.append(self.LOG, (self.RESUME, cid), 16)

    def recover_local(self) -> int:
        """Replay the stable log (from the last stable snapshot, if any).

        With ``SMRConfig(verify_recovery=True)`` (the default) every record
        is checked against its append-time checksum and for cid contiguity;
        the log is truncated at the first invalid record and the replica
        falls back to state transfer from the last valid cid.  The
        ``verify_recovery=False`` escape hatch replays blindly — the
        pre-hardening behavior kept as the negative control.
        """
        if self._flusher is not None:
            self._flusher.start()
        if not self.replica.config.verify_recovery:
            return self._recover_unverified()
        replica = self.replica
        store = replica.store
        rt = replica.runtime
        observing = rt.observing
        start_cid = -1
        snapshot_rejected = False
        checkpoint = store.read_cell(self.SNAPSHOT)
        if checkpoint is not None:
            if store.verify_cell(self.SNAPSHOT):
                start_cid, snapshot = checkpoint
                self.app.install_snapshot(snapshot)
                self.executed_cid = start_cid
            else:
                snapshot_rejected = True
                store.bitrot_detected += 1
                self.snapshots_rejected += 1
                if observing:
                    rt.notify("snapshot-rejected", key=self.SNAPSHOT)
        entries = store.read_entries(self.LOG)
        replayed: list[tuple[int, str]] = []
        valid = 0
        prev_cid: int | None = None
        bad_reason = ""
        stopped_at_marker = False
        for entry in entries:
            if not store.verify_entry(entry):
                bad_reason = "checksum"
                store.bitrot_detected += 1
                break
            payload = entry.payload
            if isinstance(payload, tuple) and payload[0] == self.RESUME:
                marker_cid = payload[1]
                if marker_cid != self.executed_cid:
                    # The entries past this marker continue from a state we
                    # do not hold locally (no snapshot covers it): stop the
                    # replay here and let state transfer close the gap.
                    stopped_at_marker = True
                    break
                valid += 1
                prev_cid = marker_cid
                continue
            cid, batch = payload
            if prev_cid is not None and cid != prev_cid + 1:
                bad_reason = "cid-gap"
                break
            prev_cid = cid
            valid += 1
            if cid <= start_cid:
                continue
            self.app.execute_batch(batch)
            self.executed_cid = cid
            if observing:
                replayed.append(
                    (cid, batch_digest(batch).hex()))
        self.recovery_verified_entries += valid
        truncated = 0
        if bad_reason:
            truncated = len(entries) - valid
            store.truncate_log(self.LOG, valid)
            self.recovery_truncated_entries += truncated
            self.recovery_fallbacks += 1
            if observing:
                rt.notify("log-corruption-detected", log=self.LOG,
                          index=valid, reason=bad_reason, dropped=truncated)
                rt.notify("recovery-fallback", from_cid=self.executed_cid,
                          dropped=truncated)
        elif stopped_at_marker:
            self.recovery_fallbacks += 1
            if observing:
                rt.notify("recovery-fallback", from_cid=self.executed_cid,
                          dropped=0)
        if observing:
            rt.notify("recovery-verified", entries=valid,
                      truncated=truncated, cid=self.executed_cid)
        self.last_recovery = {
            "replayed": replayed, "verified": valid, "truncated": truncated,
            "snapshot_rejected": snapshot_rejected,
            "fallback": bool(bad_reason) or stopped_at_marker,
        }
        return self.executed_cid

    def _recover_unverified(self) -> int:
        """Blind replay (``verify_recovery=False``): no checksum or linkage
        checks — a corrupted record executes and silently diverges the
        replica, which is exactly what the recovery auditor must catch."""
        replica = self.replica
        store = replica.store
        rt = replica.runtime
        observing = rt.observing
        start_cid = -1
        checkpoint = store.read_cell(self.SNAPSHOT)
        if checkpoint is not None:
            start_cid, snapshot = checkpoint
            self.app.install_snapshot(snapshot)
            self.executed_cid = start_cid
        replayed: list[tuple[int, str]] = []
        for payload in store.read_log(self.LOG):
            if isinstance(payload, tuple) and payload[0] == self.RESUME:
                continue
            cid, batch = payload
            if cid <= start_cid:
                continue
            self.app.execute_batch(batch)
            self.executed_cid = cid
            if observing:
                replayed.append(
                    (cid, batch_digest(batch).hex()))
        self.last_recovery = {
            "replayed": replayed, "verified": 0, "truncated": 0,
            "snapshot_rejected": False, "fallback": False,
        }
        return self.executed_cid

    def on_crash(self) -> None:
        self._pending_group.clear()
        self._sync_in_flight = False
        self.executed_cid = -1
        if self._flusher is not None:
            self._flusher.stop()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _log_payload(decision: Decision) -> tuple[int, list]:
        return (decision.cid, decision.batch)
