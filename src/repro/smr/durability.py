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
from repro.smr.recovery import DETACHED, LINKED
from repro.smr.requests import Decision, batch_digest
from repro.smr.service import Application, DeliveryLayer

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
        self._since_checkpoint = 0
        # Statistics.
        self.group_sizes: list[int] = []
        self.decisions_logged = 0

    def metrics(self) -> dict[str, Any]:
        groups = self.group_sizes
        return {
            "group_commits": len(groups),
            "mean_group_commit": sum(groups) / len(groups) if groups else 0,
        }

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
        # The whole group is one batch — one per-delivery overhead (the key
        # win) and one dependency plan, ordered by concatenation — with log
        # serialization on the SM thread.
        combined = [req for d in group for req in d.batch]
        scheduler.charge_execution(
            self.replica, self.app, combined,
            (self.replica.costs.dura_log_per_tx * len(combined),),
            self._apply_group, group)

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
    def capture_state(self, up_to_cid: int | None = None,
                      base: tuple[int, bytes] | None = None
                      ) -> tuple[Any, int]:
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
        """Replay the stable log, from the last stable snapshot if any,
        through the shared verified replay (:mod:`repro.smr.recovery`)."""
        replay = self.begin_recovery()
        checkpoint = replay.load_checkpoint(self.SNAPSHOT)
        if checkpoint is not None:
            self.executed_cid, snapshot = checkpoint
            self.app.install_snapshot(snapshot)
        start_cid = self.executed_cid

        def adopt(payload: tuple) -> int | None:
            if self._is_marker(payload):
                return None
            cid, batch = payload
            if cid <= start_cid:
                return None  # the snapshot already covers it
            self.app.execute_batch(batch)
            self.executed_cid = cid
            replay.evidence(cid, batch_digest, batch)
            return cid

        replay.replay(self.LOG, adopt, self._links, cid=start_cid)
        replay.finish(self.executed_cid)
        return self.executed_cid

    def _is_marker(self, payload: Any) -> bool:
        return isinstance(payload, tuple) and payload[0] == self.RESUME

    def _links(self, previous: tuple | None, payload: tuple) -> str:
        """Consensus ids are contiguous; a ``RESUME`` marker links only when
        it resumes from the state the replay has reached — past any other
        one lies state no local snapshot covers."""
        if self._is_marker(payload):
            return LINKED if payload[1] == self.executed_cid else DETACHED
        if previous is not None:
            marker = self._is_marker(previous)
            if payload[0] != previous[1 if marker else 0] + 1:
                return "cid-gap"
        return LINKED

    def on_crash(self) -> None:
        super().on_crash()
        self._pending_group.clear()
        self._sync_in_flight = False
        self.executed_cid = -1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _log_payload(decision: Decision) -> tuple[int, list]:
        return (decision.cid, decision.batch)
