"""Mod-SMaRt synchronization phase: regency (leader) changes.

When correct replicas stop making progress on pending requests, they vote to
abandon the current regency (STOP).  Once 2f+1 replicas vote, a new regency
is installed with a new leader (round-robin); replicas report the value they
may have vouched for in the unfinished instance (STOPDATA), and the new
leader re-proposes the highest vouched value — or declares a fresh start —
via SYNC.  This preserves agreement: if any replica decided a value in the
old regency, a WRITE quorum saw it, so at least one correct STOPDATA carries
it to the new leader.

Timeout policy (Bravo, Chockler & Gotsman, "Liveness and Latency of
Byzantine SMR"): under the default ``exponential`` policy the leader-change
timeout starts at ``config.request_timeout``, is multiplied by
``config.timeout_backoff`` on every regency change that happens without an
intervening decision (capped at ``config.timeout_max``), and resets to the
base on progress.  A fixed timeout smaller than the actual post-GST message
delay livelocks the sync phase — every SYNC is overtaken by the next
escalation — whereas the growing timeout eventually outwaits any unknown
delay bound, restoring bounded commit latency after GST.  The legacy
behavior survives as ``config.synchronizer = "fixed"`` (the liveness fault
plans use it as a negative control).

The synchronizer is instrumented: ``watchdog-armed``/``watchdog-fired`` and
``sync-phase`` protocol events (each carrying the timeout currently in
effect) feed the liveness auditor (:mod:`repro.obs.liveness`), and
``regency_changes``/``watchdog_fires``/``timeout_history`` surface as run
metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consensus.messages import StopDataMsg, StopMsg, SyncMsg

if TYPE_CHECKING:  # pragma: no cover
    from repro.smr.replica import ModSmartReplica

__all__ = ["Synchronizer"]


class Synchronizer:
    """Leader-change state machine for one replica."""

    def __init__(self, replica: "ModSmartReplica"):
        self.replica = replica
        for msg_type, handler in ((StopMsg, self._on_stop),
                                  (StopDataMsg, self._on_stopdata),
                                  (SyncMsg, self._on_sync)):
            replica.runtime.register_handler(msg_type, handler)
        self.in_sync_phase = False
        self._stop_votes: dict[int, set[int]] = {}
        self._stopdata: dict[int, dict[int, StopDataMsg]] = {}
        self._stop_sent_for = -1
        self._synced_regency = -1
        self._request_timer = None
        self._sync_timer = None
        self._last_progress = 0.0
        self._last_decision = 0.0
        #: Regency changes that happened without an intervening decision;
        #: drives the exponential backoff and resets on progress.
        self._failed_changes = 0
        # Statistics.
        self.regency_changes = 0
        self.watchdog_fires = 0
        #: regency -> leader-change timeout in effect when it was installed.
        self.timeout_history: dict[int, float] = {}

    def metrics(self) -> dict:
        """Leader changes, watchdog fires and the (possibly backed-off)
        timeout each regency was installed with — keyed by regency number
        as a string so the dict survives ``json.dumps``."""
        return {
            "regency_changes": self.regency_changes,
            "watchdog_fires": self.watchdog_fires,
            "regency_timeouts": {str(regency): timeout for regency, timeout
                                 in self.timeout_history.items()},
        }

    # ------------------------------------------------------------------
    # Timeout policy
    # ------------------------------------------------------------------
    @property
    def current_timeout(self) -> float:
        """The leader-change timeout currently in effect."""
        config = self.replica.config
        base = config.request_timeout
        if config.synchronizer == "fixed" or self._failed_changes == 0:
            return base
        return min(base * config.timeout_backoff ** self._failed_changes,
                   config.timeout_max)

    # ------------------------------------------------------------------
    # Progress watchdog
    # ------------------------------------------------------------------
    def arm_request_timer(self) -> None:
        """Watch pending requests; fire a leader change on starvation."""
        replica = self.replica
        if self._request_timer is not None or not replica.pending:
            return
        if replica.crashed or not replica.active:
            return
        timeout = self.current_timeout
        self._request_timer = replica.sim.schedule(
            timeout, replica.guard(self._watchdog))
        rt = replica.runtime
        if rt.observing:
            rt.notify("watchdog-armed", timeout=timeout,
                      regency=replica.regency)

    def on_progress(self) -> None:
        """A decision was delivered: the current leader is doing its job.

        The backoff decays one step per decision — and only when the gap
        since the previous decision shows the *base* timeout would have
        sufficed.  An unconditional reset re-enters the leader-change storm
        after every single decision whenever the post-GST decision interval
        exceeds the base timeout (storm → recover → reset → storm, the
        oscillation the liveness auditor flags); a conditional decay keeps
        the timeout at the level that is demonstrably needed, yet walks it
        back to the base once the network is fast again.

        The gap is measured decision-to-decision, not against the watchdog's
        ``_last_progress`` (which SYNC adoption also refreshes): the first
        decision after a SYNC always lands quickly, and judging the decay by
        that gap would shed the backoff once per regency and re-enter the
        storm.
        """
        now = self.replica.sim.now
        if (self._failed_changes
                and now - self._last_decision
                <= self.replica.config.request_timeout):
            self._failed_changes -= 1
        self._last_decision = now
        self._last_progress = now

    def _watchdog(self) -> None:
        self._request_timer = None
        replica = self.replica
        if not replica.pending or not replica.active:
            return
        # Starvation is judged against the *current* (possibly backed-off)
        # timeout, not the fixed config constant — otherwise a backed-off
        # synchronizer would declare starvation long before its own timer
        # policy considers the leader late.
        starved = (replica.sim.now - self._last_progress
                   >= self.current_timeout)
        if starved and not self.in_sync_phase:
            self.watchdog_fires += 1
            rt = replica.runtime
            if rt.observing:
                rt.notify("watchdog-fired",
                          idle=replica.sim.now - self._last_progress,
                          timeout=self.current_timeout,
                          regency=replica.regency)
            self.request_change()
        self.arm_request_timer()

    # ------------------------------------------------------------------
    # STOP voting
    # ------------------------------------------------------------------
    def request_change(self) -> None:
        """Vote to move past the current regency."""
        self._send_stop(self.replica.regency + 1)

    def _send_stop(self, next_regency: int) -> None:
        if next_regency <= self._stop_sent_for:
            return
        self._stop_sent_for = next_regency
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("sync-phase", phase="stop", regency=next_regency,
                      timeout=self.current_timeout)
        self.replica.broadcast_view(StopMsg(next_regency=next_regency))

    def _on_stop(self, src: int, msg: StopMsg) -> None:
        replica = self.replica
        regency = msg.next_regency
        if regency <= replica.regency or not replica.cv.contains(src):
            return
        votes = self._stop_votes.setdefault(regency, set())
        votes.add(src)
        if len(votes) >= replica.f + 1:
            self._send_stop(regency)  # join the change
        if len(votes) >= replica.stop_quorum:
            self._install_regency(regency)

    def _install_regency(self, regency: int) -> None:
        replica = self.replica
        if regency <= replica.regency:
            return
        replica.regency = regency
        self.regency_changes += 1
        # The change itself is evidence the previous regency made no
        # progress: back the timeout off until a decision lands.
        self._failed_changes += 1
        self.timeout_history[regency] = self.current_timeout
        self.in_sync_phase = True
        replica.cancel_batch_timer()
        for stale in [r for r in self._stop_votes if r <= regency]:
            del self._stop_votes[stale]
        self._stop_sent_for = max(self._stop_sent_for, regency)
        replica.inflight.clear()

        pending_cid = replica.last_decided + 1
        writeset = replica.engine.abandon_regency(pending_cid, regency)
        # Pipelining: the whole in-flight window is abandoned, and every
        # instance this replica vouched a value for beyond the head is
        # reported alongside (empty at pipeline_depth=1).
        extra_writesets = []
        for c in range(pending_cid + 1, pending_cid + replica.pipeline_window):
            ws = replica.engine.abandon_regency(c, regency)
            if ws is not None:
                extra_writesets.append((c, ws))
        replica.reset_proposer()

        rt = replica.runtime
        if rt.observing:
            rt.notify("leader-change", regency=regency,
                      leader=replica.cv.leader(regency),
                      timeout=self.current_timeout)
        extra_size = sum(16 + sum(r.size for r in ws[2])
                         for _c, ws in extra_writesets)
        stopdata = StopDataMsg(
            regency=regency,
            last_decided_cid=replica.last_decided,
            pending_cid=pending_cid,
            writeset=writeset,
            extra_writesets=tuple(extra_writesets),
            size=64 + (sum(r.size for r in writeset[2]) if writeset else 0)
            + extra_size,
        )
        if rt.observing:
            rt.notify("sync-phase", phase="stopdata", regency=regency,
                      leader=replica.cv.leader(regency),
                      timeout=self.current_timeout)
        replica.send(replica.cv.leader(regency), stopdata)
        self._arm_sync_timeout()
        if replica.cv.leader(regency) == replica.id:
            self._check_stopdata(regency)

    def _arm_sync_timeout(self) -> None:
        replica = self.replica
        if self._sync_timer is not None:
            self._sync_timer.cancel()
        self._sync_timer = replica.sim.schedule(
            self.current_timeout, replica.guard(self._sync_timeout))

    def _sync_timeout(self) -> None:
        self._sync_timer = None
        if self.in_sync_phase:
            # The new leader also failed: escalate.
            rt = self.replica.runtime
            if rt.observing:
                rt.notify("sync-phase", phase="sync-timeout",
                          regency=self.replica.regency,
                          timeout=self.current_timeout)
            self.request_change()

    # ------------------------------------------------------------------
    # STOPDATA collection (new leader) and SYNC
    # ------------------------------------------------------------------
    def _on_stopdata(self, src: int, msg: StopDataMsg) -> None:
        replica = self.replica
        if msg.regency < replica.regency:
            return
        if replica.cv.leader(msg.regency) != replica.id:
            return
        # Buffer even if our own regency install lags; _install_regency
        # re-checks the tally.
        self._stopdata.setdefault(msg.regency, {})[src] = msg
        self._check_stopdata(msg.regency)

    def _check_stopdata(self, regency: int) -> None:
        replica = self.replica
        if regency != replica.regency:
            return
        collected = self._stopdata.get(regency, {})
        needed = replica.cv.n - replica.f
        if len(collected) < needed or self._synced_regency >= regency:
            return
        highest = max(sd.last_decided_cid for sd in collected.values())
        if highest > replica.last_decided:
            # The new leader is behind: catch up before leading.
            replica.state_transfer.start(
                lambda _cid: self._emit_sync(regency))
            return
        self._emit_sync(regency)

    def _emit_sync(self, regency: int) -> None:
        replica = self.replica
        if self._synced_regency >= regency or replica.regency != regency:
            return
        self._synced_regency = regency
        collected = self._stopdata.get(regency, {})
        cid = replica.last_decided + 1
        # The safety rule: re-propose the vouched value with the highest
        # regency among the collected STOPDATAs for this cid.
        best = None
        for stopdata in collected.values():
            if stopdata.pending_cid != cid or stopdata.writeset is None:
                continue
            if best is None or stopdata.writeset[0] > best[0]:
                best = stopdata.writeset
        batch = best[2] if best is not None else None
        batch_hash = best[1] if best is not None else b""
        # Pipelining: the same highest-regency rule applies independently
        # to every vouched instance beyond ``cid`` (empty at depth 1).
        extra_best: dict[int, tuple] = {}
        for stopdata in collected.values():
            for c, ws in stopdata.extra_writesets:
                if c <= cid or ws is None:
                    continue
                current = extra_best.get(c)
                if current is None or ws[0] > current[0]:
                    extra_best[c] = ws
        extra = tuple((c, extra_best[c][2], extra_best[c][1])
                      for c in sorted(extra_best))
        size = (64 + (sum(r.size for r in batch) if batch else 0)
                + sum(sum(r.size for r in b) for _c, b, _h in extra))
        rt = replica.runtime
        if rt.observing:
            rt.notify("sync-phase", phase="sync", regency=regency,
                      reproposed=batch is not None,
                      timeout=self.current_timeout)
        replica.broadcast_view(SyncMsg(regency=regency, cid=cid, batch=batch,
                                       batch_hash=batch_hash,
                                       collected_from=tuple(collected),
                                       extra=extra,
                                       size=size))

    def _on_sync(self, src: int, msg: SyncMsg) -> None:
        replica = self.replica
        if msg.regency != replica.regency:
            return
        if src != replica.cv.leader(msg.regency):
            return
        if not self.in_sync_phase:
            return
        self.in_sync_phase = False
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        self._last_progress = replica.sim.now
        rt = replica.runtime
        if rt.observing:
            rt.notify("sync-phase", phase="sync-adopted", regency=msg.regency,
                      timeout=self.current_timeout)
        if msg.batch is not None and msg.cid == replica.last_decided + 1:
            # Adopt the re-proposal as if it were a PROPOSE from the leader.
            unseen = [r for r in msg.batch if r.key not in replica.admitted]
            if unseen:
                replica.ingest_requests(unseen)
            replica.engine.adopt_sync(msg.cid, msg.regency, msg.batch,
                                      msg.batch_hash)
        # Pipelining: re-proposals for vouched instances beyond the head
        # (extras are empty at pipeline_depth=1).
        for c, batch, batch_hash in msg.extra:
            if c <= replica.last_decided or batch is None:
                continue
            unseen = [r for r in batch if r.key not in replica.admitted]
            if unseen:
                replica.ingest_requests(unseen)
            replica.engine.adopt_sync(c, msg.regency, batch, batch_hash)
        # Fill what the re-proposals left of the window (nothing at depth 1
        # once the head was adopted).
        replica.maybe_propose()
        self.arm_request_timer()

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_view_installed(self) -> None:
        """A reconfiguration installed a new view: regency state restarts."""
        self.in_sync_phase = False
        self._stop_votes.clear()
        self._stopdata.clear()
        self._stop_sent_for = -1
        self._synced_regency = -1
        self._last_progress = self.replica.sim.now
        self._last_decision = self.replica.sim.now
        self._failed_changes = 0
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None

    def on_crash(self) -> None:
        if self._request_timer is not None:
            self._request_timer.cancel()
            self._request_timer = None
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        self.in_sync_phase = False
        self._stop_votes.clear()
        self._stopdata.clear()
        self._stop_sent_for = -1
        self._failed_changes = 0
