"""The SMR replica: BFT total-order broadcast with batching.

This is the reproduction of BFT-SMART's ordering core (Section II-C):
client request batching, decision sequencing, a synchronization phase for
leader changes, state transfer hooks and crash/recovery with an
incarnation guard.  The agreement protocol itself is pluggable: a
:class:`~repro.consensus.engine.ConsensusEngine` (Mod-SMaRt's
VP-Consensus by default) owns the consensus messages, vote bookkeeping
and quorum policy.

Division of labour
------------------
- This class owns *ordering* and the shared machine resources (state-machine
  thread, verification pool, NIC endpoint, stable store).
- A :class:`~repro.consensus.engine.ConsensusEngine` owns agreement: its
  wire messages and handlers, per-instance tallies, and the quorum sizes
  (``replica.f`` / ``replica.quorum`` / ... are engine policy).
- A :class:`~repro.smr.runtime.NodeRuntime` owns the message plumbing: typed
  handler dispatch, the inbound/outbound interceptor chains (fault
  injection, tracing) and the protocol-event taps.  Collaborators register
  their message types with the runtime instead of reaching into replica
  internals.
- A pluggable :class:`~repro.smr.service.DeliveryLayer` owns what happens to
  decided batches (execution, durability, replies, blockchain building).
- :class:`~repro.smr.leaderchange.Synchronizer` owns regency changes.
- :class:`~repro.smr.statetransfer.StateTransferEngine` owns recovery
  catch-up.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable

from repro.config import CostModel, SMRConfig, VerificationMode
from repro.consensus.engine import ConsensusEngine, create_engine
from repro.crypto.hashing import hash_obj
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.smr.keydir import KeyDirectory
from repro.smr.runtime import NodeRuntime
from repro.smr.requests import (
    ClientRequest,
    Decision,
    ReplyBatchMsg,
    RequestBatchMsg,
    RequestKey,
)
from repro.smr.service import DeliveryLayer
from repro.smr.views import View
from repro.storage.stable import StableStore

__all__ = ["ModSmartReplica"]


class ModSmartReplica:
    """One replica of the Mod-SMaRt SMR protocol.

    Parameters
    ----------
    sim, network, registry, keydir:
        Shared simulation substrate.
    replica_id:
        This replica's identifier (must be unique in the universe).
    view:
        The initial view (``vinit``).
    config, costs:
        Protocol parameters and the calibrated cost model.
    delivery:
        The delivery layer receiving ordered decisions.
    store:
        Machine-owned stable store (survives crashes of this object).
    key_policy:
        ``"permanent"`` — sign consensus messages with the permanent key
        (classic BFT-SMART); ``"per_view"`` — fresh consensus keys per view
        with erasure on view change (SMARTCHAIN's forgetting protocol).
    engine:
        The agreement protocol: a registry key (``"modsmart"``,
        ``"fastbft"``), a :class:`~repro.consensus.engine.ConsensusEngine`
        instance, or None for the default Mod-SMaRt.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
        keydir: KeyDirectory,
        replica_id: int,
        view: View,
        config: SMRConfig,
        costs: CostModel,
        delivery: DeliveryLayer,
        store: StableStore | None = None,
        key_policy: str = "permanent",
        active: bool = True,
        permanent_key: KeyPair | None = None,
        initial_consensus_key: KeyPair | None = None,
        engine: "str | ConsensusEngine | None" = None,
    ):
        self.sim = sim
        self.net = network
        self.registry = registry
        self.keydir = keydir
        self.id = replica_id
        self.cv = view
        self.config = config
        self.costs = costs
        self.delivery = delivery
        self.store = store or StableStore(sim, disk_config=costs.disk,
                                          name=f"store-{replica_id}")
        # Bind the machine's storage to this identity so storage faults and
        # disk-degraded events name the replica they hit.
        self.store.node = replica_id
        self.store.disk.node = replica_id
        self.key_policy = key_policy

        # Machine resources.
        self.sm_thread = Resource(sim, 1, name=f"sm-{replica_id}")
        self.verify_pool = Resource(sim, config.verify_pool_size,
                                    name=f"pool-{replica_id}")
        #: Execution core pool for parallel deterministic execution
        #: (repro.smr.scheduler.charge_execution).  None at exec_cores=1:
        #: each batch is one state-machine-thread job and no extra resource
        #: appears in reports.
        self.exec_pool = (
            Resource(sim, config.exec_cores, name=f"exec-{replica_id}")
            if config.exec_cores > 1 else None)

        # Keys (may be provided by a bootstrap that wrote them to genesis).
        self.permanent_key: KeyPair = (
            permanent_key if permanent_key is not None
            else registry.generate(f"perm-r{replica_id}"))
        self.consensus_keys: dict[int, KeyPair] = {}
        if initial_consensus_key is not None and key_policy == "per_view":
            self.consensus_keys[view.view_id] = initial_consensus_key
            keydir.publish(view.view_id, replica_id,
                           initial_consensus_key.public)
        self.ensure_consensus_key(view.view_id)

        # Ordering state.
        self.regency = 0
        self.last_decided = -1
        self.last_executed = -1
        self.pending: "OrderedDict[RequestKey, ClientRequest]" = OrderedDict()
        #: Admission table: every request key seen -> verified yet?
        self.admitted: dict[RequestKey, bool] = {}
        self.inflight: set[RequestKey] = set()
        self.decision_buffer: dict[int, Decision] = {}
        #: Decided but not yet handed to the delivery layer, in cid order;
        #: only the head leaves (:meth:`_hand_off`).
        self._handoff: deque[Decision] = deque()

        # Lifecycle.
        self.crashed = False
        self.active = active
        self._incarnation = 0
        self._batch_timer = None
        self._gap_timer = None
        #: Highest cid this leader has proposed (pipelining bookkeeping).
        #: ``engine.propose`` only broadcasts — the instance forms when the
        #: self-addressed PROPOSE loops back — so ``has_open_proposal`` alone
        #: cannot stop the windowed propose loop from double-proposing.
        self._proposed_head = -1
        self._stall_timer = None
        self._stall_marker = -1
        #: Forgetting protocol switch: a compromised replica that refuses to
        #: erase retired per-view keys sets this False (the stale-replay
        #: fault behavior); honest replicas always erase.
        self.erase_retired_keys = True

        # Statistics.
        self.decided_count = 0
        self.executed_tx_count = 0
        self.pipeline_stalls = 0

        # Message plumbing: typed dispatch + interceptor chains.
        self.runtime = NodeRuntime(sim, network, replica_id)
        self.runtime.gate = lambda: not self.crashed
        self.runtime.register_handler(RequestBatchMsg, self._on_request_batch)

        # The agreement protocol registers its own message handlers.
        self.engine = create_engine(engine)
        self.engine.attach(self)

        # Collaborators (import here to avoid cycles).  Each registers its
        # own message types with the runtime.
        from repro.smr.leaderchange import Synchronizer
        from repro.smr.statetransfer import StateTransferEngine
        self.synchronizer = Synchronizer(self)
        self.state_transfer = StateTransferEngine(self)

        delivery.attach(self)
        self.endpoint = network.register(replica_id, self.runtime.deliver)

    # ==================================================================
    # Quorum policy (delegated to the engine over the current view size)
    # ==================================================================
    @property
    def f(self) -> int:
        """Fault threshold for the current view, per the engine's policy."""
        return self.engine.fault_threshold(self.cv.n)

    @property
    def quorum(self) -> int:
        """Votes that decide an instance (and match client replies)."""
        return self.engine.quorum(self.cv.n)

    @property
    def stop_quorum(self) -> int:
        """STOP votes that install a new regency."""
        return self.engine.stop_quorum(self.cv.n)

    @property
    def cert_quorum(self) -> int:
        """Signatures required in a block certificate."""
        return self.engine.cert_quorum(self.cv.n)

    # ==================================================================
    # Resource charging helpers
    # ==================================================================
    def guard(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a callback so it is dropped if the replica crashed or was
        re-incarnated after scheduling — simulated threads die with the
        process, and what a crashed one schedules never runs."""
        incarnation = None if self.crashed else self._incarnation

        def wrapper(*args: Any) -> None:
            if not self.crashed and self._incarnation == incarnation:
                fn(*args)

        return wrapper

    def charge_sm(self, seconds: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn`` after ``seconds`` of state-machine-thread work."""
        self.sm_thread.submit(seconds, self.guard(fn), *args)

    def charge_pool(self, seconds: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn`` after ``seconds`` of work on the verification pool."""
        self.verify_pool.submit(seconds, self.guard(fn), *args)

    def charge_pool_bulk(self, unit: float, count: int,
                         fn: Callable[..., Any], *args: Any) -> None:
        self.verify_pool.submit_bulk(unit, count, self.guard(fn), *args)

    # ==================================================================
    # Keys
    # ==================================================================
    def ensure_consensus_key(self, view_id: int) -> KeyPair:
        """Key used to sign ACCEPTs (and block certificates) in ``view_id``."""
        if self.key_policy == "permanent":
            self.keydir.publish(view_id, self.id, self.permanent_key.public)
            return self.permanent_key
        if view_id not in self.consensus_keys:
            key = self.registry.generate(f"cons-r{self.id}-v{view_id}")
            self.consensus_keys[view_id] = key
            self.keydir.publish(view_id, self.id, key.public)
        return self.consensus_keys[view_id]

    def consensus_key(self) -> KeyPair:
        return self.ensure_consensus_key(self.cv.view_id)

    def rotate_keys(self, new_view: View) -> None:
        """Forgetting protocol: generate the new view's key, erase older ones."""
        self.ensure_consensus_key(new_view.view_id)
        if self.key_policy == "per_view" and self.erase_retired_keys:
            erased = []
            for view_id, key in self.consensus_keys.items():
                if view_id < new_view.view_id and not key.is_erased:
                    key.erase()
                    erased.append(view_id)
            if erased:
                rt = self.runtime
                if rt.observing:
                    rt.notify("key-rotation", view=new_view.view_id,
                              erased_views=sorted(erased))

    # ==================================================================
    # Message plumbing (delegated to the NodeRuntime)
    # ==================================================================
    def register_handler(self, msg_type: type,
                         fn: Callable[[int, Message], None]) -> None:
        """Let layers (PERSIST phase, reconfiguration, ...) receive messages."""
        self.runtime.register_handler(msg_type, fn)

    def send(self, dst: int, msg: Message) -> None:
        self.runtime.send(dst, msg)

    def broadcast_view(self, msg: Message, include_self: bool = True) -> None:
        targets = [m for m in self.cv.members if include_self or m != self.id]
        self.runtime.broadcast(targets, msg)

    # ==================================================================
    # Request ingestion and verification gating
    # ==================================================================
    def _on_request_batch(self, src: int, msg: RequestBatchMsg) -> None:
        self.ingest_requests(msg.requests)

    def ingest_requests(self, requests: list[ClientRequest]) -> None:
        """Admit new client requests: dedupe, verify (per mode), enqueue."""
        admitted = self.admitted
        pending = self.pending
        # Only PARALLEL verifies signed requests on the pool before they
        # may be ordered; SEQUENTIAL charges at execution, NONE never
        # verifies.
        pooled = self.config.verification is VerificationMode.PARALLEL
        to_verify = []
        fresh = False
        for req in requests:
            key = req.key
            if key not in admitted:
                fresh = True
                pending[key] = req
                if pooled and req.signed:
                    admitted[key] = False
                    to_verify.append(key)
                else:
                    admitted[key] = True
        if to_verify:
            self.charge_pool_bulk(
                self.costs.crypto.verify_time, len(to_verify),
                self._mark_verified, to_verify,
            )
        elif fresh:
            self._after_verification()

    def _mark_verified(self, keys: list[RequestKey]) -> None:
        self.admitted.update(dict.fromkeys(keys, True))
        self._hand_off()
        self._after_verification()

    def _after_verification(self) -> None:
        self._rearm_proposer(arm_timer=True)

    def ready_requests(self) -> list[ClientRequest]:
        """Verified pending requests not already being ordered.

        Special (reconfiguration) requests are isolated so they land in
        their own blocks: a batch is either all-normal, a group of 'remove'
        votes (which the paper notes can be batched), or a single other
        special request.
        """
        limit = self.config.batch_size
        inflight = self.inflight
        admitted = self.admitted
        parallel = self.config.verification is VerificationMode.PARALLEL
        out: list[ClientRequest] = []
        for key, req in self.pending.items():
            if key in inflight:
                continue
            if parallel and req.signed and not admitted[key]:
                continue
            if req.special:
                if not out:
                    if req.special != "remove":
                        return [req]
                    out.append(req)
                elif out[0].special == "remove" and req.special == "remove":
                    out.append(req)
                else:
                    break
            else:
                if out and out[0].special:
                    break
                out.append(req)
            if len(out) >= limit:
                break
        return out

    # ==================================================================
    # Proposing (leader)
    # ==================================================================
    @property
    def is_leader(self) -> bool:
        return self.cv.leader(self.regency) == self.id

    @property
    def pipeline_window(self) -> int:
        """Effective in-flight consensus window: the configured
        ``pipeline_depth`` capped by what the engine supports."""
        return min(self.config.pipeline_depth, self.engine.max_pipeline)

    def maybe_propose(self) -> None:
        """Propose loop: start instances until the window — the
        ``pipeline_window`` cids after ``last_decided`` — is full or ready
        requests run out.  Sequential ordering is a window of one.
        Consecutive batches are disjoint: ``propose`` marks its batch in
        flight and ``ready_requests`` skips in-flight keys."""
        if self.crashed or not self.active or not self.is_leader:
            return
        if self.synchronizer.in_sync_phase:
            return
        config = self.config
        window = self.pipeline_window
        while True:
            next_cid = self._next_window_cid()
            if next_cid is None:
                self._arm_stall_watch()
                # A full window whose head has no instance yet (its
                # self-addressed PROPOSE is still in flight) still lets a
                # sub-batch start the batch timer.  At depth 1 that timer
                # then runs from here rather than from the head's decision;
                # without this rule Dura-SMaRt loses a third of its tx/s.
                if self.engine.has_open_proposal(self.last_decided + 1):
                    return
            if self.delivery.backlog >= config.max_pending_decisions:
                return  # flow control: let the delivery pipeline drain
            ready = self.ready_requests()
            if not ready:
                return
            if len(ready) < config.batch_size:
                if self._batch_timer is None:
                    self._batch_timer = self.sim.schedule(
                        config.batch_timeout,
                        self.guard(self._batch_timeout_fired))
                return
            if next_cid is None:
                return
            self.cancel_batch_timer()
            obs = self.sim.obs
            if obs.enabled and window > 1:  # a window of one has no depth
                obs.metrics.histogram("pipeline.depth", node=self.id).observe(
                    next_cid - self.last_decided)
            self.engine.propose(ready[: config.batch_size], cid=next_cid)
            self._proposed_head = max(self._proposed_head, next_cid)
            self._arm_stall_watch()
            if next_cid == self.last_decided + window:
                # The last slot is taken and its PROPOSE is in flight: stop
                # here, or the rule above would time a leftover sub-batch
                # from this call.
                return

    def _next_window_cid(self) -> int | None:
        """First unproposed cid in the window, or None when it is full.

        ``_proposed_head`` covers cids whose self-addressed PROPOSE is still
        in flight (the engine creates the instance only on delivery);
        ``has_open_proposal`` covers instances adopted from a SYNC.
        """
        next_cid = max(self.last_decided, self._proposed_head) + 1
        limit = self.last_decided + self.pipeline_window
        while next_cid <= limit and self.engine.has_open_proposal(next_cid):
            next_cid += 1
        return next_cid if next_cid <= limit else None

    def _batch_timeout_fired(self) -> None:
        """The batch timer ran out: propose whatever is ready, sub-batch or
        not, into the window's next free slot."""
        self._batch_timer = None
        if self.crashed or not self.active or not self.is_leader:
            return
        if self.synchronizer.in_sync_phase:
            return
        next_cid = self._next_window_cid()
        if next_cid is None:
            return
        if self.delivery.backlog >= self.config.max_pending_decisions:
            return  # maybe_propose re-arms once the pipeline drains
        ready = self.ready_requests()
        if ready:
            self.engine.propose(ready[: self.config.batch_size], cid=next_cid)
            self._proposed_head = max(self._proposed_head, next_cid)
            self._arm_stall_watch()

    def cancel_batch_timer(self) -> None:
        """Stop the batching timer (a proposal is going out another way)."""
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None

    def reset_proposer(self) -> None:
        """Forget the propose window (regency change / state transfer):
        whoever leads next re-proposes the abandoned cids from scratch."""
        self._proposed_head = -1
        if self._stall_timer is not None:
            self._stall_timer.cancel()
            self._stall_timer = None

    def _rearm_proposer(self, *, kick: bool = False,
                        arm_timer: bool = False) -> None:
        """Single re-arm point for the propose gate: every path that can
        unblock proposing — verification completing, a decision landing, a
        view installing, state transfer finishing — funnels through here."""
        if kick:
            self.engine.kick_pending()
        self.maybe_propose()
        if arm_timer:
            self.synchronizer.arm_request_timer()

    def _arm_stall_watch(self) -> None:
        """Watchdog for a stalled pipeline (window > 1 only): withheld
        votes for one instance must not starve the whole window silently —
        if no decision lands for half a request timeout while instances are
        in flight, a typed ``pipeline-stalled`` event is emitted.  (The
        regency change that actually heals the stall comes later, from the
        ordinary request timer.)"""
        if self.pipeline_window <= 1 or self._stall_timer is not None:
            return
        self._stall_marker = self.last_decided
        self._stall_timer = self.sim.schedule(
            self.config.request_timeout / 2, self.guard(self._stall_check))

    def _stall_check(self) -> None:
        self._stall_timer = None
        if self.crashed or not self.active or not self.is_leader:
            return
        if self.synchronizer.in_sync_phase:
            return
        head = self.last_decided + 1
        in_flight = [
            c for c in range(head, self.last_decided + self.pipeline_window + 1)
            if self.engine.has_open_proposal(c)]
        if not in_flight:
            return
        if self.last_decided == self._stall_marker:
            self.pipeline_stalls += 1
            rt = self.runtime
            if rt.observing:
                rt.notify("pipeline-stalled", head_cid=head,
                          open_instances=len(in_flight),
                          idle=self.config.request_timeout / 2,
                          regency=self.regency)
            obs = self.sim.obs
            if obs.enabled:
                obs.metrics.counter("pipeline.stalls", node=self.id).inc()
        self._arm_stall_watch()

    # ==================================================================
    # Decision sequencing and delivery
    # ==================================================================
    def handle_decision(self, decision: Decision) -> None:
        """Sequence a decision (from consensus, sync phase or catch-up) and
        deliver it (and any buffered successors) in cid order."""
        if decision.cid <= self.last_decided:
            return
        self.decision_buffer[decision.cid] = decision
        while self.last_decided + 1 in self.decision_buffer:
            ready = self.decision_buffer.pop(self.last_decided + 1)
            self._deliver(ready)
        # A buffered future proposal may now be processable.
        self._rearm_proposer(kick=True)

    def _deliver(self, decision: Decision) -> None:
        self.last_decided = decision.cid
        self.decided_count += 1
        self.engine.on_delivered(decision.cid)
        for req in decision.batch:
            self.pending.pop(req.key, None)
            self.inflight.discard(req.key)
        obs = self.sim.obs
        if obs.trace_pipeline:
            obs.trace_cid(self.id, decision.cid, "accept", self.sim.now)
        rt = self.runtime
        if rt.observing:
            rt.notify("decide", cid=decision.cid, batch=len(decision.batch),
                      batch_hash=decision.batch_hash.hex(),
                      regency=decision.regency)
        self.synchronizer.on_progress()
        self._handoff.append(decision)
        self._hand_off()

    def _hand_off(self) -> None:
        """Pass decisions to the delivery layer in cid order: the head
        leaves once its signed requests are verified (PARALLEL only)."""
        queue = self._handoff
        pooled = self.config.verification is VerificationMode.PARALLEL
        admitted = self.admitted
        while queue:
            if pooled and any(r.signed and not admitted.get(r.key)
                              for r in queue[0].batch):
                return
            head = queue.popleft()
            if (head.batch and head.batch[0].special == "vmview"
                    and self.config.view_manager_public is not None):
                self._apply_view_manager_request(head)
                self._rearm_proposer()
            else:
                self.delivery.on_decide(head)

    def note_executed(self, decision: Decision) -> None:
        """Called by the delivery layer once a decision's batch executed."""
        self.last_executed = max(self.last_executed, decision.cid)
        self.executed_tx_count += len(decision.batch)
        rt = self.runtime
        if rt.observing:
            rt.notify("execute", cid=decision.cid,
                      batch=len(decision.batch), regency=decision.regency)

    def send_replies(self, results: dict[RequestKey, tuple[Any, bytes]],
                     requests: list[ClientRequest],
                     block_number: int | None = None) -> None:
        """Group per-station reply batches and transmit them."""
        by_station: dict[int, dict[RequestKey, tuple[Any, bytes]]] = {}
        sizes: dict[int, int] = {}
        for req in requests:
            result = results.get(req.key)
            if result is None:
                continue
            station = req.station
            bucket = by_station.get(station)
            if bucket is None:
                bucket = by_station[station] = {}
                sizes[station] = 0
            bucket[req.key] = result
            sizes[station] += req.reply_size
        for station, payload in by_station.items():
            msg = ReplyBatchMsg(replica_id=self.id, results=payload,
                                block_number=block_number,
                                size=sizes[station] + 32)
            self.send(station, msg)

    # ==================================================================
    # Gap healing
    # ==================================================================
    def arm_gap_check(self) -> None:
        """Engines call this when they buffer an out-of-order proposal."""
        if self._gap_timer is not None:
            return
        self._gap_timer = self.sim.schedule(
            self.config.request_timeout, self.guard(self._gap_check))

    def _gap_check(self) -> None:
        self._gap_timer = None
        if self.engine.earliest_buffered() is None:
            return
        self.engine.kick_pending()
        gap_start = self.engine.earliest_buffered()
        if gap_start is None:
            return
        if gap_start <= self.last_decided + self.pipeline_window:
            self.arm_gap_check()
            return  # next proposal is within the window; progress resumes
        # A hole: decisions between last_decided and the earliest buffered
        # proposal can no longer be obtained from live traffic — fetch them
        # via state transfer.
        if not self.state_transfer.in_progress:
            self.state_transfer.start(lambda _cid: None)
        self.arm_gap_check()

    def _apply_view_manager_request(self, decision: Decision) -> None:
        """Classic BFT-SMART reconfiguration: a totally-ordered request
        signed by the trusted View Manager updates the replica set.  The
        request never reaches the application (Section II-C3)."""
        from repro.smr.viewmanager import validate_vm_request
        request = decision.batch[0]
        new_view = validate_vm_request(request,
                                       self.config.view_manager_public,
                                       self.registry)
        if new_view is None or new_view.view_id <= self.cv.view_id:
            result = ("error", "unauthorized reconfiguration")
        else:
            self.install_view(new_view)
            result = ("view", new_view.view_id, tuple(new_view.members))
        digest = hash_obj(("vm", request.client_id, request.req_id,
                           repr(result)))
        self.send_replies({request.key: (result, digest)}, [request])
        self.note_executed(decision)

    # ==================================================================
    # View installation
    # ==================================================================
    def install_view(self, new_view: View) -> None:
        """Adopt ``new_view`` (delivered in total order by a reconfiguration).

        Consensus state of undecided instances is reset: the new view's
        membership decides them under fresh quorums.
        """
        if new_view.view_id <= self.cv.view_id:
            return
        self.cv = new_view
        self.rotate_keys(new_view)
        self.regency = 0
        self.synchronizer.on_view_installed()
        self.engine.on_view_installed(new_view)
        self.inflight.clear()
        rt = self.runtime
        if rt.observing:
            rt.notify("view-change", view=new_view.view_id,
                      members=list(new_view.members))
        if not new_view.contains(self.id):
            self.active = False
        self._rearm_proposer()

    # ==================================================================
    # Crash / recovery
    # ==================================================================
    def crash(self) -> None:
        """Recoverable crash: all volatile state is lost, stable store keeps
        only what a completed sync covered."""
        if self.crashed:
            return
        self.crashed = True
        self._incarnation += 1
        self.net.unregister(self.id)
        self.cancel_batch_timer()
        if self._gap_timer is not None:
            self._gap_timer.cancel()
            self._gap_timer = None
        self.reset_proposer()
        self.synchronizer.on_crash()
        self.state_transfer.on_crash()
        self.engine.on_crash()
        self.pending.clear()
        self.admitted.clear()
        self.inflight.clear()
        self.decision_buffer.clear()
        self._handoff.clear()
        self.last_decided = -1
        self.last_executed = -1
        self.store.crash()
        self.delivery.on_crash()
        rt = self.runtime
        if rt.observing:
            rt.notify("crash", incarnation=self._incarnation)

    def stand_at(self, cid: int) -> None:
        """Stand at ``cid`` (state installed or reloaded through it): drop
        the decisions and instances that covers, restart the window."""
        self.last_decided = cid
        self.last_executed = cid
        self.decision_buffer = {
            c: d for c, d in self.decision_buffer.items() if c > cid}
        self._handoff.clear()
        self.engine.discard_through(cid)
        self.reset_proposer()

    def recover(self, on_ready: Callable[[], None] | None = None) -> None:
        """Restart after a crash: reload local stable state, then run state
        transfer to catch up before participating again (recovery mode,
        Section III-b)."""
        if not self.crashed:
            return
        self.crashed = False
        self.active = False
        self.endpoint = self.net.register(self.id, self.runtime.deliver)
        recovered = self.delivery.recover_local()
        self.stand_at(recovered)
        rt = self.runtime
        if rt.observing:
            fields = dict(local_cid=recovered, height=self.delivery.height)
            info = self.delivery.recovery.last
            if info is not None:
                # Replay evidence for the recovery auditor: the [cid,
                # recomputed batch hash] pairs of the replayed prefix.
                fields.update(replayed=info["replayed"],
                              verified=info["verified"],
                              truncated=info["truncated"])
            rt.notify("recovering", **fields)

        def done(target_cid: int) -> None:
            self.active = True
            self.regency = 0
            if rt.observing:
                rt.notify("recover", cid=target_cid,
                          height=self.delivery.height)
            if on_ready is not None:
                on_ready()

        self.state_transfer.start(done)
