"""Interfaces between the ordering core, delivery layers and applications.

The replica core (``repro.smr.replica``) totally orders batches; what happens
to a decided batch is the job of a *delivery layer*:

- :class:`MemoryDelivery` — execute immediately, keep the log in memory
  (∞-Persistence; the PBFT-style state transfer baseline);
- the naive application-level blockchain (``repro.apps``) — Table I;
- the Dura-SMaRt durability layer (``repro.smr.durability``);
- the SMARTCHAIN blockchain layer (``repro.core``) — the paper's contribution.

Applications implement :class:`Application`: deterministic execution over
ordered batches plus snapshot/install for state transfer.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable

from repro.config import StorageMode
from repro.smr import scheduler
from repro.smr.recovery import RecoveryStats, Replay
from repro.smr.requests import ClientRequest, Decision
from repro.storage.stable import AsyncFlusher, checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.smr.replica import ModSmartReplica

__all__ = ["Application", "DeliveryLayer", "MemoryDelivery", "ExecutionResult"]

#: (result payload, result digest) — the digest is what client stations
#: match across replicas to assemble a reply quorum.
ExecutionResult = tuple[Any, bytes]


class Application(abc.ABC):
    """A deterministic replicated service (Section II-B requirements)."""

    @abc.abstractmethod
    def execute(self, request: ClientRequest) -> ExecutionResult:
        """Apply one operation; must be deterministic."""

    @abc.abstractmethod
    def snapshot(self) -> tuple[Any, int]:
        """Return (opaque snapshot, serialized size in bytes)."""

    @abc.abstractmethod
    def install_snapshot(self, snapshot: Any) -> None:
        """Replace the service state with ``snapshot``."""

    def execute_batch(self, batch: list[ClientRequest]) -> dict:
        """Execute a batch in order; returns request key -> ExecutionResult."""
        return {req.key: self.execute(req) for req in batch}

    def execute_rows(self, batch: list[ClientRequest]
                     ) -> tuple[dict, tuple[tuple, ...]]:
        """:meth:`execute_batch` for a layer that records results: also
        returns the result rows ``(client_id, req_id, repr(result),
        digest)`` of the batch, in result order — a block's result table.
        An application whose replicas all derive the same row may hand
        each of them the same tuple (SMaRtCoin does)."""
        results = self.execute_batch(batch)
        return results, tuple([(key[0], key[1], repr(value[0]), value[1])
                               for key, value in results.items()])

    def conflict_keys(
            self, request: ClientRequest) -> tuple[tuple, tuple] | None:
        """Per-operation ``(reads, writes)`` key sets for the parallel
        execution scheduler (:mod:`repro.smr.scheduler`), or ``None`` when
        the operation's footprint cannot be bounded before execution (the
        scheduler then serializes it as a barrier).

        Two operations conflict when one writes a key the other reads or
        writes; non-conflicting operations may be *timed* as concurrent.
        Execution itself always runs in sequence order on one interpreter,
        so results stay deterministic regardless of core count — the sets
        shape only the modeled makespan.

        The base implementation declares every operation a barrier, so an
        application without footprints is all barriers on a pool: each
        operation is its own level, timed one after another, exactly as a
        declared barrier is.
        """
        return None


class DeliveryLayer(abc.ABC):
    """Receives decisions in cid order; owns execution, durability, replies."""

    replica: "ModSmartReplica"
    #: How the layer writes its log (durable layers set it per instance).
    storage = StorageMode.MEMORY
    #: Background flusher of ``ASYNC`` storage (λ-Persistence).
    _flusher: AsyncFlusher | None = None
    #: Tallies and last report of this layer's local recoveries.
    recovery: RecoveryStats
    #: Highest cid whose batch this layer has executed (−1: none); a
    #: state-transfer server waits until it reaches the agreed target.
    executed_cid: int

    def attach(self, replica: "ModSmartReplica") -> None:
        self.replica = replica
        self.recovery = RecoveryStats()
        if self.storage is StorageMode.ASYNC:
            self._flusher = AsyncFlusher(
                replica.store, replica.config.async_flush_interval)
            self._flusher.start()

    @property
    def backlog(self) -> int:
        """Decisions delivered but not yet fully processed (flow control)."""
        return 0

    @property
    def height(self) -> int:
        """Height of the chain this layer keeps (−1: it keeps none)."""
        return -1

    def metrics(self) -> dict[str, Any]:
        """The layer's own progress figures (blocks, certificates, group
        commits ...) as this replica saw them, for the run's metrics."""
        return {}

    @abc.abstractmethod
    def on_decide(self, decision: Decision) -> None:
        """Handle the next decision (called in strict cid order)."""

    # -- State transfer hooks -------------------------------------------
    def transfer_base(self) -> tuple[int, bytes] | None:
        """The verified chain head ``(block number, digest)`` a state
        transfer may build on, sent with the request so that a server
        holding the same block ships only what comes after it; ``None``
        for a layer (or a replica) that holds no chain."""
        return None

    @abc.abstractmethod
    def capture_state(self, up_to_cid: int | None = None,
                      base: tuple[int, bytes] | None = None
                      ) -> tuple[Any, int]:
        """(opaque state package, serialized size) for a state transfer.

        Layers that can serve historical state honor ``up_to_cid`` so that
        any two correct replicas serve identical packages for the same
        target; simpler layers may serve their current state.  ``base`` is
        the requester's :meth:`transfer_base`: a layer that keeps a chain
        and holds that block ships the blocks after it, every other case
        the whole state."""

    @abc.abstractmethod
    def install_state(self, package: Any) -> None:
        """Install a state package received via state transfer.  Raises
        :class:`~repro.errors.LedgerError`, before changing anything, when
        the package does not extend what this replica holds."""

    def package_digest(self, package: Any) -> bytes:
        """Commitment to the *whole* deterministic content of a state
        package — what f+1 servers must agree on before it is installed.
        Snapshot packages are committed like a stored record: the canonical
        digest, or that of the ``repr`` text where the encoder refuses the
        snapshot.  Layers whose packages embed replica-local artifacts
        (certificates, decision proofs — valid quorum subsets differ across
        replicas) leave those out."""
        return checksum(package)

    def install_cost(self, package: Any) -> float:
        """SM-thread seconds needed to install ``package`` (deserialization
        plus any replay).  Layers with replayable suffixes override this."""
        return 0.0

    def can_self_verify(self) -> bool:
        """True when a state package from a *single* untrusted peer can be
        validated standalone (strong-variant chains: certificates)."""
        return False

    def verify_package(self, package: Any) -> bool:
        """Validate a self-verifiable package (only called when
        :meth:`can_self_verify` peers offered it)."""
        return False

    def reconcile_local(self, supported_cid: int) -> int:
        """Full-crash reconciliation: the recovery group supports history up
        to ``supported_cid``; layers without self-verifiable evidence must
        drop anything beyond it (the weak variant's lost suffix).  Returns
        the consensus id the replica should resume from."""
        return min(self.replica.last_decided, supported_cid)

    # -- Crash/recovery hooks -------------------------------------------
    def on_crash(self) -> None:
        """Volatile cleanup when the replica crashes."""
        if self._flusher is not None:
            self._flusher.stop()

    def begin_recovery(self) -> Replay:
        """Restart background flushing and open the verified replay a
        durable layer's :meth:`recover_local` runs its log through."""
        if self._flusher is not None:
            self._flusher.start()
        return Replay(self.replica, self.recovery)

    def recover_local(self) -> int:
        """Restore from local stable storage; returns last recovered cid
        (−1 when nothing survives).  Durable layers run the shared
        verified replay (:class:`repro.smr.recovery.Replay`) over their
        log and supply only its linkage predicate and apply step."""
        return -1


class SequentialDelivery(DeliveryLayer):
    """Base for delivery layers that process one decision at a time.

    Algorithm 1 runs as a sequential handler above the consensus layer: the
    processing of decision N+1 (execution, block close, PERSIST wait)
    starts only after N fully completes, while consensus keeps ordering
    ahead.  Subclasses implement :meth:`process` and call ``done()`` when
    the decision is fully handled.
    """

    def __init__(self) -> None:
        self._queue: list[Decision] = []
        self._busy = False
        #: State installs so far: work charged under an earlier count is
        #: stale (see :meth:`current`).
        self._installs = 0

    def on_decide(self, decision: Decision) -> None:
        self._queue.append(decision)
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        decision = self._queue.pop(0)
        self.process(decision, self.current(self._done))

    def current(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a step of processing a decision so that it is dropped if a
        state install lands before it runs — what it would build on is
        gone, the way ``replica.guard`` drops work across a crash."""
        installs = self._installs

        def wrapper(*args: Any) -> None:
            if self._installs == installs:
                fn(*args)

        return wrapper

    def charge_sm(self, seconds: float, fn: Callable[..., Any],
                  *args: Any) -> None:
        """SM-thread work on the decision being processed (:meth:`current`)."""
        self.replica.charge_sm(seconds, self.current(fn), *args)

    def superseded(self) -> None:
        """A state install carried the layer past every decision queued or
        in flight: forget them."""
        self._installs += 1
        self._queue.clear()
        self._busy = False

    def _done(self) -> None:
        self._busy = False
        self._pump()
        # Backlog drained below the flow-control bound: the leader may
        # propose again.
        self.replica.maybe_propose()

    def process(self, decision: Decision, done) -> None:
        raise NotImplementedError

    def on_crash(self) -> None:
        super().on_crash()
        self._queue.clear()
        self._busy = False

    @property
    def backlog(self) -> int:
        """Decisions decided but not yet processed."""
        return len(self._queue) + (1 if self._busy else 0)


class MemoryDelivery(DeliveryLayer):
    """Simplest delivery layer: execute on the SM thread, log in memory.

    This is BFT-SMART's default (PBFT-like) mode: the request log lives in
    memory and is lost on crash — recovery relies entirely on state transfer
    from other replicas.  Used as the ∞-Persistence baseline and in protocol
    unit tests.
    """

    def __init__(self, app: Application):
        self.app = app
        self.log: list[Decision] = []
        self.executed_cid = -1

    def on_decide(self, decision: Decision) -> None:
        scheduler.charge_execution(self.replica, self.app, decision.batch,
                                   (), self._apply, decision)

    def _apply(self, decision: Decision) -> None:
        results = self.app.execute_batch(decision.batch)
        self.log.append(decision)
        self.executed_cid = decision.cid
        self.replica.send_replies(results, decision.batch)
        self.replica.note_executed(decision)

    def capture_state(self, up_to_cid: int | None = None,
                      base: tuple[int, bytes] | None = None
                      ) -> tuple[Any, int]:
        snapshot, nbytes = self.app.snapshot()
        return (self.executed_cid, snapshot), nbytes

    def install_state(self, package: Any) -> None:
        cid, snapshot = package
        self.app.install_snapshot(snapshot)
        self.executed_cid = cid
        self.log.clear()

    def on_crash(self) -> None:
        self.log.clear()
        self.executed_cid = -1
