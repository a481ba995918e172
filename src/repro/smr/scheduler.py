"""Deterministic parallel execution over a modeled core pool.

The paper's Table I shows the execution stage becoming the bottleneck once
signature verification moves off the state-machine thread; DISPEL
("Byzantine SMR with Distributed Pipelining", PAPERS.md) argues the next
factor comes from executing non-conflicting operations concurrently.  This
module models exactly that, without giving up determinism:

1. :func:`plan_batch` builds a dependency schedule over a decided batch
   from the application's :meth:`~repro.smr.service.Application.conflict_keys`
   declarations — each operation lands on the earliest *level* compatible
   with every conflicting predecessor (write/write, write/read and
   read/write conflicts order operations; an op declaring ``None`` is a
   barrier: it waits for everything before it and blocks everything after).
2. :func:`charge_execution` is how every delivery layer charges execution.
   Without an execution pool (``exec_cores=1``) the levels would run back
   to back, so the whole batch is one state-machine-thread job.  With a
   pool (``Resource(servers=exec_cores)``) the per-transaction work of
   each level is charged onto it, one level after another, then the
   continuation runs; per-batch work stays on the state-machine thread.

Only the *timing* is parallel.  The batch itself is still executed by
``Application.execute_batch`` in sequence order on one interpreter, so
results, reply payloads, digests and the blockchain layer are byte-identical
for every core count; levels are derived deterministically from batch order.
An application that declares no footprints makes every operation a barrier,
so on a pool its levels run one operation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.config import VerificationMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.smr.replica import ModSmartReplica
    from repro.smr.requests import ClientRequest
    from repro.smr.service import Application

__all__ = ["ExecutionPlan", "plan_batch", "per_tx_cost", "charge_execution"]


@dataclass
class ExecutionPlan:
    """Topological schedule of one batch: ``levels[i]`` may run concurrently
    once every level before it completed."""

    levels: list[list["ClientRequest"]]
    #: Operations that declared no footprint and forced a barrier.
    barrier_ops: int

    @property
    def critical_path(self) -> int:
        return len(self.levels)


def plan_batch(app: "Application",
               batch: "list[ClientRequest]") -> ExecutionPlan:
    """Assign every operation of ``batch`` (in order) to its earliest
    compatible level.  Deterministic: a pure function of the batch order
    and the application's conflict declarations."""
    last_write: dict = {}   # key -> level of the latest writer
    last_read: dict = {}    # key -> latest level with a reader
    levels: list[list] = []
    barrier_ops = 0
    max_level = -1          # highest level assigned so far
    barrier_floor = 0       # first level allowed after the latest barrier
    for req in batch:
        footprint = app.conflict_keys(req)
        if footprint is None:
            # Barrier: after everything so far, before everything later.
            level = max(max_level + 1, barrier_floor)
            barrier_floor = level + 1
            barrier_ops += 1
        else:
            reads, writes = footprint
            level = barrier_floor
            for key in writes:
                w = last_write.get(key)
                if w is not None and w >= level:
                    level = w + 1
                r = last_read.get(key)
                if r is not None and r >= level:
                    level = r + 1
            for key in reads:
                w = last_write.get(key)
                if w is not None and w >= level:
                    level = w + 1
            for key in writes:
                last_write[key] = level
            for key in reads:
                if last_read.get(key, -1) < level:
                    last_read[key] = level
        while len(levels) <= level:
            levels.append([])
        levels[level].append(req)
        if level > max_level:
            max_level = level
    return ExecutionPlan(levels=levels, barrier_ops=barrier_ops)


def per_tx_cost(replica: "ModSmartReplica", req: "ClientRequest") -> float:
    """The per-transaction work of executing ``req`` — execution, reply
    marshalling, signed-request overhead and (in the SEQUENTIAL mode) the
    signature check.  This is the independent, parallelizable work."""
    costs = replica.costs
    work = costs.exec_time_per_tx + costs.reply_time_per_tx
    if req.signed:
        work += costs.signed_tx_sm_overhead
        if replica.config.verification is VerificationMode.SEQUENTIAL:
            work += costs.crypto.verify_time
    return work


def charge_execution(replica: "ModSmartReplica", app: "Application",
                     batch: "list[ClientRequest]", serial: tuple[float, ...],
                     fn: Callable[..., None], *args) -> None:
    """Charge the modeled cost of executing ``batch``, then run ``fn(*args)``.

    ``serial`` holds the caller's own state-machine-thread terms (block
    building, body hashing, durability logging, ...); the per-batch
    overhead is added here.  Without an exec pool the batch is one
    state-machine-thread job: the overhead, the per-transaction work, then
    ``serial``.  With a pool the state-machine thread charges the overhead
    and ``serial`` first; each dependency level of the plan is then an
    aggregate pool job (makespan = level work spread over the cores),
    chained in order.

    Terms are summed in exactly that order: float addition does not
    associate, and a reordered sum moves event timestamps by an ulp.
    """
    costs = replica.costs
    work = costs.batch_overhead
    pool = replica.exec_pool
    if pool is None:
        work += len(batch) * (costs.exec_time_per_tx + costs.reply_time_per_tx)
        signed = sum(1 for req in batch if req.signed)
        work += signed * costs.signed_tx_sm_overhead
        if replica.config.verification is VerificationMode.SEQUENTIAL:
            work += signed * costs.crypto.verify_time
        for term in serial:
            work += term
        replica.charge_sm(work, fn, *args)
        return
    for term in serial:
        work += term
    plan = plan_batch(app, batch)
    obs = replica.sim.obs
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("exec.parallel_batches", node=replica.id).inc()
        metrics.histogram("exec.critical_path",
                          node=replica.id).observe(plan.critical_path)
        if plan.barrier_ops:
            metrics.counter("exec.barrier_ops",
                            node=replica.id).inc(plan.barrier_ops)
    levels = plan.levels

    def run_level(index: int) -> None:
        if index >= len(levels):
            fn(*args)
            return
        level = levels[index]
        total = 0.0
        for req in level:
            total += per_tx_cost(replica, req)
        # Aggregate pool job: mean unit x count spreads the level's work
        # evenly over the cores (same modeling as the verification pool).
        pool.submit_bulk(total / len(level), len(level),
                         replica.guard(run_level), index + 1)

    replica.charge_sm(work, run_level, 0)
