"""The naive application-level blockchain (Section IV: SMaRtCoin on BFT-SMART).

This is the design whose limitations the paper demonstrates: the replicated
*application* builds and persists the blockchain inside the state machine.
Per delivered batch it (1) executes the transactions, (2) serializes a block
containing the batch and the results — paying the per-transaction block
building cost on the single execution thread — and (3) writes the block to
stable storage before replying (in the synchronous setup).

It provides only *external durability* (Observation 2): no certificates, so
a single replica's chain is not self-verifiable evidence, and a suffix of
the history can be undone after a full crash.
"""

from __future__ import annotations

from typing import Any

from repro.config import StorageMode
from repro.crypto.hashing import EMPTY_DIGEST, hash_obj_cached
from repro.smr import scheduler
from repro.smr.recovery import LINKED
from repro.smr.requests import Decision
from repro.smr.service import Application, SequentialDelivery

__all__ = ["NaiveBlockchainDelivery"]


class NaiveBlockchainDelivery(SequentialDelivery):
    """Delivery layer reproducing the Table I SMaRtCoin setups."""

    LOG = "naive-chain"

    def __init__(self, app: Application, storage: StorageMode = StorageMode.SYNC):
        super().__init__()
        self.app = app
        self.storage = storage
        self.chain: list[dict] = []         # in-memory copy of what was built
        self.prev_hash = EMPTY_DIGEST
        self.executed_cid = -1
        self.blocks_built = 0

    def metrics(self) -> dict[str, Any]:
        return {"blocks": self.blocks_built}

    # ------------------------------------------------------------------
    # Sequential processing (one batch at a time, like the real service)
    # ------------------------------------------------------------------
    def process(self, decision: Decision, done) -> None:
        costs = self.replica.costs
        block_bytes = decision.payload_bytes() + 160
        scheduler.charge_execution(
            self.replica, self.app, decision.batch,
            (costs.naive_ledger_build_per_tx * len(decision.batch),
             costs.crypto.hash_time_per_kb * (block_bytes / 1024)),
            self._apply, decision, done)

    def _apply(self, decision: Decision, done) -> None:
        replica = self.replica
        results, rows = self.app.execute_rows(decision.batch)
        block = self._build_block(decision, rows)
        self.chain.append(block)
        self.blocks_built += 1
        self.executed_cid = decision.cid
        obs = replica.sim.obs
        if obs.enabled:
            obs.metrics.counter("chain.blocks_built", node=replica.id).inc()
        if obs.trace_pipeline:
            obs.trace_cid(replica.id, decision.cid, "execute", replica.sim.now)
        if self.storage is not StorageMode.MEMORY:
            replica.store.append(self.LOG, block, block["nbytes"])
        if self.storage is StorageMode.SYNC:
            # The service blocks until the block is on stable media, then
            # replies (Section IV-A: "once this block is synchronously
            # written ... each replica replies to the clients").
            replica.store.sync(self._reply, decision, results, done)
        else:
            self._reply(decision, results, done)

    def _reply(self, decision: Decision, results: dict, done) -> None:
        replica = self.replica
        obs = replica.sim.obs
        if obs.trace_pipeline and self.storage is StorageMode.SYNC:
            obs.trace_cid(replica.id, decision.cid, "body_write",
                          replica.sim.now)
        replica.send_replies(results, decision.batch,
                             block_number=len(self.chain))
        replica.note_executed(decision)
        done()

    def _build_block(self, decision: Decision, rows: tuple) -> dict:
        payload = [(req.client_id, req.req_id, req.op_repr)
                   for req in decision.batch]
        # This layer records no result digests: the rows' first three
        # fields, sharing their ``repr(result)`` strings.
        result_list = [row[:3] for row in rows]
        # The content-addressed memo dedupes the n identical per-replica
        # block builds (and, in the store, their checksums).
        header_hash = hash_obj_cached(
            ("naive", len(self.chain) + 1, self.prev_hash,
             payload, result_list))
        block = {
            "number": len(self.chain) + 1,
            "prev": self.prev_hash,
            "consensus_id": decision.cid,
            "transactions": payload,
            "results": result_list,
            "hash": header_hash,
            "nbytes": decision.payload_bytes()
                      + sum(len(r[2]) + 48 for r in result_list) + 160,
        }
        self.prev_hash = header_hash
        return block

    # ------------------------------------------------------------------
    # State transfer / recovery
    # ------------------------------------------------------------------
    def capture_state(self, up_to_cid: int | None = None,
                      base: tuple[int, bytes] | None = None
                      ) -> tuple[Any, int]:
        snapshot, nbytes = self.app.snapshot()
        return (self.executed_cid, snapshot, self.prev_hash,
                len(self.chain)), nbytes

    def install_state(self, package: Any) -> None:
        cid, snapshot, prev_hash, height = package
        self.app.install_snapshot(snapshot)
        self.executed_cid = cid
        self.prev_hash = prev_hash
        self.chain = []  # history before the snapshot is not replayed here

    def recover_local(self) -> int:
        """Reload the chain through the shared verified replay
        (:mod:`repro.smr.recovery`).  Only the chain is recovered locally:
        rebuilding application state would require re-execution, which the
        recovering replica leaves to state transfer — so the executed cid
        stays −1, and there is no replay evidence (the block payload drops
        the requests' ``special`` flag, so the decide-time batch hash
        cannot be recomputed from it)."""
        self.chain = []
        replay = self.begin_recovery()
        recovered_cid = replay.replay(self.LOG, self._adopt, self._links)
        replay.finish(self.executed_cid)
        if self.chain:
            self.prev_hash = self.chain[-1]["hash"]
        return recovered_cid

    def _adopt(self, block: dict) -> int:
        self.chain.append(block)
        return block["consensus_id"]

    @staticmethod
    def _links(previous: dict | None, block: dict) -> str:
        """A block extends the prefix by back-pointer and height; one that
        does not is a torn write, or an append after a state transfer
        rebased the chain — nothing past it is trustworthy here."""
        prev_hash, number = ((previous["hash"], previous["number"] + 1)
                             if previous is not None else (EMPTY_DIGEST, 1))
        if block.get("prev") != prev_hash or block.get("number") != number:
            return "chain-linkage"
        return LINKED

    def on_crash(self) -> None:
        super().on_crash()
        self.chain.clear()
        self.prev_hash = EMPTY_DIGEST
        self.executed_cid = -1
