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
from repro.smr.requests import Decision
from repro.smr.service import Application, SequentialDelivery
from repro.storage.stable import AsyncFlusher

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
        self._flusher: AsyncFlusher | None = None
        self.blocks_built = 0
        # Verified-recovery outcome (rolled into run metrics, docs/faults.md).
        self.recovery_verified_entries = 0
        self.recovery_truncated_entries = 0
        self.recovery_fallbacks = 0
        #: Report of the most recent recover_local (None before the first).
        self.last_recovery: dict | None = None

    def attach(self, replica) -> None:
        super().attach(replica)
        if self.storage is StorageMode.ASYNC:
            self._flusher = AsyncFlusher(
                replica.store, replica.config.async_flush_interval)
            self._flusher.start()

    # ------------------------------------------------------------------
    # Sequential processing (one batch at a time, like the real service)
    # ------------------------------------------------------------------
    def process(self, decision: Decision, done) -> None:
        replica = self.replica
        costs = replica.costs
        work = replica.execution_cost(decision.batch)
        work += costs.naive_ledger_build_per_tx * len(decision.batch)
        block_bytes = decision.payload_bytes() + 160
        work += costs.crypto.hash_time_per_kb * (block_bytes / 1024)
        replica.charge_sm(work, self._apply, decision, done)

    def _apply(self, decision: Decision, done) -> None:
        replica = self.replica
        results = self.app.execute_batch(decision.batch)
        block = self._build_block(decision, results)
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

    def _build_block(self, decision: Decision, results: dict) -> dict:
        payload = [(req.client_id, req.req_id, req.op_repr)
                   for req in decision.batch]
        result_list = [(key[0], key[1], repr(value[0]))
                       for key, value in results.items()]
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
    def capture_state(self, up_to_cid: int | None = None) -> tuple[Any, int]:
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
        if self._flusher is not None:
            self._flusher.start()
        replica = self.replica
        store = replica.store
        if not replica.config.verify_recovery:
            self.chain = list(store.read_log(self.LOG))
            if not self.chain:
                return -1
            self.prev_hash = self.chain[-1]["hash"]
            # Rebuilding application state would require re-execution; the
            # recovering replica relies on state transfer for that, so only
            # the chain height is recovered locally.
            return self.chain[-1]["consensus_id"]
        rt = replica.runtime
        observing = rt.observing
        entries = store.read_entries(self.LOG)
        valid = 0
        prev = EMPTY_DIGEST
        bad_reason = ""
        for entry in entries:
            if not store.verify_entry(entry):
                bad_reason = "checksum"
                store.bitrot_detected += 1
                break
            block = entry.payload
            if block.get("prev") != prev or block.get("number") != valid + 1:
                # A block whose back-pointer or height does not extend the
                # prefix (torn write, or appends after a state transfer
                # rebased the chain): nothing past it is trustworthy here.
                bad_reason = "chain-linkage"
                break
            prev = block["hash"]
            valid += 1
        self.recovery_verified_entries += valid
        truncated = len(entries) - valid
        if bad_reason:
            store.truncate_log(self.LOG, valid)
            self.recovery_truncated_entries += truncated
            self.recovery_fallbacks += 1
            if observing:
                rt.notify("log-corruption-detected", log=self.LOG,
                          index=valid, reason=bad_reason, dropped=truncated)
                rt.notify("recovery-fallback", from_cid=self.executed_cid,
                          dropped=truncated)
        if observing:
            rt.notify("recovery-verified", entries=valid,
                      truncated=truncated, cid=self.executed_cid)
        self.chain = [entry.payload for entry in entries[:valid]]
        # No replay evidence: the naive block payload drops the requests'
        # ``special`` flag, so the decide-time batch hash cannot be
        # recomputed from it (and the application state is not rebuilt
        # locally anyway — state transfer supplies it).
        self.last_recovery = {
            "replayed": [], "verified": valid, "truncated": truncated,
            "snapshot_rejected": False, "fallback": bool(bad_reason),
        }
        if not self.chain:
            return -1
        self.prev_hash = self.chain[-1]["hash"]
        return self.chain[-1]["consensus_id"]

    def on_crash(self) -> None:
        super().on_crash()
        self.chain.clear()
        self.prev_hash = EMPTY_DIGEST
        self.executed_cid = -1
        if self._flusher is not None:
            self._flusher.stop()
