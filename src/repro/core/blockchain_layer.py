"""The SMARTCHAIN blockchain layer: Algorithm 1 of the paper.

A delivery layer that turns the Mod-SMaRt decision stream into a durable,
self-verifiable chain of blocks:

- the transaction batch is written to the blockchain file *asynchronously,
  in parallel with execution* (lines 17-19);
- results are appended after execution (line 20) — auditability;
- the header closes the block and a ``syncDisk`` makes it stable before
  clients see replies (lines 21-29);
- in the **strong** variant the PERSIST phase then collects a Byzantine
  quorum of header signatures into the block certificate (lines 31-36) —
  0-Persistence.  Only signatures by consensus keys *recorded on the chain*
  (genesis, reconfiguration blocks, keyreg transactions) count, because a
  third-party verifier can validate no others.  If the recorded quorum is
  temporarily unreachable (e.g. a freshly installed view whose late key
  registrations are still in flight), the block completes uncertified and
  is re-certified as soon as the keys land — liveness is never hostage to
  the certificate;
- checkpoints run every z blocks (z from the genesis block) and snapshots
  are written *outside* the chain (lines 49-54);
- reconfiguration transactions get their own blocks carrying the new view
  and its certified consensus keys (lines 37-48).

State transfer serves *the blocks up to an agreed consensus id* — after the
requester's own head when the server holds that block (a delta), else after
a checkpoint (Section V-C: "sending the last checkpoint covering up to a
block b plus the blocks after it") — so any two correct replicas serve
bit-identical packages for the same request, and the receiver's f+1 hash
comparison is meaningful even while the system keeps processing new blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from repro.config import PersistenceVariant, SmartChainConfig, StorageMode
from repro.crypto.hashing import hash_obj
from repro.crypto.keys import Signature
from repro.errors import LedgerError
from repro.ledger.block import (
    Block,
    BlockBody,
    BlockHeader,
    Certificate,
    KeyAnnouncement,
)
from repro.ledger.chain import Blockchain
from repro.ledger.genesis import GenesisBlock
from repro.core.persistence import PersistMsg, persistence_level_of
from repro.smr import scheduler
from repro.smr.recovery import Replay
from repro.smr.requests import ClientRequest, Decision
from repro.smr.service import Application, SequentialDelivery
from repro.smr.views import View
from repro.storage.stable import checksum

__all__ = ["SmartChainDelivery", "ReconfigOutcome", "CheckpointInfo"]


def _decided_batch_hash(transactions: Sequence[tuple]) -> bytes:
    """The batch hash the ``decide`` events carried, recomputed from a
    block's transaction rows (:func:`repro.smr.requests.batch_digest`
    over the requests' canonical forms)."""
    return hash_obj([("req", client_id, req_id, special, repr(op))
                     for _tx, client_id, req_id, op, _size, special
                     in transactions])


class ReconfigOutcome:
    """What the reconfiguration handler decides for a special transaction."""

    def __init__(self, new_view: View | None = None,
                 announcements: list[KeyAnnouncement] = (),
                 permanent_updates: dict[int, str] | None = None,
                 result: Any = None):
        self.new_view = new_view
        self.announcements = list(announcements)
        self.permanent_updates = dict(permanent_updates or {})
        self.result = result


@dataclass
class CheckpointInfo:
    """A service snapshot and the chain position it covers.  A state
    package's anchor carries it as a tuple in field order, which
    ``CheckpointInfo(*anchor)`` reads back."""

    block_number: int
    consensus_id: int
    snapshot: Any
    nbytes: int
    view_id: int
    members: tuple[int, ...]
    permanent_keys: tuple[tuple[int, str], ...]
    recorded: tuple[tuple[int, tuple[int, ...]], ...]
    last_reconfig: int
    head_digest: bytes


class SmartChainDelivery(SequentialDelivery):
    """Algorithm 1, attached on top of a Mod-SMaRt replica."""

    LOG = "chain"
    SNAPSHOT = "chain-snapshot"

    def __init__(self, app: Application, chain_config: SmartChainConfig,
                 genesis: GenesisBlock):
        super().__init__()
        self.app = app
        self.cfg = chain_config
        self.genesis = genesis
        self.chain = Blockchain(genesis)
        self.variant = chain_config.variant
        self.storage = chain_config.storage
        self.last_reconfig = -1
        self.last_checkpoint = -1
        self.executed_cid = -1
        #: PERSIST signatures collected per block number.
        self._persist_votes: dict[int, dict[int, tuple[bytes, Signature]]] = {}
        #: Blocks waiting for their certificate: number -> (digest, completion).
        self._persist_waits: dict[int, tuple[bytes, Callable[[], None]]] = {}
        self._persist_timers: dict[int, Any] = {}
        #: Special-transaction handler installed by the reconfiguration
        #: manager; returns a ReconfigOutcome (or None to reject).
        self.reconfig_handler: Callable[[ClientRequest], ReconfigOutcome | None] | None = None
        #: Hook invoked after a reconfiguration block completes.
        self.on_reconfiguration: Callable[[Block, ReconfigOutcome], None] | None = None
        #: The owning SmartChainNode (set by the node; optional for tests).
        self.node = None
        #: Members whose consensus keys are recorded on the chain, per view.
        self.recorded_members: dict[int, set[int]] = self._genesis_members()
        #: Recent checkpoint generations, oldest first (the initial one
        #: stands in for genesis).  Several are retained so that state
        #: transfer can serve a package pinned to a slightly older target
        #: deterministically, even when servers checkpoint at different
        #: wall-clock instants.
        self._checkpoints: list[CheckpointInfo] = []
        #: The last received state package and its parsed blocks
        #: (:meth:`_shipped_blocks`).
        self._parsed: tuple[Any, list[Block]] | None = None
        # Statistics.
        self.blocks_built = 0
        self.reconfig_blocks = 0
        self.checkpoints_taken = 0
        self.certs_completed = 0
        self.certs_timed_out = 0
        self.stale_votes_rejected = 0

    def _genesis_members(self) -> dict[int, set[int]]:
        return {0: {a.replica_id for a in self.genesis.key_announcements}}

    @property
    def height(self) -> int:
        return self.chain.height

    def metrics(self) -> dict[str, Any]:
        return {"blocks": self.blocks_built,
                "certificates": self.certs_completed}

    def _count(self, name: str) -> None:
        """Mirror a chain statistic into the metrics registry when observed."""
        obs = self.replica.sim.obs
        if obs.enabled:
            obs.metrics.counter(name, node=self.replica.id).inc()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, replica) -> None:
        super().attach(replica)
        replica.register_handler(PersistMsg, self._on_persist)
        self._write_genesis()
        #: The checkpoint at genesis — what a restore that finds no usable
        #: snapshot starts from.  A function of the application's factory,
        #: so it outlives a crash.
        self._genesis = self._make_checkpoint_info(0, -1)
        self._checkpoints = [self._genesis]

    def _write_genesis(self) -> None:
        store = self.replica.store
        if store.log_length(self.LOG) or store.volatile_length(self.LOG):
            return  # already on disk (recovery path)
        record = ("genesis", 0, self.genesis.to_record())
        store.append(self.LOG, record, self.genesis.serialized_bytes())
        if self.storage is StorageMode.SYNC:
            store.sync()

    @property
    def persistence_level(self):
        return persistence_level_of(self.variant, self.storage)

    def _log(self, record: tuple, nbytes: int) -> None:
        """Append ``record`` to the chain file; memory storage keeps none."""
        if self.storage is not StorageMode.MEMORY:
            self.replica.store.append(self.LOG, record, nbytes)

    def _make_checkpoint_info(self, block_number: int,
                              consensus_id: int) -> CheckpointInfo:
        snapshot, nbytes = self.app.snapshot()
        replica = self.replica
        if block_number == 0:
            head_digest = self.genesis.hash_for_block_one
        elif block_number == self.chain.height:
            head_digest = self.chain.head_digest()
        else:
            head_digest = self.chain.get(block_number).digest()
        return CheckpointInfo(
            block_number=block_number,
            consensus_id=consensus_id,
            snapshot=snapshot,
            nbytes=nbytes,
            view_id=replica.cv.view_id,
            members=tuple(replica.cv.members),
            permanent_keys=tuple(sorted(self._permanent_keys().items())),
            recorded=tuple(sorted((vid, tuple(sorted(members)))
                                  for vid, members in
                                  self.recorded_members.items())),
            last_reconfig=self.last_reconfig,
            head_digest=head_digest,
        )

    def _permanent_keys(self) -> dict[int, str]:
        if self.node is not None:
            return self.node.permanent_keys
        return dict(self.genesis.permanent_keys)

    # ------------------------------------------------------------------
    # Sequential block processing
    # ------------------------------------------------------------------
    #: When the delivery pipeline lags the ordering frontier by more than
    #: this many decisions, blocks are processed in *catch-up mode*: replay
    #: speed (no reply marshalling, no stable-write or PERSIST waits).  A
    #: replica that lags (fresh joiner, recovered node) converges to the
    #: head instead of trailing it forever.
    CATCHUP_LAG = 20

    def process(self, decision: Decision, done) -> None:
        replica = self.replica
        number = self.chain.height + 1
        # The requests' own rows: every replica chains and logs these same
        # tuples, and the record's checksum and the header's
        # ``hash_transactions`` share one Merkle tree over them.
        txs = tuple([r.tx_row() for r in decision.batch])
        # Line 18: the batch (plus its consensus proof) goes to the chain
        # file as soon as it is decided — the disk works in parallel with
        # execution.
        body_bytes = decision.payload_bytes() + 64 + 72 * len(decision.proof)
        self._log(("txs", number, decision.cid, txs, decision.batch_hash),
                  body_bytes)
        costs = replica.costs
        special = bool(decision.batch and decision.batch[0].special)
        if special and self.reconfig_handler is not None:
            work = costs.block_build_overhead + costs.batch_overhead
            self.charge_sm(work, self._apply_special, decision, txs,
                           number, done)
        elif (not special
                and replica.last_decided - decision.cid > self.CATCHUP_LAG):
            # Fast-replay a stale decision: the rest of the group already
            # certified and answered it; this replica only needs the state
            # and the block.
            work = (len(decision.batch) * costs.replay_time_per_tx
                    + costs.batch_overhead)
            self.charge_sm(work, self._apply_catchup, decision, txs,
                           number, done)
        else:
            # Block building and body hashing stay on the SM thread.
            scheduler.charge_execution(
                replica, self.app, decision.batch,
                (costs.block_build_overhead,
                 costs.crypto.hash_time_per_kb * (body_bytes / 1024)),
                self.current(self._executed), decision, txs, number, done)

    def _build_body(self, number: int, decision: Decision, txs: tuple,
                    results: tuple, **reconfig: Any) -> BlockBody:
        """Line 20: the block body over the decided transactions and their
        results, the results appended to the chain file.  Body and records
        hold the same row tuples (see docs/performance.md, Contract 3)."""
        self.executed_cid = decision.cid
        self._log(("results", number, results),
                  sum(len(r[2]) + 48 for r in results))
        return BlockBody(consensus_id=decision.cid, transactions=txs,
                         results=results, batch_hash=decision.batch_hash,
                         **reconfig)

    def _append_block(self, number: int, body: BlockBody,
                      decision: Decision) -> Block:
        """Line 21: close the block with its header, chain it, log the
        header."""
        replica = self.replica
        header = BlockHeader(
            number=number,
            last_reconfig=self.last_reconfig,
            last_checkpoint=self.last_checkpoint,
            view_id=replica.cv.view_id,
            hash_transactions=body.hash_transactions(),
            hash_results=body.hash_results(),
            hash_last_block=self.chain.head_digest(),
        )
        block = Block(header, body, consensus_proof=dict(decision.proof))
        self.chain.append(block)
        self.blocks_built += 1
        self._count("chain.blocks_built")
        rt = replica.runtime
        if rt.observing:
            rt.notify("block-append", block=number, cid=decision.cid,
                      digest=block.digest().hex(), view=header.view_id)
        self._log(("header", number, header.to_record(),
                   self._proof_record(decision)),
                  BlockHeader.WIRE_SIZE + 72 * len(decision.proof))
        return block

    def _apply_catchup(self, decision: Decision, txs: tuple, number: int,
                       done) -> None:
        replica = self.replica
        _results, rows = self.app.execute_rows(decision.batch)
        block = self._append_block(
            number, self._build_body(number, decision, txs, rows), decision)
        replica.note_executed(decision)
        # Certificate from already-buffered PERSIST votes, if any; no wait.
        if self.can_self_verify():
            self._certify(number, block.digest(),
                          self._persist_votes.pop(number, {}))
        lag = replica.last_decided - decision.cid
        if lag <= self.CATCHUP_LAG:
            # Caught up: make everything stable and re-certify stragglers.
            if self.storage is StorageMode.SYNC:
                replica.store.sync()
            if self.can_self_verify():
                replica.sim.call_soon(self.repersist_missing)
        self._maybe_checkpoint(number, done)

    def _executed(self, decision: Decision, txs: tuple, number: int,
                  done) -> None:
        replica = self.replica
        results_map, rows = self.app.execute_rows(decision.batch)
        obs = replica.sim.obs
        if obs.trace_pipeline:
            obs.trace_cid(replica.id, decision.cid, "execute", replica.sim.now)
        body = self._build_body(number, decision, txs, rows)
        self._close_block(number, body, decision, results_map, done)

    def _close_block(self, number: int, body: BlockBody, decision: Decision,
                     results_map: dict, done,
                     reconfig: ReconfigOutcome | None = None) -> None:
        """Lines 21, 26-29: write the header and make the block stable."""
        replica = self.replica
        block = self._append_block(number, body, decision)
        if self.storage is StorageMode.SYNC:
            replica.store.sync(self.current(self._header_stable), block,
                               decision, results_map, reconfig, done)
        else:
            self._header_stable(block, decision, results_map, reconfig, done)

    def _header_stable(self, block: Block, decision: Decision,
                       results_map: dict, reconfig: ReconfigOutcome | None,
                       done) -> None:
        obs = self.replica.sim.obs
        if obs.trace_pipeline:
            obs.trace_cid(self.replica.id, decision.cid, "body_write",
                          self.replica.sim.now)
        if self.can_self_verify():
            completion = (lambda: self._finish_block(block, decision,
                                                     results_map, reconfig,
                                                     done))
            self._persist_block(block, completion)
        else:
            self._finish_block(block, decision, results_map, reconfig, done)

    # ------------------------------------------------------------------
    # PERSIST phase (strong variant)
    # ------------------------------------------------------------------
    def _persist_block(self, block: Block, completion) -> None:
        """Run the PERSIST phase for ``block``; ``completion`` fires once the
        certificate is assembled (or the wait times out — the block is then
        re-certified later)."""
        replica = self.replica
        digest = block.digest()
        self._persist_waits[block.number] = (digest, completion)
        key = replica.consensus_key()

        def signed() -> None:
            if key.is_erased:
                return  # a view change rotated keys under this queued job
            signature = key.sign(digest)
            msg = PersistMsg(block_number=block.number, header_digest=digest,
                             replica_id=replica.id, signature=signature)
            rt = replica.runtime
            if rt.observing:
                rt.notify("persist-vote", **msg.event_fields())
            replica.broadcast_view(msg)

        replica.charge_pool(replica.costs.crypto.sign_time, signed)
        timeout = replica.config.persist_timeout
        self._persist_timers[block.number] = replica.sim.schedule(
            timeout, replica.guard(self._persist_timed_out), block.number)
        self._check_persist_quorum(block.number)

    def _persist_timed_out(self, number: int) -> None:
        self._persist_timers.pop(number, None)
        waiting = self._persist_waits.pop(number, None)
        if waiting is None:
            return
        # Proceed uncertified; the block will be re-certified once the
        # missing recorded keys land on the chain (repersist_missing).
        self.certs_timed_out += 1
        self._count("chain.certs_timed_out")
        _digest, completion = waiting
        rt = self.replica.runtime
        if rt.observing:
            rt.notify("persist-timeout", block=number)
        completion()

    def _on_persist(self, src: int, msg: PersistMsg) -> None:
        replica = self.replica
        if msg.signature is None:
            return
        public = replica.keydir.lookup(replica.cv.view_id, src)
        if public is None:
            self._flag_stale_vote(src, msg)
            return

        def verified() -> None:
            if not replica.registry.verify(public, msg.header_digest,
                                           msg.signature):
                self._flag_stale_vote(src, msg)
                return
            votes = self._persist_votes.setdefault(msg.block_number, {})
            votes[src] = (msg.header_digest, msg.signature)
            self._check_persist_quorum(msg.block_number)
            self._maybe_answer_persist(src, msg)

        replica.charge_pool(replica.costs.crypto.verify_time, verified)

    def _flag_stale_vote(self, src: int, msg: PersistMsg) -> None:
        """A PERSIST vote that does not verify under the current view's key
        directory: check whether its signature was produced with a *retired*
        view's consensus key — the forgetting protocol (Section V-D) in
        action, rejecting an adversary replaying erased credentials."""
        replica = self.replica
        signer = getattr(msg.signature, "signer", None)
        if signer is None:
            return
        for view_id in range(replica.cv.view_id - 1, -1, -1):
            if replica.keydir.lookup(view_id, src) == signer:
                self.stale_votes_rejected += 1
                self._count("chain.stale_votes_rejected")
                rt = replica.runtime
                if rt.observing:
                    rt.notify("stale-reject", block=msg.block_number,
                              src=src, signed_view=view_id,
                              current_view=replica.cv.view_id)
                return

    def _maybe_answer_persist(self, src: int, msg: PersistMsg) -> None:
        """Help a lagging peer re-certify: if we hold the block it is trying
        to persist (and are not waiting on it ourselves), send our own
        signature directly to it."""
        replica = self.replica
        if src == replica.id or msg.reply:
            return
        if msg.block_number in self._persist_waits:
            return
        try:
            block = self.chain.get(msg.block_number)
        except LedgerError:
            return
        if block.digest() != msg.header_digest:
            return
        key = replica.consensus_key()

        def signed() -> None:
            if key.is_erased:
                return
            reply = PersistMsg(block_number=msg.block_number,
                               header_digest=msg.header_digest,
                               replica_id=replica.id,
                               signature=key.sign(msg.header_digest),
                               reply=True)
            replica.send(src, reply)

        replica.charge_pool(replica.costs.crypto.sign_time, signed)

    def _check_persist_quorum(self, number: int) -> None:
        waiting = self._persist_waits.get(number)
        if waiting is None:
            return
        digest, completion = waiting
        if not self._certify(number, digest,
                             self._persist_votes.get(number, {})):
            return
        del self._persist_waits[number]
        timer = self._persist_timers.pop(number, None)
        if timer is not None:
            timer.cancel()
        self._persist_votes.pop(number, None)
        self.charge_sm(self.replica.costs.persist_handling, completion)

    def _certify(self, number: int, digest: bytes, votes: dict) -> bool:
        """Certify block ``number`` from the PERSIST ``votes`` for
        ``digest`` by members recorded in the current view: attach the
        certificate, count it, announce it and log it.  False, with
        nothing done, below the certificate quorum."""
        replica = self.replica
        view_id = replica.cv.view_id
        recorded = self.recorded_members.get(view_id, set())
        matching = {rid: sig for rid, (d, sig) in votes.items()
                    if d == digest and rid in recorded}
        if len(matching) < replica.cert_quorum:
            return False
        certificate = Certificate(number, digest, view_id)
        for rid, signature in matching.items():
            certificate.add(rid, signature)
        try:
            self.chain.get(number).certificate = certificate
        except LedgerError:
            pass  # block not held locally (cannot happen in practice)
        self.certs_completed += 1
        self._count("chain.certs_completed")
        rt = replica.runtime
        if rt.observing:
            rt.notify("persist-certificate", block=number,
                      digest=digest.hex(), view=view_id,
                      signers=sorted(matching))
        # Line 34: the certificate write is asynchronous — after a full
        # crash the group can always recreate the same certificate.
        self._log(("cert", number, certificate.to_record()),
                  certificate.size_bytes())
        return True

    def repersist_missing(self, on_done: Callable[[], None] | None = None) -> None:
        """Re-run the PERSIST phase for blocks lacking certificates (after a
        full-crash recovery, or after a persist timeout once the missing
        recorded keys landed on the chain)."""
        missing = [b for b in self.chain
                   if b.certificate is None
                   and b.header.view_id == self.replica.cv.view_id
                   and b.number not in self._persist_waits]

        def step() -> None:
            while missing and missing[0].certificate is not None:
                missing.pop(0)
            if not missing:
                if on_done is not None:
                    on_done()
                return
            block = missing.pop(0)
            self._persist_block(block, step)

        step()

    # ------------------------------------------------------------------
    # Block completion, replies, checkpoints
    # ------------------------------------------------------------------
    def _finish_block(self, block: Block, decision: Decision, results_map: dict,
                      reconfig: ReconfigOutcome | None, done) -> None:
        replica = self.replica
        obs = replica.sim.obs
        if obs.trace_pipeline and self.can_self_verify():
            obs.trace_cid(replica.id, decision.cid, "persist", replica.sim.now)
        replica.send_replies(results_map, decision.batch,
                             block_number=block.number)
        replica.note_executed(decision)
        # A key a block announces counts from the next block on, as for the
        # third-party verifier: this block's PERSIST quorum is behind it.
        self._record_keys(block.body)
        if reconfig is not None and reconfig.new_view is not None:
            self.last_reconfig = block.number
            self.reconfig_blocks += 1
            self._count("chain.reconfig_blocks")
            rt = replica.runtime
            if rt.observing:
                rt.notify("reconfig", op="install", block=block.number,
                          view=reconfig.new_view.view_id)
            replica.install_view(reconfig.new_view)
            if self.on_reconfiguration is not None:
                self.on_reconfiguration(block, reconfig)
        elif (block.body.key_announcements
                and self.variant is PersistenceVariant.STRONG):
            # Late key registrations may unblock earlier uncertified blocks.
            replica.sim.call_soon(self.repersist_missing)
        self._maybe_checkpoint(block.number, done)

    def _maybe_checkpoint(self, number: int, done) -> None:
        z = self.genesis.checkpoint_period
        if z <= 0 or number % z != 0:
            done()
            return
        # Lines 49-54: snapshot the service state outside the blockchain.
        replica = self.replica
        self.last_checkpoint = number
        self.checkpoints_taken += 1
        self._count("chain.checkpoints_taken")
        rt = replica.runtime
        if rt.observing:
            rt.notify("checkpoint", block=number, cid=self.executed_cid)
        info = self._make_checkpoint_info(number, self.executed_cid)
        self._checkpoints.append(info)
        # Keep the initial checkpoint plus the last three generations.
        if len(self._checkpoints) > 4:
            self._checkpoints = self._checkpoints[:1] + self._checkpoints[-3:]
        stall = info.nbytes / replica.costs.disk.snapshot_bandwidth_bytes
        # The service is unavailable while the snapshot is written (the
        # throughput dip of Figure 7); the pipeline resumes afterwards.
        if self.storage is not StorageMode.MEMORY:
            replica.store.write_snapshot(self.SNAPSHOT, info, info.nbytes)
        replica.charge_sm(stall, done)

    # ------------------------------------------------------------------
    # Special (reconfiguration / key registration) blocks — lines 37-48
    # ------------------------------------------------------------------
    def _apply_special(self, decision: Decision, txs: tuple, number: int,
                       done) -> None:
        outcome = ReconfigOutcome(result=("error", "rejected"))
        all_announcements: list[KeyAnnouncement] = []
        for request in decision.batch:
            handled = self.reconfig_handler(request)
            if handled is not None:
                outcome = handled
                all_announcements.extend(handled.announcements)
        # Deduplicate announcements (several remove votes may carry the same).
        unique: dict[tuple[int, int], KeyAnnouncement] = {}
        for ann in all_announcements:
            unique[(ann.view_id, ann.replica_id)] = ann
        announcements = list(unique.values())
        results_map: dict = {}
        result_records = []
        for request in decision.batch:
            if outcome.new_view is not None:
                result = ("view", outcome.new_view.view_id,
                          tuple(outcome.new_view.members))
            else:
                result = outcome.result
            digest = hash_obj(("rc", request.client_id, request.req_id,
                               repr(result)))
            results_map[request.key] = (result, digest)
            result_records.append((request.client_id, request.req_id,
                                   repr(result), digest))
        new_view_record = None
        if outcome.new_view is not None:
            new_view_record = (outcome.new_view.view_id,
                               tuple(outcome.new_view.members),
                               tuple(sorted(outcome.permanent_updates.items())))
        body = self._build_body(
            number, decision, txs, tuple(result_records),
            key_announcements=[a.to_record() for a in announcements],
            new_view=new_view_record)
        self._log(("special", number,
                   tuple(a.to_record() for a in announcements),
                   new_view_record),
                  96 * len(announcements) + 64)
        self._close_block(number, body, decision, results_map, done,
                          reconfig=outcome if outcome.new_view else None)

    # ------------------------------------------------------------------
    # Restore: a checkpoint plus the blocks after it (shared by state
    # transfer, recovery and reconciliation)
    # ------------------------------------------------------------------
    def _record_keys(self, body: BlockBody) -> None:
        for record in body.key_announcements:
            ann = KeyAnnouncement.from_record(record)
            self.recorded_members.setdefault(ann.view_id, set()).add(
                ann.replica_id)

    def _restore(self, info: CheckpointInfo) -> None:
        """Rebuild the service state and chain metadata the one way Section
        V-C does: checkpoint ``info``, then the held blocks after it."""
        self.app.install_snapshot(info.snapshot)
        self.executed_cid = info.consensus_id
        self.last_checkpoint = info.block_number if info.block_number else -1
        self.last_reconfig = info.last_reconfig
        self.recorded_members = {vid: set(m) for vid, m in info.recorded}
        if self.node is not None:
            self.node.permanent_keys.update(dict(info.permanent_keys))
        view = View(info.view_id, tuple(info.members))
        if view.view_id > self.replica.cv.view_id:
            self.replica.install_view(view)
        self._checkpoints = [info]
        self._replay(info.block_number + 1)

    def _replay(self, start: int) -> None:
        """Re-apply the effects of the held blocks from ``start`` on.

        Reconfiguration blocks are applied from their recorded outcome (no
        vote re-validation: the block's certificate/proof covers it).
        """
        z = self.genesis.checkpoint_period
        for block in self.chain.blocks(start=start):
            body = block.body
            self._record_keys(body)
            if body.new_view is not None:
                view_id, members, permanent_updates = body.new_view
                self.last_reconfig = block.number
                if self.node is not None:
                    self.node.permanent_keys.update(dict(permanent_updates))
                new_view = View(view_id, tuple(members))
                if new_view.view_id > self.replica.cv.view_id:
                    self.replica.install_view(new_view)
            else:
                requests = [
                    ClientRequest(client_id=client_id, req_id=req_id, op=op,
                                  size=size, special=special)
                    for _tx, client_id, req_id, op, size, special
                    in body.transactions
                ]
                if requests and not requests[0].special:
                    self.app.execute_batch(requests)
            if z > 0 and block.number % z == 0:
                self.last_checkpoint = block.number
            self.executed_cid = body.consensus_id

    def _restore_stable(self, replay: Replay) -> bool:
        """Restore from the stable snapshot, read through the verified
        ``replay``, when it covers a held block; else from genesis.  Never
        from the service state in memory: that may be ahead of a truncated
        log, and replaying onto it counts every block twice — which a delta
        transfer, unlike a whole-state one, would never repair.  True when
        the snapshot was used."""
        checkpoint = replay.load_checkpoint(self.SNAPSHOT)
        usable = (isinstance(checkpoint, CheckpointInfo)
                  and checkpoint.block_number <= self.chain.height)
        self._restore(checkpoint if usable else self._genesis)
        return usable

    # ------------------------------------------------------------------
    # State transfer: the blocks up to the agreed consensus id, after the
    # requester's head (delta) or after a checkpoint
    # ------------------------------------------------------------------
    #: First element of a delta package's anchor ``(DELTA, number, digest)``
    #: — the block the shipped ones follow — where a checkpoint + suffix
    #: package has its checkpoint as a tuple in :class:`CheckpointInfo`
    #: field order.
    DELTA = "delta"

    def transfer_base(self) -> tuple[int, bytes] | None:
        if self.chain.height == 0:
            return None  # nothing to build on: a cold joiner
        return self.chain.height, self.chain.head_digest()

    def capture_state(self, up_to_cid: int | None = None,
                      base: tuple[int, bytes] | None = None
                      ) -> tuple[Any, int]:
        target = self.executed_cid if up_to_cid is None else up_to_cid
        if base is not None and self.chain.digest_at(base[0]) == base[1]:
            # The requester's head is a block of this chain: ship the gap.
            anchor, after, nbytes = (self.DELTA, *base), base[0], 0
        else:
            info = self._checkpoint_for(target)
            anchor = tuple(getattr(info, f.name) for f in fields(info))
            after, nbytes = info.block_number, info.nbytes
        blocks = [b for b in self.chain.blocks(start=after + 1)
                  if b.body.consensus_id <= target]
        package = (target, anchor, tuple(b.to_record() for b in blocks))
        self._parsed = (package, blocks)  # its own need no parsing back
        return package, nbytes + sum(b.serialized_bytes() for b in blocks)

    def _checkpoint_for(self, target_cid: int) -> CheckpointInfo:
        """Newest retained checkpoint not newer than ``target_cid`` — the
        same one every correct replica picks for the same target."""
        candidates = [c for c in self._checkpoints
                      if c.consensus_id <= target_cid
                      and c.block_number >= self.chain.base_height]
        if candidates:
            return max(candidates, key=lambda c: c.block_number)
        return self._checkpoints[0]

    def package_digest(self, package: Any) -> bytes:
        """Composed of commitments the chain already carries.  Per block:
        the header digest, the two Merkle roots *recomputed from the shipped
        rows* (a body other than the one its header commits to gives
        another digest — :meth:`Block.validate_body`, folded in), cid,
        batch hash, announcements and new view; plus the checkpoint
        record's checksum, or the delta anchor.  Certificates and consensus
        proofs are left out: any Byzantine-quorum subset is valid, so
        correct replicas legitimately hold different ones."""
        target, anchor, _block_records = package
        if anchor[0] != self.DELTA:
            anchor = checksum(anchor)
        return hash_obj(("st", target, anchor, [
            (block.digest(), block.body.hash_transactions(),
             block.body.hash_results(), block.body.consensus_id,
             block.body.batch_hash, block.body.key_announcements,
             block.body.new_view)
            for block in self._shipped_blocks(package)]))

    def _shipped_blocks(self, package: Any) -> list[Block]:
        """The blocks of a state package, parsed once for whatever reads
        them: :meth:`package_digest`, :meth:`verify_package`,
        :meth:`install_state`."""
        parsed = self._parsed
        if parsed is None or parsed[0] is not package:
            try:
                blocks = [Block.from_record(r) for r in package[2]]
            except (TypeError, ValueError, IndexError) as exc:
                raise LedgerError("malformed state package") from exc
            parsed = self._parsed = (package, blocks)
        return parsed[1]

    def install_state(self, package: Any) -> None:
        _target, anchor, _block_records = package
        blocks = self._shipped_blocks(package)
        self._parsed = None
        if anchor[0] == self.DELTA:
            info, chain = None, self.chain
        else:
            info = CheckpointInfo(*anchor)
            chain = Blockchain.from_suffix(self.genesis, info.block_number,
                                           info.head_digest, [])
        # A delta's first blocks may be ones this replica appended itself
        # since it asked; whatever is new must link onto the head.
        blocks = [b for b in blocks if b.number > chain.height]
        if blocks and (blocks[0].number != chain.height + 1
                       or blocks[0].header.hash_last_block
                       != chain.head_digest()):
            raise LedgerError(
                f"state package does not extend block {chain.height} of "
                f"replica {self.replica.id}'s chain")
        self.superseded()
        start = chain.height + 1
        for block in blocks:
            chain.append(block)
        self.chain = chain
        if info is None:
            self._replay(start)
        else:
            self._restore(info)

    def _drop_persist_waits(self) -> None:
        self._persist_waits.clear()
        for timer in self._persist_timers.values():
            timer.cancel()
        self._persist_timers.clear()

    def superseded(self) -> None:
        super().superseded()
        self._drop_persist_waits()

    def install_cost(self, package: Any) -> float:
        costs = self.replica.costs
        replay_txs = sum(len(record[1][1]) for record in package[2])
        return replay_txs * costs.replay_time_per_tx

    def can_self_verify(self) -> bool:
        """Strong-variant chains are self-verifiable (certificates)."""
        return (self.variant is PersistenceVariant.STRONG
                and self.storage is not StorageMode.MEMORY)

    def verify_package(self, package: Any) -> bool:
        """Check a state package offered by a single (untrusted) peer: every
        block in the suffix must carry a valid certificate."""
        try:
            blocks = self._shipped_blocks(package)
        except LedgerError:
            return False
        prev: Block | None = None
        for block in blocks:
            try:
                block.validate_body()
            except LedgerError:
                return False
            cert = block.certificate
            if cert is None or cert.header_digest != block.digest():
                return False
            if prev is not None and block.header.hash_last_block != prev.digest():
                return False
            keys = self.replica.keydir.view_keys(block.header.view_id)
            if not keys:
                return False
            valid = sum(
                1 for rid, sig in cert.signatures.items()
                if keys.get(rid) and self.replica.registry.verify(
                    keys[rid], cert.header_digest, sig))
            if valid < View(block.header.view_id, tuple(keys)).cert_quorum:
                return False
            prev = block
        return True

    # ------------------------------------------------------------------
    # Local recovery (after a recoverable crash)
    # ------------------------------------------------------------------
    def recover_local(self) -> int:
        """Rebuild the chain and service state from the stable store.

        The shared verified replay (:mod:`repro.smr.recovery`) adopts the
        checksum-valid prefix of the chain file — its records carry no
        linkage of their own; the *blocks* do.  So the chain rebuilt from
        the adopted records is then walked by the third-party
        :class:`~repro.ledger.verifier.ChainVerifier` (the ledger is
        self-verifiable: local recovery holds itself to the same standard
        as a chain received from a stranger), and the service state comes
        from the last stable snapshot plus the blocks after it.
        """
        replica = self.replica
        replay = self.begin_recovery()
        parts: dict[str, dict[int, tuple]] = {
            kind: {} for kind in ("txs", "results", "header", "cert",
                                  "special")}

        def adopt(record: tuple) -> int | None:
            kind, number = record[0], record[1]
            if kind in parts:
                parts[kind][number] = record[2:]
            # A header closes its block: the replica now holds it whole.
            if kind == "header" and number in parts["txs"]:
                return parts["txs"][number][0]
            return None

        replay.replay(self.LOG, adopt)
        txs, results, headers = parts["txs"], parts["results"], parts["header"]
        self.chain = Blockchain(self.genesis)
        number = 1
        while number in headers and number in txs and number in results:
            header_record, proof = headers[number]
            header = BlockHeader.from_record(header_record)
            cid, tx_rows, batch_hash = txs[number]
            body = BlockBody(consensus_id=cid, transactions=tx_rows,
                             results=results[number][0],
                             batch_hash=batch_hash)
            if number in parts["special"]:
                ann_records, new_view_record = parts["special"][number]
                body.key_announcements = list(ann_records)
                body.new_view = new_view_record
            if body.hash_transactions() != header.hash_transactions:
                break
            block = Block(header, body)
            for rid, signer, value in proof:
                block.consensus_proof[rid] = Signature(signer, value)
            if number in parts["cert"]:
                block.certificate = Certificate.from_record(
                    parts["cert"][number][0])
            try:
                self.chain.append(block)
            except LedgerError:
                break
            number += 1
        if replay.verify and self.chain.height > 0:
            from repro.errors import VerificationError
            from repro.ledger.verifier import ChainVerifier
            verifier = ChainVerifier(replica.registry, self.genesis,
                                     require_certificates=False)
            try:
                verifier.verify_blocks(iter(self.chain))
            except VerificationError:
                dropped = self.chain.height
                self.chain = Blockchain(self.genesis)
                replay.fallback(-1, dropped, reason="chain-verify",
                                log=self.LOG)
        # Service state: last stable snapshot plus replay of later blocks.
        from_snapshot = self._restore_stable(replay)
        head = self.chain.head()
        recovered_cid = head.body.consensus_id if head is not None else -1
        if not from_snapshot:
            # Anchor a synthetic checkpoint at the recovered position, so
            # state-transfer packages served by this replica pair a snapshot
            # with only the blocks that come after it.
            self._checkpoints = [self._make_checkpoint_info(
                self.chain.height, recovered_cid)]
        for block in self.chain.blocks(start=1):
            replay.evidence(block.body.consensus_id, _decided_batch_hash,
                            block.body.transactions)
        replay.finish(recovered_cid)
        return recovered_cid

    def reconcile_local(self, supported_cid: int) -> int:
        """Full-crash reconciliation: drop blocks above what the recovery
        group supports (weak variant only — strong chains self-verify and
        survive through any single holder)."""
        if self.can_self_verify():
            return self.replica.last_decided
        keep = 0
        for block in self.chain:
            if block.body.consensus_id <= supported_cid:
                keep = block.number
        dropped = self.chain.truncate(keep)
        if dropped:
            rt = self.replica.runtime
            if rt.observing:
                rt.notify("suffix-lost",
                          blocks=[b.number for b in dropped], height=keep)
            self._restore_stable(Replay(self.replica, self.recovery))
        head = self.chain.head()
        return head.body.consensus_id if head is not None else -1

    def on_crash(self) -> None:
        super().on_crash()
        self.chain = Blockchain(self.genesis)
        self.last_reconfig = -1
        self.last_checkpoint = -1
        self.executed_cid = -1
        self._persist_votes.clear()
        self._drop_persist_waits()
        self.recorded_members = self._genesis_members()
        self._checkpoints = [self._genesis]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _proof_record(decision: Decision) -> tuple:
        return tuple(sorted((rid, s.signer, s.value)
                            for rid, s in decision.proof.items()))

    def chain_records(self) -> list[tuple]:
        """Serialized chain as a third-party verifier consumes it."""
        return self.chain.to_records()
