"""A Tendermint-like permissioned blockchain, simulated on the same substrate.

Substitution note (DESIGN.md): the paper compares SMARTCHAIN against a
production Tendermint deployment configured for maximum durability.  We model
the architectural properties the paper credits for the performance gap
(Section VII):

- **PBFT-variant consensus with a rotating proposer** (Spinning-style): the
  proposer changes every height, and each height runs PROPOSAL → PREVOTE →
  PRECOMMIT rounds;
- **gossip mempool**: transactions are flooded among all nodes before
  proposal (extra NIC traffic per transaction);
- **write-ahead + post-execution writes**: "Tendermint writes the block
  before and after operation execution" — two synchronous stable-storage
  barriers per block;
- **sequential ABCI execution**: the application interface is a single
  connection; transaction signature verification happens inside the
  application, on the execution thread (like SMaRtCoin's sequential setup,
  which the paper notes performs similarly).

Everything runs on the shared :mod:`repro.sim` substrate with the same cost
model, so Table II compares architectures under identical conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import CostModel
from repro.crypto.hashing import EMPTY_DIGEST, hash_obj
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.smr.requests import ClientRequest, ReplyBatchMsg, RequestBatchMsg
from repro.smr.service import Application
from repro.smr.views import View
from repro.storage.stable import StableStore

__all__ = ["TendermintConfig", "TendermintNode", "TendermintCluster"]


@dataclass
class TendermintConfig:
    n: int = 4
    f: int = 1
    block_size: int = 512
    #: Minimum interval between block proposals (Tendermint's timeout_commit
    #: pacing; production default is in the hundreds of milliseconds).
    commit_timeout: float = 0.1
    propose_timeout: float = 0.003
    #: Gossip fan-out factor: every transaction is re-broadcast this many
    #: times across the mempool (bandwidth overhead per transaction).
    gossip_factor: int = 2


@dataclass
class ProposalMsg(Message):
    height: int = 0
    batch: list = field(default_factory=list)
    block_hash: bytes = b""


@dataclass
class VoteMsg(Message):
    height: int = 0
    phase: str = "prevote"       # prevote | precommit
    block_hash: bytes = b""
    size: int = field(default=120, kw_only=True)


@dataclass
class GossipMsg(Message):
    requests: list = field(default_factory=list)


class TendermintNode:
    """One validator."""

    def __init__(self, cluster: "TendermintCluster", node_id: int):
        self.cluster = cluster
        self.id = node_id
        sim = cluster.sim
        self.sm_thread = Resource(sim, 1, name=f"tm-sm-{node_id}")
        self.store = StableStore(sim, disk_config=cluster.costs.disk,
                                 name=f"tm-store-{node_id}")
        self.mempool: dict = {}
        self.height = 1
        self.phase = "idle"
        self.prevotes: dict[int, dict[bytes, set[int]]] = {}
        self.precommits: dict[int, dict[bytes, set[int]]] = {}
        self.committed: dict[int, list] = {}
        self.prev_hash = EMPTY_DIGEST
        self.blocks_committed = 0
        self.endpoint = cluster.network.register(
            ("tm", node_id), self._on_message)

    # ------------------------------------------------------------------
    @property
    def is_proposer(self) -> bool:
        return self.cluster.proposer(self.height) == self.id

    def _on_message(self, src: Any, msg: Message) -> None:
        if isinstance(msg, RequestBatchMsg):
            self._admit(msg.requests, gossip=True)
        elif isinstance(msg, GossipMsg):
            self._admit(msg.requests, gossip=False)
        elif isinstance(msg, ProposalMsg):
            self._on_proposal(src, msg)
        elif isinstance(msg, VoteMsg):
            self._on_vote(src, msg)

    def _admit(self, requests: list[ClientRequest], gossip: bool) -> None:
        fresh = [r for r in requests if r.key not in self.mempool
                 and r.key not in self.cluster.done]
        if not fresh:
            return
        for request in fresh:
            self.mempool[request.key] = request
        if gossip and self.cluster.config.gossip_factor > 0:
            # Flood to peers (bandwidth cost of the mempool).
            nbytes = sum(r.size for r in fresh)
            for _ in range(self.cluster.config.gossip_factor):
                for peer in self.cluster.nodes:
                    if peer.id != self.id:
                        self.cluster.network.send(
                            ("tm", self.id), ("tm", peer.id),
                            GossipMsg(requests=fresh, size=nbytes))
        self.cluster.maybe_propose()

    # ------------------------------------------------------------------
    # Consensus rounds
    # ------------------------------------------------------------------
    def propose(self) -> None:
        if not self.is_proposer or self.phase != "idle":
            return
        batch = list(self.mempool.values())[: self.cluster.config.block_size]
        if not batch:
            return
        self.phase = "proposing"
        block_hash = hash_obj(("tm-block", self.height,
                               [r.to_canonical() for r in batch]))
        nbytes = sum(r.size for r in batch) + 200
        msg = ProposalMsg(height=self.height, batch=batch,
                          block_hash=block_hash, size=nbytes)
        for peer in self.cluster.nodes:
            self.cluster.network.send(("tm", self.id), ("tm", peer.id), msg)

    def _on_proposal(self, src: Any, msg: ProposalMsg) -> None:
        if msg.height != self.height:
            return
        self.committed.setdefault(msg.height, msg.batch)
        self._broadcast_vote("prevote", msg.height, msg.block_hash)

    def _broadcast_vote(self, phase: str, height: int, block_hash: bytes) -> None:
        msg = VoteMsg(height=height, phase=phase, block_hash=block_hash)
        for peer in self.cluster.nodes:
            self.cluster.network.send(("tm", self.id), ("tm", peer.id), msg)

    def _on_vote(self, src: Any, msg: VoteMsg) -> None:
        if msg.height != self.height:
            return
        table = self.prevotes if msg.phase == "prevote" else self.precommits
        voters = table.setdefault(msg.height, {}).setdefault(msg.block_hash,
                                                             set())
        sender = src[1]
        if sender in voters:
            return
        voters.add(sender)
        quorum = 2 * self.cluster.config.f + 1
        if len(voters) < quorum:
            return
        if msg.phase == "prevote":
            self._broadcast_vote("precommit", msg.height, msg.block_hash)
        else:
            self._commit(msg.height)

    # ------------------------------------------------------------------
    # Commit pipeline: write block -> execute (ABCI) -> write state -> reply
    # ------------------------------------------------------------------
    def _commit(self, height: int) -> None:
        if height != self.height:
            return
        batch = self.committed.get(height)
        if batch is None:
            return
        self.height += 1
        self.phase = "committing"
        nbytes = sum(r.size for r in batch) + 200
        # First synchronous write: the block itself (before execution).
        self.store.append("blocks", ("pre", height), nbytes)
        self.store.sync(self._execute, height, batch)

    def _execute(self, height: int, batch: list[ClientRequest]) -> None:
        costs = self.cluster.costs
        # ABCI is sequential: per-transaction signature verification and
        # execution on the single application connection.
        work = costs.batch_overhead
        per_tx = (costs.crypto.verify_time + costs.exec_time_per_tx
                  + costs.reply_time_per_tx + costs.signed_tx_sm_overhead)
        work += per_tx * len(batch)
        self.sm_thread.submit(work, self._post_write, height, batch)

    def _post_write(self, height: int, batch: list[ClientRequest]) -> None:
        results = self.cluster.app_execute(self.id, batch)
        nbytes = sum(r.reply_size for r in batch) + 200
        # Second synchronous write: results / app state after execution.
        self.store.append("blocks", ("post", height), nbytes)
        self.store.sync(self._reply, height, batch, results)

    def _reply(self, height: int, batch: list[ClientRequest],
               results: dict) -> None:
        self.blocks_committed += 1
        by_station: dict[int, dict] = {}
        sizes: dict[int, int] = {}
        for request in batch:
            self.mempool.pop(request.key, None)
            result = results.get(request.key)
            if result is None:
                continue
            by_station.setdefault(request.station, {})[request.key] = result
            sizes[request.station] = sizes.get(request.station, 0) \
                + request.reply_size
        for station, payload in by_station.items():
            self.cluster.network.send(
                ("tm", self.id), station,
                ReplyBatchMsg(replica_id=self.id, results=payload,
                              size=sizes[station] + 32))
        if self.id == self.cluster.nodes[0].id:
            for request in batch:
                self.cluster.done.add(request.key)
        # Pace the next height (timeout_commit); the node stays out of the
        # proposer rotation until the timer fires.
        self.cluster.sim.schedule(self.cluster.config.commit_timeout,
                                  self._next_height)

    def _next_height(self) -> None:
        self.phase = "idle"
        self.cluster.maybe_propose()


class TendermintCluster:
    """A Tendermint validator set plus its shared bookkeeping."""

    def __init__(self, sim: Simulator, network: Network,
                 config: TendermintConfig, costs: CostModel,
                 app_factory) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.costs = costs
        self.apps: dict[int, Application] = {}
        self.done: set = set()
        self.nodes: list[TendermintNode] = []
        for node_id in range(config.n):
            self.apps[node_id] = app_factory()
            self.nodes.append(TendermintNode(self, node_id))

    def proposer(self, height: int) -> int:
        return height % self.config.n

    def maybe_propose(self) -> None:
        for node in self.nodes:
            node.propose()

    def app_execute(self, node_id: int, batch: list[ClientRequest]) -> dict:
        return self.apps[node_id].execute_batch(batch)

    def metrics(self) -> dict[str, int]:
        return {"blocks": self.nodes[0].blocks_committed}

    def view(self) -> View:
        """A View whose member ids are the validators' network addresses, so
        the ordinary client stations can drive a Tendermint cluster."""
        return View(0, tuple(("tm", i) for i in range(self.config.n)))
