"""A Hyperledger-Fabric-like platform, simulated on the same substrate.

Substitution note (DESIGN.md): the paper compares against Fabric v1 with a
BFT ordering service.  We model the execute-order-validate architecture the
paper describes (Section VII):

1. **Endorsement**: the client sends its transaction to the endorsing peers;
   each simulates the execution (chaincode), signs a read/write set and
   returns the endorsement — one extra client round-trip plus a signature
   per endorser per transaction;
2. **Ordering**: endorsed transactions go to the (BFT) ordering service,
   which batches them into blocks — ordering only, no execution; modelled
   as a consensus-latency pipeline since validation, not ordering, is
   Fabric's bottleneck in the paper's experiment;
3. **Validation and commit**: every peer validates each transaction
   sequentially — verifying the client signature and the endorsement policy
   (multiple signatures per transaction) — and commits the write set to the
   state database with a per-transaction write.  This single-threaded
   VSCC/MVCC+commit path is what caps Fabric's throughput.

Peers write blocks to stable storage before emitting events (maximum
durability, as configured in the paper's Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import CostModel
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.resource import Resource
from repro.smr.requests import ClientRequest, ReplyBatchMsg, RequestBatchMsg
from repro.smr.service import Application
from repro.smr.views import View
from repro.storage.stable import StableStore

__all__ = ["FabricConfig", "FabricPeer", "FabricCluster"]


@dataclass
class FabricConfig:
    n_peers: int = 4
    #: Endorsement policy: signatures required per transaction.
    endorsers_per_tx: int = 2
    block_size: int = 512
    #: Orderer block cut timeout.
    batch_timeout: float = 0.1
    #: BFT ordering service latency per block (PROPOSE/WRITE/ACCEPT rounds).
    ordering_latency: float = 0.004
    #: Per-transaction state-database commit cost (LevelDB/CouchDB write),
    #: on the single-threaded commit path.
    commit_time_per_tx: float = 1600e-6
    #: Per-transaction validation: client signature + endorsement policy.
    validation_sigs_per_tx: int = 3


@dataclass
class EndorseRequestMsg(Message):
    requests: list = field(default_factory=list)


@dataclass
class EndorseReplyMsg(Message):
    keys: list = field(default_factory=list)
    endorser: int = -1


@dataclass
class OrderMsg(Message):
    requests: list = field(default_factory=list)


@dataclass
class BlockMsg(Message):
    number: int = 0
    batch: list = field(default_factory=list)


class FabricPeer:
    """An endorsing + committing peer."""

    def __init__(self, cluster: "FabricCluster", peer_id: int):
        self.cluster = cluster
        self.id = peer_id
        sim = cluster.sim
        self.endorse_pool = Resource(sim, 4, name=f"fab-endorse-{peer_id}")
        self.commit_thread = Resource(sim, 1, name=f"fab-commit-{peer_id}")
        self.store = StableStore(sim, disk_config=cluster.costs.disk,
                                 name=f"fab-store-{peer_id}")
        self.blocks_committed = 0
        self.endpoint = cluster.network.register(("fab", peer_id),
                                                 self._on_message)

    def _on_message(self, src: Any, msg: Message) -> None:
        if isinstance(msg, EndorseRequestMsg):
            self._endorse(src, msg)
        elif isinstance(msg, BlockMsg):
            self._validate_and_commit(msg)

    # ------------------------------------------------------------------
    # Phase 1: endorsement (chaincode simulation + signature)
    # ------------------------------------------------------------------
    def _endorse(self, src: Any, msg: EndorseRequestMsg) -> None:
        costs = self.cluster.costs
        work = len(msg.requests) * (costs.exec_time_per_tx
                                    + costs.crypto.sign_time
                                    + costs.crypto.verify_time)

        def endorsed() -> None:
            keys = [r.key for r in msg.requests]
            nbytes = 96 * len(keys)
            self.cluster.network.send(
                ("fab", self.id), src,
                EndorseReplyMsg(keys=keys, endorser=self.id, size=nbytes))

        self.endorse_pool.submit(work, endorsed)

    # ------------------------------------------------------------------
    # Phase 3: validation + commit (sequential, the bottleneck)
    # ------------------------------------------------------------------
    def _validate_and_commit(self, msg: BlockMsg) -> None:
        costs = self.cluster.costs
        config = self.cluster.config
        per_tx = (config.validation_sigs_per_tx * costs.crypto.verify_time
                  + config.commit_time_per_tx
                  + costs.exec_time_per_tx)
        work = costs.batch_overhead + per_tx * len(msg.batch)
        self.commit_thread.submit(work, self._committed, msg)

    def _committed(self, msg: BlockMsg) -> None:
        nbytes = sum(r.size + r.reply_size for r in msg.batch) + 200
        self.store.append("ledger", ("block", msg.number), nbytes)
        self.store.sync(self._emit_events, msg)

    def _emit_events(self, msg: BlockMsg) -> None:
        self.blocks_committed += 1
        results = self.cluster.app_execute(self.id, msg.batch)
        by_station: dict[int, dict] = {}
        sizes: dict[int, int] = {}
        for request in msg.batch:
            result = results.get(request.key)
            if result is None:
                continue
            by_station.setdefault(request.station, {})[request.key] = result
            sizes[request.station] = sizes.get(request.station, 0) \
                + request.reply_size
        for station, payload in by_station.items():
            self.cluster.network.send(
                ("fab", self.id), station,
                ReplyBatchMsg(replica_id=self.id, results=payload,
                              size=sizes[station] + 32))


class _Orderer:
    """The ordering service: batches endorsed transactions into blocks.

    Modelled as a single logical service with the BFT ordering latency; the
    paper's bottleneck is peer validation, not ordering.
    """

    def __init__(self, cluster: "FabricCluster"):
        self.cluster = cluster
        self.pending: list[ClientRequest] = []
        self.number = 0
        self._cut_timer = None
        self.endpoint = cluster.network.register(("fab", "orderer"),
                                                 self._on_message)

    def _on_message(self, src: Any, msg: Message) -> None:
        if not isinstance(msg, OrderMsg):
            return
        self.pending.extend(msg.requests)
        if len(self.pending) >= self.cluster.config.block_size:
            self._cut()
        elif self._cut_timer is None:
            self._cut_timer = self.cluster.sim.schedule(
                self.cluster.config.batch_timeout, self._cut)

    def _cut(self) -> None:
        if self._cut_timer is not None:
            self._cut_timer.cancel()
            self._cut_timer = None
        if not self.pending:
            return
        size = self.cluster.config.block_size
        batch, self.pending = self.pending[:size], self.pending[size:]
        self.number += 1
        block = BlockMsg(number=self.number, batch=batch,
                         size=sum(r.size for r in batch) + 200)
        # BFT ordering rounds before delivery.
        self.cluster.sim.schedule(self.cluster.config.ordering_latency,
                                  self._deliver, block)
        if self.pending:
            self._cut_timer = self.cluster.sim.schedule(
                self.cluster.config.batch_timeout, self._cut)

    def _deliver(self, block: BlockMsg) -> None:
        for peer in self.cluster.peers:
            self.cluster.network.send(("fab", "orderer"), ("fab", peer.id),
                                      block)


class FabricCluster:
    """Peers + orderer, plus the client-side endorsement logic.

    Client stations talk to a Fabric cluster through
    :class:`FabricGateway`-style behaviour implemented in
    :meth:`station_view`: requests are first endorsed, then ordered.
    """

    def __init__(self, sim: Simulator, network: Network, config: FabricConfig,
                 costs: CostModel, app_factory) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.costs = costs
        self.apps: dict[int, Application] = {}
        self.peers: list[FabricPeer] = []
        for peer_id in range(config.n_peers):
            self.apps[peer_id] = app_factory()
            self.peers.append(FabricPeer(self, peer_id))
        self.orderer = _Orderer(self)
        #: Pending endorsements: request key -> (request, endorser set).
        self._endorsing: dict[tuple, tuple[ClientRequest, set[int]]] = {}
        self.gateway = network.register(("fab", "gateway"),
                                        self._on_gateway_message)

    def app_execute(self, peer_id: int, batch: list[ClientRequest]) -> dict:
        return self.apps[peer_id].execute_batch(batch)

    # ------------------------------------------------------------------
    # Gateway: stations submit here; we run the endorsement round for them
    # ------------------------------------------------------------------
    def _on_gateway_message(self, src: Any, msg: Message) -> None:
        if isinstance(msg, RequestBatchMsg):
            for request in msg.requests:
                if request.key not in self._endorsing:
                    self._endorsing[request.key] = (request, set())
            nbytes = sum(r.size for r in msg.requests)
            for endorser in range(self.config.endorsers_per_tx):
                self.network.send(("fab", "gateway"), ("fab", endorser),
                                  EndorseRequestMsg(requests=msg.requests,
                                                    size=nbytes))
        elif isinstance(msg, EndorseReplyMsg):
            ready = []
            for key in msg.keys:
                entry = self._endorsing.get(key)
                if entry is None:
                    continue
                request, endorsers = entry
                endorsers.add(msg.endorser)
                if len(endorsers) >= self.config.endorsers_per_tx:
                    ready.append(request)
                    del self._endorsing[key]
            if ready:
                nbytes = sum(r.size + 96 * self.config.endorsers_per_tx
                             for r in ready)
                self.network.send(("fab", "gateway"), ("fab", "orderer"),
                                  OrderMsg(requests=ready, size=nbytes))

    def metrics(self) -> dict[str, int]:
        return {"blocks": self.peers[0].blocks_committed}

    def view(self) -> View:
        """Stations send requests to the gateway and receive peer events."""
        return View(0, (("fab", "gateway"),))
