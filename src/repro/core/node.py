"""SmartChainNode: a complete SMARTCHAIN platform node.

Composes a Mod-SMaRt replica (per-view consensus keys), the blockchain
delivery layer (Algorithm 1) and the decentralized reconfiguration manager,
and adds:

- a *system invoker* so the node itself can submit special transactions
  (join/leave/remove/keyreg) through the ordering protocol and match reply
  quorums like a client;
- crash / recovery orchestration (including re-running the PERSIST phase
  for blocks whose certificates were lost in a full crash);
- a :func:`bootstrap` helper that generates the consortium keys, writes the
  genesis block and builds the initial nodes — the zero-to-running path the
  examples use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import CostModel, SmartChainConfig
from repro.core.blockchain_layer import SmartChainDelivery
from repro.core.reconfig import ReconfigManager
from repro.crypto.keys import KeyRegistry
from repro.crypto.hashing import hash_obj
from repro.ledger.block import KeyAnnouncement
from repro.ledger.genesis import GenesisBlock
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.smr.keydir import KeyDirectory
from repro.smr.replica import ModSmartReplica
from repro.smr.requests import ClientRequest, ReplyBatchMsg, RequestBatchMsg
from repro.smr.service import Application
from repro.smr.views import View
from repro.storage.stable import StableStore

__all__ = ["SmartChainNode", "bootstrap", "ReplicaGroup"]


@dataclass
class _SystemCall:
    request: ClientRequest
    on_reply: Callable[[Any], None] | None
    votes: dict[bytes, set[int]] = field(default_factory=dict)
    payloads: dict[bytes, Any] = field(default_factory=dict)


class SmartChainNode:
    """One member (or candidate member) of a SMARTCHAIN consortium."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
        keydir: KeyDirectory,
        node_id: int,
        genesis: GenesisBlock,
        config: SmartChainConfig,
        costs: CostModel,
        app: Application,
        store: StableStore | None = None,
        view: View | None = None,
        permanent_key=None,
        initial_consensus_key=None,
        policy: Callable[[str, int, Any], bool] | None = None,
        engine=None,
    ):
        self.sim = sim
        self.id = node_id
        self.genesis = genesis
        self.config = config
        self.app = app
        current_view = view or genesis.view
        self.permanent_keys: dict[int, str] = dict(genesis.permanent_keys)
        self.delivery = SmartChainDelivery(app, config, genesis)
        self.delivery.node = self
        self.replica = ModSmartReplica(
            sim, network, registry, keydir, node_id, current_view,
            config.smr, costs, self.delivery, store=store,
            key_policy="per_view",
            active=current_view.contains(node_id),
            permanent_key=permanent_key,
            initial_consensus_key=initial_consensus_key,
            engine=engine,
        )
        self.reconfig = ReconfigManager(self, policy=policy)
        self.replica.register_handler(ReplyBatchMsg, self._on_reply_batch)
        self._system_seq = itertools.count(1)
        self._system_calls: dict[tuple[int, int], _SystemCall] = {}
        #: Invoked after every reconfiguration block (tests/benches hook it).
        self.view_listeners: list[Callable[[View], None]] = []

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def view(self) -> View:
        return self.replica.cv

    @property
    def chain(self):
        return self.delivery.chain

    @property
    def active(self) -> bool:
        return self.replica.active and not self.replica.crashed

    def chain_records(self) -> list[tuple]:
        return self.delivery.chain_records()

    # ------------------------------------------------------------------
    # System transactions (the node acting as its own client)
    # ------------------------------------------------------------------
    def submit_system_request(self, op: Any, special: str,
                              on_reply: Callable[[Any], None] | None = None) -> None:
        replica = self.replica
        request = ClientRequest(
            client_id=1_000_000 + self.id,
            req_id=next(self._system_seq),
            op=op,
            size=320,
            signed=False,
            sent_at=self.sim.now,
            station=self.id,
            reply_size=128,
            special=special,
        )
        self._system_calls[request.key] = _SystemCall(request, on_reply)
        targets = list(replica.cv.members)
        nbytes = request.size + 16
        replica.net.broadcast(self.id, targets, RequestBatchMsg(
            requests=[request], size=nbytes))

    def _on_reply_batch(self, src: int, msg: ReplyBatchMsg) -> None:
        quorum = self.replica.quorum
        for key, (payload, digest) in msg.results.items():
            call = self._system_calls.get(key)
            if call is None:
                continue
            voters = call.votes.setdefault(digest, set())
            voters.add(msg.replica_id)
            call.payloads[digest] = payload
            if len(voters) >= quorum:
                del self._system_calls[key]
                if call.on_reply is not None:
                    call.on_reply(call.payloads[digest])

    # ------------------------------------------------------------------
    # Membership operations (Figure 5)
    # ------------------------------------------------------------------
    def join(self, credentials: Any = None,
             on_done: Callable[[], None] | None = None) -> None:
        """Ask the consortium for admission, then catch up and activate."""

        def on_view_reply(result: Any) -> None:
            if not (isinstance(result, tuple) and result
                    and result[0] == "view"):
                return
            _tag, view_id, members = result
            new_view = View(view_id, tuple(members))
            self.replica.install_view(new_view)
            self.replica.state_transfer.start(lambda _cid: self._activate(on_done))

        self.reconfig.request_join(credentials, on_done=on_view_reply)

    def _activate(self, on_done: Callable[[], None] | None) -> None:
        if self.replica.active:
            return
        self.replica.active = True
        self.replica.maybe_propose()
        if on_done is not None:
            on_done()

    def leave(self, on_done: Callable[[], None] | None = None) -> None:
        """Ask to leave; the node keeps serving until the new view installs
        (a leaver that stops early is considered faulty — Section III)."""
        self.reconfig.request_leave(
            on_done=None if on_done is None else lambda _result: on_done())

    def vote_exclude(self, target: int) -> None:
        self.reconfig.vote_exclude(target)

    def on_view_change(self, block, new_view: View) -> None:
        """Called by the reconfiguration manager after a view installs."""
        for listener in self.view_listeners:
            listener(new_view)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        self.replica.crash()

    def recover(self, on_ready: Callable[[], None] | None = None) -> None:
        """Recover from a crash: local stable state, then state transfer,
        then (strong variant) re-certify any block that lost its
        certificate in the crash."""

        def ready() -> None:
            if self.delivery.can_self_verify():
                self.delivery.repersist_missing()
            if on_ready is not None:
                on_ready()

        self.replica.recover(ready)


class ReplicaGroup:
    """One independent SMARTCHAIN replica group: nodes plus substrate.

    A group owns everything consensus-scoped — its view, genesis block,
    key directory, per-node chains and apps — while the simulation
    substrate (``sim``, and in sharded deployments the network and key
    registry) may be shared with other groups.  The single-group
    deployment of :func:`bootstrap` is the ``shard=0`` special case; a
    sharded multi-chain (:mod:`repro.core.multichain`) hosts several
    groups side by side, each with member ids offset by its shard base.
    """

    def __init__(self, sim, network, registry, keydir, genesis, nodes,
                 config, costs, engine=None, shard=0, base_id=0):
        self.sim = sim
        self.network = network
        self.registry = registry
        self.keydir = keydir
        self.genesis = genesis
        self.nodes: dict[int, SmartChainNode] = {n.id: n for n in nodes}
        self.config = config
        self.costs = costs
        self.engine = engine
        #: Which shard this group orders for (0 in single-group runs).
        self.shard = shard
        #: First member id of the group (``shard * SHARD_STRIDE``).
        self.base_id = base_id

    @property
    def view(self) -> View:
        for node in self.nodes.values():
            if node.active:
                return node.view
        return self.genesis.view

    def node(self, node_id: int) -> SmartChainNode:
        return self.nodes[node_id]

    def add_candidate(self, node_id: int, app: Application,
                      policy=None) -> SmartChainNode:
        """Create a not-yet-member node that can request to join."""
        node = SmartChainNode(
            self.sim, self.network, self.registry, self.keydir, node_id,
            self.genesis, self.config, self.costs, app,
            view=self.view, policy=policy, engine=self.engine,
        )
        node.replica.active = False
        self.nodes[node_id] = node
        return node

    def heads(self) -> dict[int, int]:
        return {nid: n.chain.height for nid, n in self.nodes.items()}


def bootstrap(
    sim: Simulator,
    member_ids: tuple[int, ...],
    app_factory: Callable[[], Application],
    config: SmartChainConfig,
    costs: CostModel | None = None,
    app_setup: Any = None,
    registry: KeyRegistry | None = None,
    network: Network | None = None,
    policy: Callable[[str, int, Any], bool] | None = None,
    engine: str | None = None,
    shard: int = 0,
) -> ReplicaGroup:
    """Create a replica group from scratch: keys, genesis block, nodes.

    This is the deployment path a real operator would follow: generate each
    member's permanent key pair and initial consensus key pair, certify the
    consensus keys with the permanent keys, write everything into the
    genesis block, and start one node per member.

    ``registry`` and ``network`` default to fresh per-group instances (the
    classic single-group deployment); a sharded deployment passes shared
    ones so groups can exchange verifiable artifacts (see
    :mod:`repro.core.multichain`).  Key labels derive from member ids, so
    groups with disjoint member ids draw disjoint keys from a shared
    registry.
    """
    costs = costs or CostModel()
    registry = registry or KeyRegistry(seed=sim.seed)
    network = network or Network(sim, costs.network)
    keydir = KeyDirectory()
    view = View(0, tuple(sorted(member_ids)))

    permanent = {}
    consensus = {}
    announcements = []
    for member in view.members:
        perm_key = registry.generate(f"perm-r{member}")
        cons_key = registry.generate(f"cons-r{member}-v0")
        permanent[member] = perm_key
        consensus[member] = cons_key
        payload = hash_obj(("keyann", 0, member, cons_key.public))
        announcements.append(KeyAnnouncement(
            0, member, cons_key.public, perm_key.sign(payload)))

    genesis = GenesisBlock(
        view=view,
        permanent_keys={m: k.public for m, k in permanent.items()},
        key_announcements=announcements,
        checkpoint_period=config.checkpoint_period,
        app_setup=app_setup,
        created_at=sim.now,
    )

    nodes = []
    for member in view.members:
        node = SmartChainNode(
            sim, network, registry, keydir, member, genesis, config, costs,
            app_factory(),
            permanent_key=permanent[member],
            initial_consensus_key=consensus[member],
            policy=policy,
            engine=engine,
        )
        nodes.append(node)
    return ReplicaGroup(sim, network, registry, keydir, genesis, nodes,
                        config, costs, engine=engine, shard=shard,
                        base_id=min(view.members) if view.members else 0)
