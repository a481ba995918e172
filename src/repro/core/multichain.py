"""Sharded multi-chain SMARTCHAIN: many replica groups, one substrate.

The paper's blockchain layer is independent of the consensus module; this
module exploits that independence in the other direction: *several*
independent SMARTCHAIN replica groups (shards) run side by side on one
simulated substrate.  Each shard is a full :class:`~repro.core.node
.ReplicaGroup` — its own view, consensus engine, ledger, key directory and
application state — so aggregate throughput scales with the number of
groups instead of being capped by a single ordering pipeline.

Identity scheme
---------------
Shard ``k`` hosts replicas ``k * SHARD_STRIDE + i`` for ``i in range(n)``.
Shard 0 therefore keeps the classic ids ``0..n-1`` and, bootstrapped first
from the shared :class:`~repro.crypto.keys.KeyRegistry`, draws exactly the
key material a single-group run would — the ``shards=1`` entry points stay
byte-identical.  Client stations live at ``9000 + 100 * shard + s``; with
``MAX_SHARDS`` groups the replica and station id ranges never collide.

Cross-shard trust
-----------------
Groups share one key registry, so a destination shard can verify a source
shard's persist-certificate signatures against the *source* genesis block's
recorded key announcements — no shared live objects, exactly the
self-verifiability contract of :mod:`repro.ledger.verifier`.  The
:class:`MultiChain` exposes each shard's genesis as the trust anchor for
:class:`repro.ledger.xshard.TransferVerifier`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import CostModel, SmartChainConfig
from repro.core.node import ReplicaGroup, SmartChainNode, bootstrap
from repro.crypto.keys import KeyRegistry
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.smr.views import View

__all__ = ["SHARD_STRIDE", "MAX_SHARDS", "STATION_BASE", "STATION_STRIDE",
           "shard_of_node", "station_id", "MultiChain", "bootstrap_shards",
           "CertificateFetcher"]

#: Replica-id offset between consecutive shards.  Shard k's members are
#: ``k * SHARD_STRIDE + i``; shard 0 keeps the classic ids 0..n-1.
SHARD_STRIDE = 1000

#: Client stations of shard k sit at ``STATION_BASE + STATION_STRIDE*k + s``.
STATION_BASE = 9000
STATION_STRIDE = 100

#: Upper bound on the shard count: shard ``MAX_SHARDS`` replicas would reach
#: id 9000 and collide with shard 0's client stations.
MAX_SHARDS = 8


def shard_of_node(node_id: int) -> int:
    """Which shard a network endpoint id belongs to (replica or station)."""
    if node_id >= STATION_BASE:
        return (node_id - STATION_BASE) // STATION_STRIDE
    return node_id // SHARD_STRIDE


def station_id(shard: int, index: int) -> int:
    """The id of shard ``shard``'s ``index``-th client station."""
    return STATION_BASE + STATION_STRIDE * shard + index


class MultiChain:
    """N independent SMARTCHAIN replica groups on one simulation substrate.

    Groups are indexed by shard number; ``multichain.groups[0]`` of a
    one-shard deployment is exactly what :func:`~repro.core.node.bootstrap`
    returns.  The shared pieces are the simulator, the network (so clients
    can reach every shard) and the key registry (so a shard can verify
    another shard's signatures); everything consensus-scoped is per group.
    """

    def __init__(self, sim: Simulator, network: Network,
                 registry: KeyRegistry, groups: list[ReplicaGroup]):
        self.sim = sim
        self.network = network
        self.registry = registry
        self.groups: list[ReplicaGroup] = list(groups)
        #: Live view per shard, updated by every node's view listeners so
        #: clients and routers always target the current membership.
        self._views: list[View] = [g.genesis.view for g in self.groups]
        for shard, group in enumerate(self.groups):
            for node in group.nodes.values():
                node.view_listeners.append(self._view_setter(shard))

    def _view_setter(self, shard: int) -> Callable[[View], None]:
        def set_view(view: View) -> None:
            self._views[shard] = view
        return set_view

    @property
    def shards(self) -> int:
        return len(self.groups)

    def group(self, shard: int) -> ReplicaGroup:
        return self.groups[shard]

    def view_of(self, shard: int) -> Callable[[], View]:
        """A live view thunk for shard ``shard`` (what stations expect)."""
        return lambda: self._views[shard]

    def genesis_of(self, shard: int):
        return self.groups[shard].genesis

    def nodes(self) -> dict[int, SmartChainNode]:
        """Every node of every shard, keyed by global node id."""
        out: dict[int, SmartChainNode] = {}
        for group in self.groups:
            out.update(group.nodes)
        return out

    def replicas(self) -> dict[int, Any]:
        return {nid: node.replica for nid, node in self.nodes().items()}

    def apps(self, shard: int) -> list[Any]:
        return [node.app for node in self.groups[shard].nodes.values()]

    def heads(self) -> dict[int, dict[int, int]]:
        return {shard: group.heads()
                for shard, group in enumerate(self.groups)}

    def metrics(self) -> dict[str, Any]:
        """Progress per shard, as its first node reports it — blocks and
        certificates from the delivery layer, cross-shard value moved from
        the application — plus the deployment-wide totals."""
        per_shard: dict[str, dict[str, Any]] = {}
        for shard, group in enumerate(self.groups):
            node0 = group.nodes[min(group.nodes)]
            app = node0.app
            per_shard[str(shard)] = {
                **node0.delivery.metrics(),
                "redeemed": len(app.redeemed),
                "xlock_value_out": app.xlock_value_out,
                "xmint_value_in": app.xmint_value_in,
            }
        return {
            "blocks": sum(e["blocks"] for e in per_shard.values()),
            "certificates": sum(e["certificates"]
                                for e in per_shard.values()),
            "transfers_redeemed": sum(e["redeemed"]
                                      for e in per_shard.values()),
            "per_shard": per_shard,
        }


class CertificateFetcher:
    """Assembles transfer certificates from a source shard's live chain.

    Plays the role of the client-side library that, in a real deployment,
    reads the source shard's public chain to build the proof it presents to
    the destination shard.  ``fetcher(source_shard, xfer_id)`` returns the
    serialized :class:`~repro.ledger.xshard.TransferCertificate` record, or
    ``None`` while the lock's block has no quorum certificate yet (PERSIST
    in flight) — callers retry later.

    Certified blocks are identical on every correct replica, so the fetcher
    indexes the best (tallest) chain in the group; results are independent
    of which replica it happens to read.
    """

    def __init__(self, multichain: MultiChain):
        self.multichain = multichain
        #: shard -> xfer_id -> serialized certificate record
        self._index: dict[int, dict[str, tuple]] = {}
        #: shard -> last block height whose certificate was indexed
        self._scanned: dict[int, int] = {}

    def __call__(self, source_shard: int, xfer_id: str) -> tuple | None:
        index = self._index.setdefault(source_shard, {})
        record = index.get(xfer_id)
        if record is None:
            self._scan(source_shard, index)
            record = index.get(xfer_id)
        return record

    def _scan(self, shard: int, index: dict[str, tuple]) -> None:
        import ast

        from repro.ledger.xshard import build_transfer_certificate

        group = self.multichain.groups[shard]
        best = max(sorted(group.nodes.values(), key=lambda n: n.id),
                   key=lambda n: n.chain.height)
        chain = best.chain
        number = self._scanned.get(shard, chain.base_height) + 1
        while number <= chain.height:
            block = chain.get(number)
            if block.certificate is None:
                break  # PERSIST in flight; resume here next time
            for idx, record in enumerate(block.body.results):
                repr_str = record[2]
                if not repr_str.startswith("('xlocked'"):
                    continue
                result = ast.literal_eval(repr_str)
                cert = build_transfer_certificate(
                    shard, block, record[0], record[1])
                if cert is not None:
                    index[result[1]] = cert.to_record()
            self._scanned[shard] = number
            number += 1


def bootstrap_shards(
    sim: Simulator,
    shards: int,
    n: int,
    app_factory: Callable[[int], Any],
    config_factory: Callable[[int], SmartChainConfig],
    costs: CostModel | None = None,
    engine: str | None = None,
    app_setup: Any = None,
) -> MultiChain:
    """Bootstrap ``shards`` independent replica groups of ``n`` nodes each.

    ``app_factory(shard)`` returns a fresh application instance for one node
    of that shard (each shard typically gets its own minter partition);
    ``config_factory(shard)`` returns the group's config (usually identical
    per shard, but kept per-shard so experiments can skew one group).

    Shard 0 is bootstrapped first with the classic member ids 0..n-1, so
    its key-registry draws, genesis block and node construction order are
    identical to a single-group :func:`~repro.core.node.bootstrap` — the
    foundation of the harness's ``shards=1`` byte-identity guarantee.
    """
    if not 1 <= shards <= MAX_SHARDS:
        raise ValueError(f"shards must be in 1..{MAX_SHARDS}, got {shards}")
    costs = costs or CostModel()
    registry = KeyRegistry(seed=sim.seed)
    network = Network(sim, costs.network)
    groups: list[ReplicaGroup] = []
    for shard in range(shards):
        base = shard * SHARD_STRIDE
        member_ids = tuple(base + i for i in range(n))
        group = bootstrap(
            sim, member_ids,
            lambda shard=shard: app_factory(shard),
            config_factory(shard), costs=costs,
            app_setup=app_setup,
            registry=registry, network=network,
            engine=engine, shard=shard,
        )
        groups.append(group)
    return MultiChain(sim, network, registry, groups)
