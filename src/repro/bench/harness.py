"""Experiment harness: one :class:`Scenario` in, one :class:`ExperimentResult` out.

A :class:`Scenario` declares *what* to run — system, cluster size, client
population, duration, seed, warmup, workload, observability options — and
:func:`run` executes it: build a fresh simulation, deploy the paper's client
population, run for the simulated duration and measure throughput the way
the paper measures it (fixed operation-count intervals, 20% highest-variance
intervals discarded, average — Section VI-A).

The historical ``run_smartchain`` / ``run_naive_smartcoin`` / ``run_dura_smart``
/ ``run_tendermint`` / ``run_fabric`` entry points remain as deprecated thin
wrappers that construct the equivalent Scenario — byte-identical results,
plus a :class:`DeprecationWarning` pointing at ``Scenario``/``run``.

Results are plain data: every field of :class:`ExperimentResult` survives
``json.dumps`` (see :meth:`ExperimentResult.to_json`).  Live simulation
objects — the consortium, the stations, the simulator — are available on the
separate :attr:`ExperimentResult.handle`, which is deliberately *not* part
of the serialized result.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.naive import NaiveBlockchainDelivery
from repro.apps.smartcoin import SmartCoin
from repro.baselines.fabric import FabricCluster, FabricConfig
from repro.baselines.tendermint import TendermintCluster, TendermintConfig
from repro.clients.client import ClientStation
from repro.config import (
    CostModel,
    PersistenceVariant,
    SMRConfig,
    SmartChainConfig,
    StorageMode,
    VerificationMode,
)
from repro.core.node import bootstrap
from repro.crypto import hashing as _hashing
from repro.crypto.keys import KeyRegistry
from repro.net.network import Network
from repro.obs import Observability, build_run_report
from repro.obs.audit import SafetyAuditor
from repro.sim.engine import Simulator
from repro.sim.trace import merge_stamps, op_window_rates, trimmed_mean
from repro.smr.durability import DuraSmartDelivery
from repro.smr.keydir import KeyDirectory
from repro.smr.replica import ModSmartReplica
from repro.smr.views import View
from repro.workloads.coingen import all_minter_addresses, deploy_clients

__all__ = [
    "DEFAULT_WARMUP",
    "Scenario",
    "RunHandle",
    "ExperimentResult",
    "run",
    "run_smartchain",
    "run_naive_smartcoin",
    "run_dura_smart",
    "run_tendermint",
    "run_fabric",
]

#: Simulated seconds excluded from the head of every measurement: the ramp
#: (staggered client starts, pipeline fill) settles within the first second
#: on every system modelled here, so a single default applies uniformly.
#: Historically the comparator runs (Tendermint, Fabric) used a different,
#: duration-dependent warmup than the SMARTCHAIN/BFT-SMART runs, which
#: skewed the Table II comparison; a Scenario now carries one explicit value.
DEFAULT_WARMUP = 1.0

#: Back-compat alias (pre-Scenario name).
WARMUP = DEFAULT_WARMUP

#: Systems a Scenario may name (the keys of ``_BUILDERS``, spelled out
#: here so :meth:`Scenario.__post_init__` can validate at construction).
_VALID_SYSTEMS = frozenset(
    {"smartchain", "naive", "dura", "tendermint", "fabric"})

#: Systems whose replicas host a pluggable consensus engine.
_ENGINE_SYSTEMS = frozenset({"smartchain", "naive", "dura"})

#: Workload generators :func:`repro.workloads.coingen.deploy_clients`
#: understands.
_VALID_WORKLOADS = frozenset({"mint", "spend", "mint_then_spend"})


# ----------------------------------------------------------------------
# Scenario: the single description of an experiment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """Declarative description of one experiment run.

    ``system`` selects the stack: ``smartchain`` (Algorithm 1 on Mod-SMaRt),
    ``naive`` (app-level blockchain on BFT-SMART), ``dura`` (Dura-SMaRt
    durability layer), ``tendermint`` or ``fabric`` (Table II comparators).
    The consensus-related fields (``variant``, ``storage``, ``verification``,
    ``checkpoint_period``) apply to the systems that have them; ``config``
    carries a :class:`TendermintConfig`/:class:`FabricConfig` override for
    the comparators.
    """

    system: str = "smartchain"
    #: Consensus engine key (see repro.consensus.engine_names()); applies
    #: to the engine-hosting systems (smartchain/naive/dura).
    engine: str = "modsmart"
    #: Number of independent replica groups (``system="smartchain"`` only).
    #: ``1`` is the classic single-group deployment, byte-identical to the
    #: pre-sharding harness.
    shards: int = 1
    #: Fraction of SPEND operations that become two-phase cross-shard
    #: transfers (LOCK-and-burn on the source shard, certificate-verified
    #: mint on the destination).  Ignored when ``shards == 1``.
    cross_shard_fraction: float = 0.0
    #: Consensus instances the leader keeps in flight at once
    #: (``SMRConfig.pipeline_depth``); 1 = classic sequential ordering,
    #: byte-identical to the pre-pipelining harness.  Engine-hosting
    #: systems only.
    pipeline_depth: int = 1
    #: Modeled execution cores (``SMRConfig.exec_cores``) for parallel
    #: deterministic execution; 1 = execute on the SM thread.
    exec_cores: int = 1
    n: int = 4
    clients: int = 2400
    duration: float = 4.0
    seed: int = 1
    warmup: float = DEFAULT_WARMUP
    workload: str = "spend"
    variant: PersistenceVariant = PersistenceVariant.STRONG
    storage: StorageMode = StorageMode.SYNC
    verification: VerificationMode = VerificationMode.PARALLEL
    checkpoint_period: int = 10_000
    costs: CostModel | None = None
    config: Any = None
    label: str | None = None
    op_window: int = 2000
    #: Record metrics, pipeline spans and resource utilization; the result
    #: then carries a machine-readable report (ExperimentResult.report).
    observe: bool = False
    #: Trace one request in this many (deterministic in the request key).
    trace_sample_every: int = 1
    #: Record the typed protocol event stream (defaults to ``observe``).
    record_events: bool | None = None
    #: Attach the online safety auditor (implies event recording); any
    #: invariant violation raises AuditError when the run finishes.
    audit: bool = False
    #: Attach the online liveness auditor (implies event recording): every
    #: request must be replied within ``liveness_bound`` of ``max(submit,
    #: liveness_gst)``, and ``wedge_k`` consecutive decisionless regency
    #: changes flag a wedge.  Violations raise AuditError when the run
    #: finishes, exactly like ``audit``.
    audit_liveness: bool = False
    #: Post-GST commit-latency bound in simulated seconds.  ``None`` defers
    #: to the fault plan's ``liveness`` hints, then to 1.0 s.
    liveness_bound: float | None = None
    #: Global stabilization time the bound is measured from.  ``None``
    #: defers to the fault plan's hints, then to the cost model's network
    #: GST.
    liveness_gst: float | None = None
    #: Consecutive decisionless regency changes that count as a wedge.
    #: ``None`` defers to the fault plan's hints, then to 4.
    wedge_k: int | None = None
    #: Bound on retained protocol events (oldest dropped and counted).
    event_capacity: int = 100_000
    #: Fault plan for adversarial runs: a :class:`repro.faults.FaultPlan`,
    #: a named plan (``"equivocate"``), a JSON file path, an inline JSON
    #: string, or ``None`` for a fault-free run.
    faults: Any = None

    def __post_init__(self) -> None:
        """Fail fast on unknown names and out-of-range sharding knobs.

        A typo'd system/engine/workload used to surface only deep inside
        :func:`run` (or worse, fall through to a default workload); here it
        raises at Scenario *construction*, before any simulation exists.
        """
        if self.system not in _VALID_SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; "
                f"expected one of {sorted(_VALID_SYSTEMS)}")
        if self.system in _ENGINE_SYSTEMS:
            from repro.consensus import engine_names
            names = engine_names()
            if self.engine not in names:
                raise ValueError(
                    f"unknown consensus engine {self.engine!r}; "
                    f"expected one of {sorted(names)}")
        if self.workload not in _VALID_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(_VALID_WORKLOADS)}")
        from repro.core.multichain import MAX_SHARDS
        if not 1 <= self.shards <= MAX_SHARDS:
            raise ValueError(
                f"shards must be in 1..{MAX_SHARDS}, got {self.shards}")
        if self.shards > 1 and self.system != "smartchain":
            raise ValueError(
                f"sharding requires system='smartchain', "
                f"got {self.system!r}")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError(
                f"cross_shard_fraction must be in [0, 1], "
                f"got {self.cross_shard_fraction}")
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}")
        if self.exec_cores < 1:
            raise ValueError(
                f"exec_cores must be >= 1, got {self.exec_cores}")
        if ((self.pipeline_depth != 1 or self.exec_cores != 1)
                and self.system not in _ENGINE_SYSTEMS):
            raise ValueError(
                "pipeline_depth/exec_cores apply only to the engine-hosting "
                f"systems {sorted(_ENGINE_SYSTEMS)}, got {self.system!r}")

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary of the scenario (for bench reports)."""
        out = self._describe_base()
        if self.shards > 1:  # additive: single-group summaries unchanged
            out = {**out, "shards": self.shards,
                   "cross_shard_fraction": self.cross_shard_fraction}
        if self.pipeline_depth != 1 or self.exec_cores != 1:  # additive too
            out = {**out, "pipeline_depth": self.pipeline_depth,
                   "exec_cores": self.exec_cores}
        return out

    def _describe_base(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "engine": self.engine,
            "n": self.n,
            "clients": self.clients,
            "duration": self.duration,
            "seed": self.seed,
            "warmup": self.warmup,
            "workload": self.workload,
            "variant": self.variant.value,
            "storage": self.storage.value,
            "verification": self.verification.value,
            "faults": self._fault_plan_name(),
        }

    def _fault_plan_name(self) -> str | None:
        if self.faults is None:
            return None
        name = getattr(self.faults, "name", None)
        if isinstance(name, str):
            return name
        if isinstance(self.faults, dict):
            return self.faults.get("name")
        return str(self.faults)


@dataclass
class RunHandle:
    """Live objects of a finished run (not serialized with the result).

    ``system`` is the stack's top-level object: the :class:`Consortium` for
    ``smartchain``, the replica list for ``naive``/``dura``, the cluster for
    the comparators.
    """

    scenario: Scenario
    sim: Simulator
    obs: Observability
    stations: list[ClientStation]
    system: Any


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.  Every field except ``handle`` is
    plain data and survives ``json.dumps`` (see :meth:`to_json`)."""

    label: str
    throughput: float              # tx/s, trimmed-mean of intervals
    latency_mean: float            # seconds
    latency_p95: float
    completed: int
    duration: float
    latency_p99: float = 0.0
    warmup: float = DEFAULT_WARMUP
    interval_rates: list[float] = field(default_factory=list)
    #: Scalar outcome metrics (blocks built, certificates, group commit ...).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Machine-readable run report (observed runs only; see repro.obs.report).
    report: dict[str, Any] | None = None
    #: Live objects of the run; excluded from serialization.
    handle: RunHandle | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict[str, Any]:
        """The result as a JSON-serializable dict (no live objects)."""
        return {
            "label": self.label,
            "throughput": self.throughput,
            "latency_mean": self.latency_mean,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "completed": self.completed,
            "duration": self.duration,
            "warmup": self.warmup,
            "interval_rates": list(self.interval_rates),
            "metrics": dict(self.metrics),
            "report": self.report,
        }

    def row(self) -> str:
        return (f"{self.label:<42} {self.throughput:>9.0f} tx/s   "
                f"{self.latency_mean * 1000:>7.1f} ms")


def _measure(stations: list[ClientStation], duration: float,
             label: str, op_window: int = 2000,
             warmup: float = DEFAULT_WARMUP,
             extra: dict | None = None,
             metrics: dict | None = None) -> ExperimentResult:
    # The paper's method: throughput per fixed operation-count interval,
    # discard the 20% with the greatest deviation, average the rest.
    in_window = merge_stamps([st.meter for st in stations],
                             start=warmup, end=duration)
    total_in_window = sum(count for _, count in in_window)
    # Short runs shrink the window so at least a few intervals form — but a
    # window must still span several reply bursts (blocks complete up to
    # 512 transactions at one instant), or burst-local rates explode.
    op_window = max(1100, min(op_window, total_in_window // 3 or 1100))
    rates = op_window_rates(in_window, op_window)
    if rates:
        throughput = trimmed_mean(rates)
    elif duration > warmup:
        throughput = total_in_window / (duration - warmup)
    else:
        throughput = 0.0
    latencies = sorted(lat for st in stations for lat in st.latency.samples)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = latencies[min(len(latencies) - 1,
                        int(0.95 * len(latencies)))] if latencies else 0.0
    p99 = latencies[min(len(latencies) - 1,
                        int(0.99 * len(latencies)))] if latencies else 0.0
    completed = sum(st.meter.total for st in stations)
    return ExperimentResult(
        label=label,
        throughput=throughput,
        latency_mean=mean,
        latency_p95=p95,
        latency_p99=p99,
        completed=completed,
        duration=duration,
        warmup=warmup,
        interval_rates=rates,
        metrics={**(extra or {}), **(metrics or {})},
    )


def _signed(verification: VerificationMode) -> bool:
    return verification is not VerificationMode.NONE


# ----------------------------------------------------------------------
# System builders: Scenario -> (stations, label, system, metrics thunk)
# ----------------------------------------------------------------------
@dataclass
class _Built:
    stations: list[ClientStation]
    label: str
    system: Any
    metrics: Callable[[], dict[str, Any]]
    #: Fault-injection surface: the network plus ``{id: replica}`` (and,
    #: for SMARTCHAIN, ``{id: SmartChainNode}``).  Builders that cannot
    #: host Byzantine replicas (the comparators) leave these unset.
    network: Any = None
    replicas: dict[int, Any] | None = None
    nodes: dict[int, Any] | None = None


def _pipeline_suffix(label: str, sc: Scenario) -> str:
    """Append the pipelining knobs to a ``(...)`` label when non-default."""
    if sc.pipeline_depth != 1 or sc.exec_cores != 1:
        label = (f"{label[:-1]}, depth={sc.pipeline_depth}, "
                 f"cores={sc.exec_cores})")
    return label


def _build_smartchain(sim: Simulator, sc: Scenario,
                      costs: CostModel) -> _Built:
    if sc.shards > 1:
        return _build_multishard(sim, sc, costs)
    f = (sc.n - 1) // 3
    config = SmartChainConfig(
        smr=SMRConfig(n=sc.n, f=f, verification=sc.verification,
                      pipeline_depth=sc.pipeline_depth,
                      exec_cores=sc.exec_cores),
        variant=sc.variant,
        storage=sc.storage,
        checkpoint_period=sc.checkpoint_period,
    )
    minters = all_minter_addresses(sc.clients)
    consortium = bootstrap(sim, tuple(range(sc.n)),
                           lambda: SmartCoin(minters=minters),
                           config, costs=costs, engine=sc.engine)
    view_holder = [consortium.genesis.view]
    for node in consortium.nodes.values():
        node.view_listeners.append(
            lambda view: view_holder.__setitem__(0, view))
    stations, _wallets = deploy_clients(
        sim, consortium.network, lambda: view_holder[0], sc.clients,
        workload=sc.workload, signed=_signed(sc.verification))
    label = (f"SmartChain {sc.variant.value} "
             f"({sc.storage.value}, {sc.verification.value}, n={sc.n})")
    if sc.engine != "modsmart":
        label = f"{label[:-1]}, {sc.engine})"
    label = _pipeline_suffix(label, sc)
    node0 = consortium.node(0)
    return _Built(stations, label, consortium, lambda: {
        "blocks": node0.delivery.blocks_built,
        "certificates": node0.delivery.certs_completed,
    }, network=consortium.network,
        replicas={nid: node.replica
                  for nid, node in consortium.nodes.items()},
        nodes=dict(consortium.nodes))


def _event_app_hook(sim: Simulator, node_id: int) -> Callable[..., None]:
    """An application-level event emitter bound to one node's identity."""
    def hook(kind: str, **fields: Any) -> None:
        obs = sim.obs
        if obs.record_events:
            obs.events.emit(kind, node_id, sim.now, **fields)
    return hook


def _build_multishard(sim: Simulator, sc: Scenario,
                      costs: CostModel) -> _Built:
    """``sc.shards`` independent SMARTCHAIN groups on one substrate.

    Mirrors :func:`_build_smartchain` per group, then wires the pieces the
    single-group path has no use for: a :class:`TransferVerifier` per shard
    (so replicas can statelessly verify other shards' lock certificates),
    an application event hook per node (typed ``cert-redeemed`` /
    ``cert-rejected`` events for the cross-shard auditor) and the sharded
    client deployment with routed stations.
    """
    from repro.core.multichain import bootstrap_shards
    from repro.ledger.xshard import TransferVerifier
    from repro.workloads.coingen import deploy_sharded_clients

    f = (sc.n - 1) // 3
    minters = all_minter_addresses(sc.clients)

    def config_factory(shard: int) -> SmartChainConfig:
        return SmartChainConfig(
            smr=SMRConfig(n=sc.n, f=f, verification=sc.verification,
                          pipeline_depth=sc.pipeline_depth,
                          exec_cores=sc.exec_cores),
            variant=sc.variant,
            storage=sc.storage,
            checkpoint_period=sc.checkpoint_period,
        )

    multichain = bootstrap_shards(
        sim, sc.shards, sc.n,
        lambda shard: SmartCoin(minters=minters),
        config_factory, costs=costs, engine=sc.engine)
    genesis_by_shard = {shard: multichain.genesis_of(shard)
                        for shard in range(sc.shards)}
    record_events = sim.obs.record_events
    for shard in range(sc.shards):
        verifier = TransferVerifier(shard, multichain.registry,
                                    genesis_by_shard)
        for node in multichain.group(shard).nodes.values():
            node.app.transfer_verifier = verifier
            if record_events:
                node.app.event_hook = _event_app_hook(sim, node.id)
    stations, _wallets = deploy_sharded_clients(
        sim, multichain.network, multichain, sc.clients,
        cross_shard_fraction=sc.cross_shard_fraction,
        workload=sc.workload, signed=_signed(sc.verification))
    label = (f"SmartChain {sc.variant.value} "
             f"({sc.storage.value}, {sc.verification.value}, n={sc.n}, "
             f"shards={sc.shards}")
    if sc.cross_shard_fraction > 0:
        label = f"{label}, x={sc.cross_shard_fraction:g}"
    label = f"{label})"
    if sc.engine != "modsmart":
        label = f"{label[:-1]}, {sc.engine})"
    label = _pipeline_suffix(label, sc)

    def metrics() -> dict[str, Any]:
        per_shard: dict[str, dict[str, Any]] = {}
        blocks = certificates = redeemed = 0
        for shard, group in enumerate(multichain.groups):
            node0 = min(group.nodes.values(), key=lambda node: node.id)
            app = node0.app
            entry = {
                "blocks": node0.delivery.blocks_built,
                "certificates": node0.delivery.certs_completed,
                "redeemed": len(app.redeemed),
                "xlock_value_out": app.xlock_value_out,
                "xmint_value_in": app.xmint_value_in,
            }
            per_shard[str(shard)] = entry
            blocks += entry["blocks"]
            certificates += entry["certificates"]
            redeemed += entry["redeemed"]
        return {
            "blocks": blocks,
            "certificates": certificates,
            "transfers_redeemed": redeemed,
            "per_shard": per_shard,
        }

    return _Built(stations, label, multichain, metrics,
                  network=multichain.network,
                  replicas=multichain.replicas(),
                  nodes=multichain.nodes())


def _build_modsmart_cluster(sim, costs, n, verification, delivery_factory,
                            engine="modsmart", pipeline_depth=1,
                            exec_cores=1):
    registry = KeyRegistry(seed=sim.seed)
    network = Network(sim, costs.network)
    keydir = KeyDirectory()
    f = (n - 1) // 3
    view = View(0, tuple(range(n)))
    config = SMRConfig(n=n, f=f, verification=verification,
                       pipeline_depth=pipeline_depth, exec_cores=exec_cores)
    replicas = []
    for replica_id in view.members:
        replicas.append(ModSmartReplica(
            sim, network, registry, keydir, replica_id, view, config, costs,
            delivery_factory(), engine=engine))
    return network, view, replicas


def _build_naive(sim: Simulator, sc: Scenario, costs: CostModel) -> _Built:
    minters = all_minter_addresses(sc.clients)
    network, view, replicas = _build_modsmart_cluster(
        sim, costs, sc.n, sc.verification,
        lambda: NaiveBlockchainDelivery(SmartCoin(minters=minters),
                                        sc.storage),
        engine=sc.engine, pipeline_depth=sc.pipeline_depth,
        exec_cores=sc.exec_cores)
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload,
                                 signed=_signed(sc.verification))
    label = (f"SMaRtCoin naive ({sc.verification.value} verify, "
             f"{sc.storage.value} writes, n={sc.n})")
    label = _pipeline_suffix(label, sc)
    return _Built(stations, label, replicas, lambda: {
        "blocks": replicas[0].delivery.blocks_built,
    }, network=network, replicas={r.id: r for r in replicas})


def _build_dura(sim: Simulator, sc: Scenario, costs: CostModel) -> _Built:
    minters = all_minter_addresses(sc.clients)
    network, view, replicas = _build_modsmart_cluster(
        sim, costs, sc.n, sc.verification,
        lambda: DuraSmartDelivery(SmartCoin(minters=minters), sc.storage),
        engine=sc.engine, pipeline_depth=sc.pipeline_depth,
        exec_cores=sc.exec_cores)
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload,
                                 signed=_signed(sc.verification))
    label = (f"Durable-SMaRt ({sc.verification.value} verify, "
             f"{sc.storage.value} writes, n={sc.n})")
    label = _pipeline_suffix(label, sc)

    def metrics() -> dict[str, Any]:
        groups = replicas[0].delivery.group_sizes
        return {
            "group_commits": len(groups),
            "mean_group_commit": sum(groups) / len(groups) if groups else 0,
        }

    return _Built(stations, label, replicas, metrics,
                  network=network, replicas={r.id: r for r in replicas})


def _build_tendermint(sim: Simulator, sc: Scenario,
                      costs: CostModel) -> _Built:
    network = Network(sim, costs.network)
    config = sc.config or TendermintConfig()
    minters = all_minter_addresses(sc.clients)
    cluster = TendermintCluster(sim, network, config, costs,
                                lambda: SmartCoin(minters=minters))
    view = cluster.view()
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload, signed=True)
    return _Built(stations, "Tendermint", cluster, lambda: {
        "blocks": cluster.nodes[0].blocks_committed,
    })


def _build_fabric(sim: Simulator, sc: Scenario, costs: CostModel) -> _Built:
    network = Network(sim, costs.network)
    config = sc.config or FabricConfig()
    minters = all_minter_addresses(sc.clients)
    cluster = FabricCluster(sim, network, config, costs,
                            lambda: SmartCoin(minters=minters))
    view = cluster.view()
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload, signed=True)
    return _Built(stations, "Hyperledger Fabric", cluster, lambda: {
        "blocks": cluster.peers[0].blocks_committed,
    })


_BUILDERS: dict[str, Callable[[Simulator, Scenario, CostModel], _Built]] = {
    "smartchain": _build_smartchain,
    "naive": _build_naive,
    "dura": _build_dura,
    "tendermint": _build_tendermint,
    "fabric": _build_fabric,
}


# ----------------------------------------------------------------------
# The single entry point
# ----------------------------------------------------------------------
def run(scenario: Scenario) -> ExperimentResult:
    """Execute one scenario and measure it the paper's way.

    When ``scenario.observe`` is set, the run records metrics, pipeline
    spans and resource utilization, and the result carries a machine-
    readable report (:attr:`ExperimentResult.report`).  When
    ``scenario.audit`` is set, a :class:`~repro.obs.audit.SafetyAuditor`
    checks the protocol event stream online and the run fails with
    :class:`~repro.obs.audit.AuditError` on any invariant violation.
    """
    builder = _BUILDERS.get(scenario.system)
    if builder is None:
        raise ValueError(
            f"unknown system {scenario.system!r}; "
            f"expected one of {sorted(_BUILDERS)}")
    fault_plan = None
    if scenario.faults is not None:
        from repro.faults import load_plan
        # Resolve the plan up front: the liveness auditor reads the plan's
        # ``liveness`` hints (GST, bound) before the injector installs it.
        fault_plan = load_plan(scenario.faults)
    record_events = scenario.record_events
    if record_events is None:
        record_events = scenario.observe
    costs = scenario.costs or CostModel()
    obs = Observability(enabled=scenario.observe,
                        sample_every=scenario.trace_sample_every,
                        record_events=(record_events or scenario.audit
                                       or scenario.audit_liveness),
                        event_capacity=scenario.event_capacity)
    auditor = None
    if scenario.audit:
        if scenario.shards > 1:
            # One scoped safety auditor per shard (consensus ids and block
            # heights restart per group, so one global auditor would flag
            # phantom agreement violations), plus the cross-shard
            # no-double-mint invariant over cert-redemption events.
            from repro.core.multichain import shard_of_node
            from repro.obs.shard import (CrossShardAuditor, ShardAuditGroup,
                                         ShardScopedSafetyAuditor)
            auditor = ShardAuditGroup(
                [ShardScopedSafetyAuditor(shard, shard_of_node)
                 for shard in range(scenario.shards)],
                cross=CrossShardAuditor())
        else:
            auditor = SafetyAuditor()
        auditor.attach(obs)
    liveness = None
    if scenario.audit_liveness:
        from repro.obs.liveness import LivenessAuditor
        hints = dict(getattr(fault_plan, "liveness", None) or {})
        bound = scenario.liveness_bound
        if bound is None:
            bound = hints.get("bound", 1.0)
        gst = scenario.liveness_gst
        if gst is None:
            gst = hints.get("gst", costs.network.gst)
        wedge_k = scenario.wedge_k
        if wedge_k is None:
            wedge_k = hints.get("wedge_k", 4)
        if scenario.shards > 1:
            # Per-shard regency timelines: shard 1's leader changes must
            # not reset shard 0's wedge counter (and vice versa).
            from repro.core.multichain import shard_of_node
            from repro.obs.shard import (ShardLivenessGroup,
                                         ShardScopedLivenessAuditor)
            liveness = ShardLivenessGroup(
                [ShardScopedLivenessAuditor(shard, shard_of_node,
                                            bound=bound, gst=gst,
                                            wedge_k=wedge_k)
                 for shard in range(scenario.shards)])
        else:
            liveness = LivenessAuditor(bound=bound, gst=gst, wedge_k=wedge_k)
        liveness.attach(obs)
    recovery = None
    if scenario.audit:
        # Recovery evidence rides the same event stream the safety auditor
        # checks: every audited run also verifies that recovered replicas
        # rejoin on the canonical chain (docs/faults.md).
        from repro.obs.recovery import RecoveryAuditor
        if scenario.shards > 1:
            from repro.core.multichain import shard_of_node
            recovery = RecoveryAuditor(scope=shard_of_node)
        else:
            recovery = RecoveryAuditor()
        recovery.attach(obs)
    sim = Simulator(scenario.seed, obs=obs)
    built = builder(sim, scenario, costs)
    if fault_plan is not None:
        from repro.faults import FaultInjector
        if built.replicas is None:
            raise ValueError(
                f"system {scenario.system!r} does not support fault "
                "injection (no replica runtimes to compromise)")
        plan = fault_plan
        replicas = built.replicas
        nodes = built.nodes
        if plan.shard is not None:
            # Shard-scoped plan: translate its shard-relative node ids to
            # global ids and confine the injection surface to that shard's
            # runtimes, so protocol overrides, crashes and partitions
            # cannot leak into other groups.
            from repro.core.multichain import SHARD_STRIDE, shard_of_node
            if plan.shard >= scenario.shards:
                raise ValueError(
                    f"fault plan {plan.name!r} targets shard {plan.shard} "
                    f"but the scenario has {scenario.shards} shard(s)")
            plan = plan.scoped_to(plan.shard * SHARD_STRIDE)
            replicas = {nid: replica for nid, replica in replicas.items()
                        if shard_of_node(nid) == plan.shard}
            nodes = ({nid: node for nid, node in nodes.items()
                      if shard_of_node(nid) == plan.shard}
                     if nodes is not None else None)
        FaultInjector(plan).install(sim, built.network, replicas, nodes)
    for station in built.stations:
        station.start_all(stagger=0.002)
    # Start cold so the per-run cache deltas reported below are
    # deterministic regardless of what ran earlier in this process.
    _hashing.clear_caches()
    cache_before = _hashing.cache_stats()
    # The run allocates millions of short-lived, almost entirely acyclic
    # objects (heap entries, messages, payload tuples); generational cycle
    # collection is pure overhead while it executes, so pause the collector
    # for the duration (restored even if the run raises).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim.run(until=scenario.duration)
    finally:
        if gc_was_enabled:
            gc.enable()
    metrics = built.metrics()
    cache_after = _hashing.cache_stats()
    for key, before in cache_before.items():
        metrics[key] = cache_after[key] - before
    metrics["heap_compactions"] = sim.compactions
    if built.replicas is not None:
        # Synchronizer health rollup: how often the cluster changed leader,
        # how often a progress watchdog fired, and the (possibly backed-off)
        # timeout each regency was installed with (cluster-wide max, keyed
        # by regency number as a string so the dict survives json.dumps).
        synchronizers = [replica.synchronizer
                         for replica in built.replicas.values()]
        metrics["regency_changes"] = sum(
            s.regency_changes for s in synchronizers)
        metrics["watchdog_fires"] = sum(
            s.watchdog_fires for s in synchronizers)
        timeouts: dict[str, float] = {}
        for sync in synchronizers:
            for regency, timeout in sync.timeout_history.items():
                key = str(regency)
                timeouts[key] = max(timeouts.get(key, 0.0), timeout)
        metrics["regency_timeouts"] = timeouts
        # Recovery/storage health rollup (docs/faults.md, "Storage faults
        # & verified recovery"): cluster-wide totals of what verified
        # recovery replayed, cut and fell back on, plus the storage-level
        # detections that triggered it.
        metrics["recovery.verified_entries"] = sum(
            getattr(r.delivery, "recovery_verified_entries", 0)
            for r in built.replicas.values())
        metrics["recovery.truncated_entries"] = sum(
            getattr(r.delivery, "recovery_truncated_entries", 0)
            for r in built.replicas.values())
        metrics["recovery.fallbacks"] = sum(
            getattr(r.delivery, "recovery_fallbacks", 0)
            for r in built.replicas.values())
        metrics["storage.bitrot_detected"] = sum(
            r.store.bitrot_detected for r in built.replicas.values())
        metrics["storage.gray_periods"] = sum(
            r.store.disk.gray_periods for r in built.replicas.values())
        # Records the canonical encoder rejected (checksummed by repr, and
        # so hashed by every replica): checkpoints legitimately, anything
        # on the delivery path by accident.
        metrics["storage.repr_checksums"] = sum(
            r.store.repr_checksums for r in built.replicas.values())
    if obs.enabled:
        for key, before in cache_before.items():
            obs.metrics.counter(f"crypto.{key}").inc(cache_after[key] - before)
        obs.metrics.counter("sim.heap_compactions").inc(sim.compactions)
        if built.replicas is not None:
            obs.metrics.counter("sync.regency_changes").inc(
                metrics["regency_changes"])
            obs.metrics.counter("sync.watchdog_fires").inc(
                metrics["watchdog_fires"])
            for key in ("recovery.verified_entries",
                        "recovery.truncated_entries", "recovery.fallbacks",
                        "storage.bitrot_detected", "storage.gray_periods",
                        "storage.repr_checksums"):
                obs.metrics.counter(key).inc(metrics[key])
        for shard, entry in metrics.get("per_shard", {}).items():
            obs.metrics.counter(f"shard.{shard}.blocks").inc(
                entry["blocks"])
            obs.metrics.counter(f"shard.{shard}.certificates").inc(
                entry["certificates"])
            obs.metrics.counter(f"shard.{shard}.transfers_redeemed").inc(
                entry["redeemed"])
    result = _measure(built.stations, scenario.duration,
                      scenario.label or built.label,
                      op_window=scenario.op_window,
                      warmup=scenario.warmup,
                      metrics=metrics)
    result.handle = RunHandle(scenario=scenario, sim=sim, obs=obs,
                              stations=built.stations, system=built.system)
    if liveness is not None:
        # Flag still-unreplied requests against the horizon before the
        # report snapshots the auditor's summary.
        liveness.finalize(scenario.duration)
    if scenario.observe:
        result.report = build_run_report(result, obs, scenario.duration)
    if auditor is not None:
        auditor.raise_if_violated()
    if liveness is not None:
        liveness.raise_if_violated()
    if recovery is not None:
        recovery.raise_if_violated()
    return result


# ----------------------------------------------------------------------
# Deprecated wrappers (thin Scenario constructors)
# ----------------------------------------------------------------------
def _deprecated_wrapper(name: str) -> None:
    warnings.warn(
        f"{name}() is deprecated; construct a Scenario and call run() "
        f"instead: run(Scenario(system=..., ...))",
        DeprecationWarning, stacklevel=3)


def run_smartchain(
    variant: PersistenceVariant = PersistenceVariant.STRONG,
    storage: StorageMode = StorageMode.SYNC,
    verification: VerificationMode = VerificationMode.PARALLEL,
    n: int = 4,
    clients: int = 2400,
    duration: float = 4.0,
    seed: int = 1,
    checkpoint_period: int = 10_000,
    costs: CostModel | None = None,
    workload: str = "spend",
    label: str | None = None,
    warmup: float = DEFAULT_WARMUP,
    observe: bool = False,
    audit: bool = False,
    faults: Any = None,
    engine: str = "modsmart",
) -> ExperimentResult:
    """One SMARTCHAIN configuration under the SMaRtCoin workload.

    .. deprecated:: construct a :class:`Scenario` and call :func:`run`.
    """
    _deprecated_wrapper("run_smartchain")
    return run(Scenario(
        system="smartchain", variant=variant, storage=storage,
        verification=verification, n=n, clients=clients, duration=duration,
        seed=seed, checkpoint_period=checkpoint_period, costs=costs,
        workload=workload, label=label, warmup=warmup, observe=observe,
        audit=audit, faults=faults, engine=engine))


def run_naive_smartcoin(
    verification: VerificationMode = VerificationMode.SEQUENTIAL,
    storage: StorageMode = StorageMode.SYNC,
    n: int = 4,
    clients: int = 2400,
    duration: float = 4.0,
    seed: int = 1,
    costs: CostModel | None = None,
    workload: str = "spend",
    label: str | None = None,
    warmup: float = DEFAULT_WARMUP,
    observe: bool = False,
    audit: bool = False,
) -> ExperimentResult:
    """The naive design of Section IV: app-level blockchain inside the SMR.

    .. deprecated:: construct a :class:`Scenario` and call :func:`run`.
    """
    _deprecated_wrapper("run_naive_smartcoin")
    return run(Scenario(
        system="naive", verification=verification, storage=storage, n=n,
        clients=clients, duration=duration, seed=seed, costs=costs,
        workload=workload, label=label, warmup=warmup, observe=observe, audit=audit))


def run_dura_smart(
    verification: VerificationMode = VerificationMode.PARALLEL,
    storage: StorageMode = StorageMode.SYNC,
    n: int = 4,
    clients: int = 2400,
    duration: float = 4.0,
    seed: int = 1,
    costs: CostModel | None = None,
    workload: str = "spend",
    label: str | None = None,
    warmup: float = DEFAULT_WARMUP,
    observe: bool = False,
    audit: bool = False,
) -> ExperimentResult:
    """SMaRtCoin over the BFT-SMART durability layer (Dura-SMaRt).

    .. deprecated:: construct a :class:`Scenario` and call :func:`run`.
    """
    _deprecated_wrapper("run_dura_smart")
    return run(Scenario(
        system="dura", verification=verification, storage=storage, n=n,
        clients=clients, duration=duration, seed=seed, costs=costs,
        workload=workload, label=label, warmup=warmup, observe=observe, audit=audit))


def run_tendermint(
    clients: int = 2400,
    duration: float = 6.0,
    seed: int = 1,
    costs: CostModel | None = None,
    config: TendermintConfig | None = None,
    label: str = "Tendermint",
    warmup: float = DEFAULT_WARMUP,
    observe: bool = False,
    audit: bool = False,
) -> ExperimentResult:
    """Tendermint comparator run.

    .. deprecated:: construct a :class:`Scenario` and call :func:`run`.
    """
    _deprecated_wrapper("run_tendermint")
    return run(Scenario(
        system="tendermint", clients=clients, duration=duration, seed=seed,
        costs=costs, config=config, label=label, warmup=warmup,
        observe=observe, audit=audit))


def run_fabric(
    clients: int = 2400,
    duration: float = 6.0,
    seed: int = 1,
    costs: CostModel | None = None,
    config: FabricConfig | None = None,
    label: str = "Hyperledger Fabric",
    warmup: float = DEFAULT_WARMUP,
    observe: bool = False,
    audit: bool = False,
) -> ExperimentResult:
    """Hyperledger Fabric comparator run.

    .. deprecated:: construct a :class:`Scenario` and call :func:`run`.
    """
    _deprecated_wrapper("run_fabric")
    return run(Scenario(
        system="fabric", clients=clients, duration=duration, seed=seed,
        costs=costs, config=config, label=label, warmup=warmup,
        observe=observe, audit=audit))
