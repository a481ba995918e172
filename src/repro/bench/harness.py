"""Experiment harness: one :class:`Scenario` in, one :class:`ExperimentResult` out.

A :class:`Scenario` declares *what* to run — system, cluster size, client
population, duration, seed, warmup, workload, observability options — and
:func:`run` executes it: build a fresh simulation, deploy the paper's client
population, run for the simulated duration and measure throughput the way
the paper measures it (fixed operation-count intervals, 20% highest-variance
intervals discarded, average — Section VI-A).

Results are plain data: every field of :class:`ExperimentResult` survives
``json.dumps`` (see :meth:`ExperimentResult.to_json`).  Live simulation
objects — the consortium, the stations, the simulator — are available on the
separate :attr:`ExperimentResult.handle`, which is deliberately *not* part
of the serialized result.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

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
]

#: Simulated seconds excluded from the head of every measurement: the ramp
#: (staggered client starts, pipeline fill) settles within the first second
#: on every system modelled here, so a single default applies uniformly.
#: Historically the comparator runs (Tendermint, Fabric) used a different,
#: duration-dependent warmup than the SMARTCHAIN/BFT-SMART runs, which
#: skewed the Table II comparison; a Scenario now carries one explicit value.
DEFAULT_WARMUP = 1.0

#: Systems a Scenario may name (the keys of ``_BUILDERS``, spelled out
#: here so :meth:`Scenario.__post_init__` can validate at construction).
_VALID_SYSTEMS = frozenset(
    {"smartchain", "naive", "dura", "tendermint", "fabric"})

#: Systems whose replicas host a pluggable consensus engine.
_ENGINE_SYSTEMS = frozenset({"smartchain", "naive", "dura"})

#: Workload generators :func:`repro.workloads.coingen.deploy_clients`
#: understands.
_VALID_WORKLOADS = frozenset({"mint", "spend"})


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
    ``checkpoint_period``) apply to the systems that have them.
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
    #: deterministic execution, the same on every engine-hosting system;
    #: 1 = each batch is one job on the SM thread.
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
    label: str | None = None
    #: Record metrics, pipeline spans and resource utilization; the result
    #: then carries a machine-readable report (ExperimentResult.report).
    observe: bool = False
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

    ``system`` is the stack's top-level object: the :class:`ReplicaGroup` for
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


#: Operations per throughput interval of :func:`_measure`.
OP_WINDOW = 2000


def _measure(stations: list[ClientStation], duration: float,
             label: str, warmup: float = DEFAULT_WARMUP,
             metrics: dict | None = None) -> ExperimentResult:
    # The paper's method: throughput per fixed operation-count interval,
    # discard the 20% with the greatest deviation, average the rest.
    in_window = merge_stamps([st.meter for st in stations],
                             start=warmup, end=duration)
    total_in_window = sum(count for _, count in in_window)
    # Short runs shrink the window so at least a few intervals form — but a
    # window must still span several reply bursts (blocks complete up to
    # 512 transactions at one instant), or burst-local rates explode.
    op_window = max(1100, min(OP_WINDOW, total_in_window // 3 or 1100))
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
        metrics=dict(metrics or {}),
    )


def _signed(verification: VerificationMode) -> bool:
    return verification is not VerificationMode.NONE


# ----------------------------------------------------------------------
# System builders: Scenario -> deployed stack
# ----------------------------------------------------------------------
@dataclass
class _Built:
    stations: list[ClientStation]
    label: str
    system: Any
    #: Whoever states the deployment's own progress through ``metrics()``
    #: (blocks, certificates, group commits ...): the first replica's
    #: delivery layer, the :class:`MultiChain`, or the comparator cluster.
    reporter: Any
    #: Fault-injection surface: the network plus ``{id: replica}`` (and,
    #: for SMARTCHAIN, ``{id: SmartChainNode}``).  Builders that cannot
    #: host Byzantine replicas (the comparators) leave these unset.
    network: Any = None
    replicas: dict[int, Any] | None = None
    nodes: dict[int, Any] | None = None


def _label(name: str, sc: Scenario, *traits: str) -> str:
    """``name (trait, ...)``, with the sharding, engine and pipelining
    knobs appended when they are not the defaults."""
    traits += (f"n={sc.n}",)
    if sc.shards > 1:
        traits += (f"shards={sc.shards}",)
        if sc.cross_shard_fraction > 0:
            traits += (f"x={sc.cross_shard_fraction:g}",)
    if sc.system == "smartchain" and sc.engine != "modsmart":
        traits += (sc.engine,)
    if sc.pipeline_depth != 1 or sc.exec_cores != 1:
        traits += (f"depth={sc.pipeline_depth}", f"cores={sc.exec_cores}")
    return f"{name} ({', '.join(traits)})"


def _chain_label(sc: Scenario) -> str:
    return _label(f"SmartChain {sc.variant.value}", sc, sc.storage.value,
                  sc.verification.value)


def _smr_config(sc: Scenario) -> SMRConfig:
    return SMRConfig(n=sc.n, f=(sc.n - 1) // 3, verification=sc.verification,
                     pipeline_depth=sc.pipeline_depth,
                     exec_cores=sc.exec_cores)


def _chain_config(sc: Scenario) -> SmartChainConfig:
    return SmartChainConfig(smr=_smr_config(sc), variant=sc.variant,
                            storage=sc.storage,
                            checkpoint_period=sc.checkpoint_period)


def _build_smartchain(sim: Simulator, sc: Scenario,
                      costs: CostModel) -> _Built:
    if sc.shards > 1:
        return _build_multishard(sim, sc, costs)
    minters = all_minter_addresses(sc.clients)
    consortium = bootstrap(sim, tuple(range(sc.n)),
                           lambda: SmartCoin(minters=minters),
                           _chain_config(sc), costs=costs, engine=sc.engine)
    view_holder = [consortium.genesis.view]
    for node in consortium.nodes.values():
        node.view_listeners.append(
            lambda view: view_holder.__setitem__(0, view))
    stations, _wallets = deploy_clients(
        sim, consortium.network, lambda: view_holder[0], sc.clients,
        workload=sc.workload, signed=_signed(sc.verification))
    return _Built(stations, _chain_label(sc), consortium,
                  consortium.node(0).delivery,
                  network=consortium.network,
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

    minters = all_minter_addresses(sc.clients)
    multichain = bootstrap_shards(
        sim, sc.shards, sc.n,
        lambda shard: SmartCoin(minters=minters),
        lambda shard: _chain_config(sc), costs=costs, engine=sc.engine)
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
    return _Built(stations, _chain_label(sc), multichain, multichain,
                  network=multichain.network,
                  replicas=multichain.replicas(),
                  nodes=multichain.nodes())


def _build_modsmart(sim: Simulator, sc: Scenario, costs: CostModel,
                    delivery_type: type, name: str) -> _Built:
    """A plain Mod-SMaRt cluster with one ``delivery_type`` layer per
    replica (the naive and Dura-SMaRt stacks of Table I)."""
    registry = KeyRegistry(seed=sim.seed)
    network = Network(sim, costs.network)
    keydir = KeyDirectory()
    view = View(0, tuple(range(sc.n)))
    config = _smr_config(sc)
    minters = all_minter_addresses(sc.clients)
    replicas = [
        ModSmartReplica(sim, network, registry, keydir, replica_id, view,
                        config, costs,
                        delivery_type(SmartCoin(minters=minters), sc.storage),
                        engine=sc.engine)
        for replica_id in view.members]
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload,
                                 signed=_signed(sc.verification))
    label = _label(name, sc, f"{sc.verification.value} verify",
                   f"{sc.storage.value} writes")
    return _Built(stations, label, replicas, replicas[0].delivery,
                  network=network,
                  replicas={r.id: r for r in replicas})


def _build_comparator(sim: Simulator, sc: Scenario, costs: CostModel,
                      cluster_type: type, config_type: type,
                      label: str) -> _Built:
    """A Table II comparator: its own cluster model, the same clients."""
    network = Network(sim, costs.network)
    minters = all_minter_addresses(sc.clients)
    cluster = cluster_type(sim, network, config_type(), costs,
                           lambda: SmartCoin(minters=minters))
    view = cluster.view()
    stations, _ = deploy_clients(sim, network, lambda: view, sc.clients,
                                 workload=sc.workload, signed=True)
    return _Built(stations, label, cluster, cluster)


_BUILDERS: dict[str, Callable[[Simulator, Scenario, CostModel], _Built]] = {
    "smartchain": _build_smartchain,
    "naive": partial(_build_modsmart, delivery_type=NaiveBlockchainDelivery,
                     name="SMaRtCoin naive"),
    "dura": partial(_build_modsmart, delivery_type=DuraSmartDelivery,
                    name="Durable-SMaRt"),
    "tendermint": partial(_build_comparator, cluster_type=TendermintCluster,
                          config_type=TendermintConfig, label="Tendermint"),
    "fabric": partial(_build_comparator, cluster_type=FabricCluster,
                      config_type=FabricConfig, label="Hyperledger Fabric"),
}


# ----------------------------------------------------------------------
# Instrument: auditors on the event stream, fault plan on the runtimes
# ----------------------------------------------------------------------
def _attach_auditors(scenario: Scenario, obs: Observability, plan: Any,
                     costs: CostModel) -> None:
    """Subscribe the auditors the scenario asks for; each registers itself
    on ``obs`` (``obs.auditor`` / ``obs.liveness`` / ``obs.recovery``).
    Every auditor checks each shard on its own: consensus ids, heights and
    regencies restart per group."""
    from repro.core.multichain import shard_of_node
    if scenario.audit:
        from repro.obs.recovery import RecoveryAuditor
        # Recovery evidence rides the same event stream the safety auditor
        # checks: every audited run also verifies that recovered replicas
        # rejoin on the canonical chain (docs/faults.md).
        SafetyAuditor(scope=shard_of_node).attach(obs)
        RecoveryAuditor(scope=shard_of_node).attach(obs)
    if scenario.audit_liveness:
        from repro.obs.liveness import LivenessAuditor
        # An explicit scenario field wins over the fault plan's hint,
        # which wins over the default.
        hints = plan.liveness if plan is not None else {}
        params = {
            key: hints.get(key, default) if explicit is None else explicit
            for key, explicit, default in (
                ("bound", scenario.liveness_bound, 1.0),
                ("gst", scenario.liveness_gst, costs.network.gst),
                ("wedge_k", scenario.wedge_k, 4))}
        LivenessAuditor(scope=shard_of_node, **params).attach(obs)


def _install_faults(plan: Any, scenario: Scenario, sim: Simulator,
                    built: _Built) -> None:
    from repro.faults import FaultInjector
    if built.replicas is None:
        raise ValueError(
            f"system {scenario.system!r} does not support fault "
            "injection (no replica runtimes to compromise)")
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


# ----------------------------------------------------------------------
# Simulate, then collect what the layers report
# ----------------------------------------------------------------------
def _simulate(sim: Simulator, built: _Built,
              duration: float) -> dict[str, int]:
    """Run the deployment to ``duration``; returns what the run added to
    the hashing-cache counters."""
    for station in built.stations:
        station.start_all(stagger=0.002)
    # Start cold so the per-run cache deltas are deterministic regardless
    # of what ran earlier in this process.
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
        sim.run(until=duration)
    finally:
        if gc_was_enabled:
            gc.enable()
    cache_after = _hashing.cache_stats()
    return {key: cache_after[key] - before
            for key, before in cache_before.items()}


def _merge(parts: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Cluster-wide view of per-replica tallies: numbers add up, nested
    dicts (regency -> timeout) keep the maximum per key."""
    out: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                merged = out.setdefault(key, {})
                for sub, number in value.items():
                    merged[sub] = max(merged.get(sub, 0.0), number)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _collect(sim: Simulator, built: _Built,
             caches: dict[str, int]) -> dict[str, Any]:
    """The run's scalar metrics, merged from what each layer reports about
    itself through its ``metrics()``; mirrored into the metrics registry
    when the run is observed."""
    metrics = {**built.reporter.metrics(), **caches}
    metrics["heap_compactions"] = sim.compactions
    # Synchronizer, recovery and storage health, cluster-wide (docs/faults.md,
    # "Storage faults & verified recovery"); the comparators have no replicas.
    tallies = _merge(part for replica in (built.replicas or {}).values()
                     for part in (replica.synchronizer.metrics(),
                                  replica.delivery.recovery.metrics(),
                                  replica.store.metrics()))
    metrics.update(tallies)
    counters = sim.obs.metrics
    if sim.obs.enabled:
        for key, delta in caches.items():
            counters.counter(f"crypto.{key}").inc(delta)
        counters.counter("sim.heap_compactions").inc(sim.compactions)
        for key, value in tallies.items():
            if not isinstance(value, dict):
                # The registry files the synchronizer's bare keys under
                # ``sync.``; recovery/storage keys carry their namespace.
                name = key if "." in key else f"sync.{key}"
                counters.counter(name).inc(value)
        for shard, entry in metrics.get("per_shard", {}).items():
            for key in ("blocks", "certificates"):
                counters.counter(f"shard.{shard}.{key}").inc(entry[key])
            counters.counter(f"shard.{shard}.transfers_redeemed").inc(
                entry["redeemed"])
    return metrics


# ----------------------------------------------------------------------
# The single entry point
# ----------------------------------------------------------------------
def run(scenario: Scenario) -> ExperimentResult:
    """Execute one scenario and measure it the paper's way: build the
    stack, instrument it (auditors, fault plan), simulate, collect.

    When ``scenario.observe`` is set, the run records metrics, pipeline
    spans and resource utilization, and the result carries a machine-
    readable report (:attr:`ExperimentResult.report`).  When
    ``scenario.audit`` (or ``audit_liveness``) is set, auditors check the
    protocol event stream online and the run fails with
    :class:`~repro.obs.audit.AuditError` on any invariant violation.
    """
    plan = None
    if scenario.faults is not None:
        from repro.faults import load_plan
        plan = load_plan(scenario.faults)
    costs = CostModel()
    obs = Observability(enabled=scenario.observe,
                        record_events=(scenario.observe or scenario.audit
                                       or scenario.audit_liveness),
                        event_capacity=scenario.event_capacity)
    sim = Simulator(scenario.seed, obs=obs)
    built = _BUILDERS[scenario.system](sim, scenario, costs)

    _attach_auditors(scenario, obs, plan, costs)
    if plan is not None:
        _install_faults(plan, scenario, sim, built)

    caches = _simulate(sim, built, scenario.duration)

    result = _measure(built.stations, scenario.duration,
                      scenario.label or built.label,
                      warmup=scenario.warmup,
                      metrics=_collect(sim, built, caches))
    result.handle = RunHandle(scenario=scenario, sim=sim, obs=obs,
                              stations=built.stations, system=built.system)
    for auditor in obs.auditors():
        # Judge what only the horizon can tell (still-unreplied requests)
        # before the report snapshots the summaries.
        auditor.finalize(scenario.duration)
        auditor.raise_if_violated()
    if scenario.observe:
        result.report = build_run_report(result, obs, scenario.duration)
    return result
