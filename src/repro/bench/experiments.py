"""The registry of ``python -m repro.bench`` experiments.

Each entry holds the rows an experiment runs, the paper's numbers for them
and the shape claims of the paper's evaluation (Section VI) they are held
to.  A paper number is written here once; the CLI prints it beside the
measured value, and a claim that stops holding fails the run (exit 1).

Rows are :class:`~repro.bench.harness.Scenario` values wherever a Scenario
can express them, so they get ``--report``, ``--audit``, ``--events`` and
``--check-against`` from the CLI.  Four constructions cannot be expressed
and build their own deployment: Fig. 7's join and leave, Fig. 8's fed chain,
and the batch-size and group-commit-limit ablations.  Such a row is a
callable returning named measured values; an experiment made only of them
refuses the observation, audit and fault flags.

Absolute numbers are simulation outputs: what the reproduction answers for
is the shape (who wins, by what factor, where the dips are).  The default
scale is reduced; ``REPRO_FULL=1`` runs the paper's (2400 clients, the
600 s Fig. 7 run, the 10k-block Fig. 8 sweep).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Union

from repro.bench.harness import ExperimentResult, Scenario, run
from repro.config import PersistenceVariant, StorageMode, VerificationMode
from repro.consensus.engine import engine_names

__all__ = ["FULL", "CLIENTS", "DURATION", "Claim", "Experiment", "Options",
           "EXPERIMENTS", "observable", "run_rows"]

#: The one paper-scale switch.
FULL = os.environ.get("REPRO_FULL", "") == "1"
#: Client population and simulated horizon of a row, unless its
#: experiment says otherwise.
CLIENTS = 2400 if FULL else 1200
DURATION = 4.0 if FULL else 2.5

#: A row: a Scenario, or a callable returning ``{key: measured value}``.
Row = Union[Scenario, Callable[[], "dict[str, float]"]]


@dataclass(frozen=True)
class Claim:
    """One shape of the paper's evaluation: ``holds`` applied to the
    measured values of ``keys`` in that order (``None``: every measured
    value)."""

    name: str
    text: str
    keys: tuple[str, ...] | None
    holds: Callable[..., bool]

    def _keys(self, measured: Mapping[str, float]) -> tuple[str, ...]:
        return tuple(measured) if self.keys is None else self.keys

    def values(self, measured: Mapping[str, float]) -> str:
        return ", ".join(f"{key}={measured.get(key, float('nan')):.4g}"
                         for key in self._keys(measured))

    def check(self, measured: Mapping[str, float]) -> bool:
        keys = self._keys(measured)
        if any(key not in measured for key in keys):
            return False
        return bool(self.holds(*(measured[key] for key in keys)))


#: Every row completed work (a claim of each paper experiment).
ROWS_COMPLETE = Claim("rows-complete", "every row measures a positive value",
                      None, lambda *values: all(value > 0 for value in values))


@dataclass(frozen=True)
class Options:
    """What one invocation asks of an experiment's rows."""

    clients: int = CLIENTS
    duration: float = DURATION
    seed: int = 1
    engine: str = "modsmart"
    faults: Any = None
    observe: bool = False
    audit: bool = False
    audit_liveness: bool = False
    #: Scenario fields the ``smartchain`` experiment takes from its flags.
    overrides: Mapping[str, Any] = field(default_factory=dict)

    @property
    def common(self) -> dict[str, Any]:
        """The Scenario fields every row of the invocation shares."""
        return dict(clients=self.clients, duration=self.duration,
                    seed=self.seed, observe=self.observe, audit=self.audit,
                    audit_liveness=self.audit_liveness)


@dataclass(frozen=True)
class Experiment:
    """One registry entry."""

    what: str
    rows: Callable[[Options], dict[str, Row]]
    #: Paper numbers by measured key.
    paper: Mapping[str, float] = field(default_factory=dict)
    claims: tuple[Claim, ...] = ()
    #: CLI defaults that differ from :data:`CLIENTS`/:data:`DURATION`.
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Accepts ``--faults``.
    faults: bool = False


# ----------------------------------------------------------------------
# Table I — SMaRtCoin on BFT-SMART (SPEND, n=4; Section IV-B)
# ----------------------------------------------------------------------
def _table1(o: Options) -> dict[str, Row]:
    def naive(verification: VerificationMode, storage: StorageMode,
              **extra: Any) -> Scenario:
        return Scenario(system="naive", verification=verification,
                        storage=storage, engine=o.engine, **extra,
                        **o.common)

    seq, par = VerificationMode.SEQUENTIAL, VerificationMode.PARALLEL
    sync, async_ = StorageMode.SYNC, StorageMode.ASYNC
    return {
        "seq-sync": naive(seq, sync),
        "seq-async": naive(seq, async_),
        "par-sync": naive(par, sync),
        "par-async": naive(par, async_),
        "dura": Scenario(system="dura", engine=o.engine, **o.common),
        # The paper: "both types of transactions yield equivalent results".
        "mint": naive(par, sync, workload="mint",
                      label="SMaRtCoin naive MINT (parallel verify, sync "
                            "writes, n=4)"),
    }


TABLE1_CLAIMS = (
    ROWS_COMPLETE,
    Claim("parallel-vs-sequential",
          "parallel verification roughly doubles throughput",
          ("par-sync", "seq-sync"), lambda par, seq: 1.6 < par / seq < 3.2),
    Claim("dura-gain",
          "the durability layer beats the best naive design by far",
          ("dura", "par-sync"), lambda dura, par: dura / par > 2.5),
    Claim("mint-equivalent", "MINT runs like SPEND (within 35%)",
          ("mint", "par-sync"),
          lambda mint, spend: abs(mint - spend) <= 0.35 * spend),
)


# ----------------------------------------------------------------------
# Table II — comparable blockchain platforms (n=4; Section VI-B)
# ----------------------------------------------------------------------
def _table2(o: Options) -> dict[str, Row]:
    long = {**o.common, "duration": max(8.0, o.duration)}
    return {
        "strong": Scenario(system="smartchain", engine=o.engine,
                           variant=PersistenceVariant.STRONG, **o.common),
        "weak": Scenario(system="smartchain", engine=o.engine,
                         variant=PersistenceVariant.WEAK, **o.common),
        "tendermint": Scenario(system="tendermint", **long),
        "fabric": Scenario(system="fabric", **long),
    }


TABLE2_CLAIMS = (
    ROWS_COMPLETE,
    Claim("dwarfs-tendermint", "SMARTCHAIN strong > 4x Tendermint",
          ("strong", "tendermint"), lambda strong, tm: strong / tm > 4),
    Claim("dwarfs-fabric", "SMARTCHAIN strong > 15x Fabric",
          ("strong", "fabric"), lambda strong, fabric: strong / fabric > 15),
    Claim("strong-close-to-weak", "strong within ~15% of weak",
          ("strong", "weak"), lambda strong, weak: 0.75 < strong / weak <= 1.02),
)


# ----------------------------------------------------------------------
# Figure 6 — consortium sizes x persistence guarantees (Section VI-B a)
# ----------------------------------------------------------------------
#: Setup code -> (verification, storage): Si = signatures, Sy = sync writes.
FIG6_SETUPS = {
    "Si+Sy": (VerificationMode.PARALLEL, StorageMode.SYNC),
    "Si": (VerificationMode.PARALLEL, StorageMode.ASYNC),
    "Sy": (VerificationMode.NONE, StorageMode.SYNC),
    "N": (VerificationMode.NONE, StorageMode.ASYNC),
}
FIG6_SIZES = (4, 7, 10) if FULL else (4, 7)


def _fig6(o: Options) -> dict[str, Row]:
    rows: dict[str, Row] = {}
    for system in ("dura", "weak", "strong"):
        for setup, (verification, storage) in FIG6_SETUPS.items():
            for n in FIG6_SIZES:
                stack = ({"system": "dura"} if system == "dura" else
                         {"system": "smartchain",
                          "variant": PersistenceVariant(system)})
                rows[f"{system} {setup} n={n}"] = Scenario(
                    **stack, verification=verification, storage=storage,
                    n=n, engine=o.engine, **o.common)
    return rows


FIG6_CLAIMS = (
    ROWS_COMPLETE,
    Claim("signatures-dominate",
          "dropping signatures gains more than dropping sync writes",
          tuple(f"{system} {setup} n=4" for system in ("weak", "strong")
                for setup in ("Si+Sy", "Sy", "Si")),
          lambda *v: all(no_sig > base and no_sig - base > (no_sync - base) * 0.8
                         for base, no_sig, no_sync in (v[:3], v[3:]))),
    Claim("strong-close-to-weak",
          "the PERSIST phase costs ~13% with signatures and sync writes",
          ("strong Si+Sy n=4", "weak Si+Sy n=4"),
          lambda strong, weak: 0.75 <= strong / weak <= 1.02),
    Claim("size-minor-impact",
          f"with Si+Sy, n={FIG6_SIZES[-1]} keeps > 60% of n=4 (the replica, not "
          "consensus, is the bottleneck)",
          tuple(f"{system} Si+Sy n={n}" for system in ("dura", "weak", "strong")
                for n in (4, FIG6_SIZES[-1])),
          lambda *v: all(v[i + 1] > 0.6 * v[i] for i in range(0, 6, 2))),
    Claim("plain-bftsmart-fastest",
          "Durable-SMaRt without blockchain work tops every SMARTCHAIN setup",
          ("dura N n=4", "weak N n=4", "strong Si+Sy n=4"),
          lambda dura, weak, strong: dura > weak > strong),
)


# ----------------------------------------------------------------------
# Figure 7 — throughput across time with reconfigurations, a crash and a
# recovery (Section VI-B c).  The paper's 600 s run with a 1 GB state,
# 10x compressed by default (60 s, 100 MB, events at 12/24/36/48 s).
# ----------------------------------------------------------------------
FIG7_SCALE = 1.0 if FULL else 0.1
FIG7_HORIZON = 600 * FIG7_SCALE
FIG7_JOIN, FIG7_CRASH, FIG7_RECOVER, FIG7_LEAVE = (
    t * FIG7_SCALE for t in (120, 240, 360, 480))
FIG7_STATE_BYTES = int(1e9 if FULL else 1e8)
FIG7_CHECKPOINT_PERIOD = 1600 if FULL else 520
#: The paper's steady state at 600 clients, and its joiner's state
#: transfer for the 1 GB state (seconds).
FIG7_PAPER = {"steady tx/s": 3500, "join transfer s": 60}


def _fig7_timeline(o: Options) -> dict[str, float]:
    from repro.apps.smartcoin import SmartCoin
    from repro.config import SMRConfig, SmartChainConfig
    from repro.core.node import bootstrap
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceLog, bucket_timeline, merge_stamps
    from repro.workloads.coingen import all_minter_addresses, deploy_clients

    sim = Simulator(o.seed)
    trace = TraceLog()
    # The checkpoint stalls the pipeline for state_bytes / 45 MB/s (the
    # paper's ~23 s for 1 GB); the request timeout must exceed it or the
    # stall would masquerade as a faulty leader.
    ckpt_stall = FIG7_STATE_BYTES / 45e6
    config = SmartChainConfig(
        smr=SMRConfig(n=4, f=1, verification=VerificationMode.PARALLEL,
                      request_timeout=ckpt_stall * 2 + 2.0),
        variant=PersistenceVariant.STRONG,
        storage=StorageMode.SYNC,
        checkpoint_period=FIG7_CHECKPOINT_PERIOD,
    )
    minters = all_minter_addresses(o.clients)

    def app_factory():
        return SmartCoin(minters=minters,
                         synthetic_state_bytes=FIG7_STATE_BYTES)

    consortium = bootstrap(sim, (0, 1, 2, 3), app_factory, config,
                           trace=trace, engine=o.engine)
    view_holder = [consortium.genesis.view]
    for node in consortium.nodes.values():
        node.view_listeners.append(
            lambda view: view_holder.__setitem__(0, view))
    stations, _ = deploy_clients(sim, consortium.network,
                                 lambda: view_holder[0], o.clients)
    for station in stations:
        station.start_all(stagger=0.01)

    events: dict[str, float] = {}
    candidate = consortium.add_candidate(4, app_factory())
    sim.schedule(FIG7_JOIN, lambda: candidate.join(
        on_done=lambda: events.setdefault("joined", sim.now)))
    sim.schedule(FIG7_CRASH, consortium.node(3).crash)
    sim.schedule(FIG7_RECOVER, lambda: consortium.node(3).recover(
        lambda: events.setdefault("recovered", sim.now)))
    sim.schedule(FIG7_LEAVE, lambda: candidate.leave(
        on_done=lambda: events.setdefault("left", sim.now)))
    sim.run(until=FIG7_HORIZON)

    merged = merge_stamps([st.meter for st in stations])
    timeline = [(round(midpoint, 1), rate) for midpoint, rate
                in bucket_timeline(merged, FIG7_HORIZON, 10 * FIG7_SCALE)]
    print("Figure 7 timeline (window midpoint s, tx/s):")
    for when, rate in timeline:
        print(f"  {when:7.1f}s {rate:8.0f}  {'#' * int(rate / 150)}")
    for name, when in sorted(events.items(), key=lambda kv: kv[1]):
        print(f"  event: {name} at t={when:.1f}s")

    def rate_at(t: float) -> float:
        return next((rate for when, rate in timeline if when >= t),
                    timeline[-1][1])

    rates = [rate for _when, rate in timeline[1:-1]]
    joined = events.get("joined", -1.0)
    return {
        "steady tx/s": timeline[1][1],
        "joined at s": joined,
        "recovered at s": events.get("recovered", -1.0),
        "left at s": events.get("left", -1.0),
        # In the paper's units: seconds at its 1 GB state.
        "join transfer s": (joined - FIG7_JOIN) / FIG7_SCALE,
        "pre-crash tx/s": rate_at(FIG7_CRASH - 15 * FIG7_SCALE),
        "post-crash peak tx/s": max(
            rate for when, rate in timeline
            if FIG7_CRASH < when <= FIG7_CRASH + 60 * FIG7_SCALE),
        "dip floor tx/s": min(rates),
        "dip peak tx/s": max(rates),
        "checkpoints": consortium.node(0).delivery.checkpoints_taken,
        "final tx/s": timeline[-1][1],
    }


FIG7_CLAIMS = (
    Claim("lifecycle-completes", "the join, the recovery and the leave finish",
          ("joined at s", "recovered at s", "left at s"),
          lambda *at: all(t >= 0 for t in at)),
    Claim("crash-tolerated",
          "1 of 5 replicas crashing is absorbed: > 80% of the pre-crash "
          "rate within six windows",
          ("post-crash peak tx/s", "pre-crash tx/s"),
          lambda after, before: after > 0.8 * before),
    Claim("join-transfer-takes-time",
          "the joiner's state transfer takes at least half the paper's "
          "(in the paper's units)",
          ("join transfer s",),
          lambda seconds: seconds > 0.5 * FIG7_PAPER["join transfer s"]),
    Claim("checkpoint-stalls",
          "a checkpoint drops some window below half the peak",
          ("dip floor tx/s", "dip peak tx/s", "checkpoints"),
          lambda floor, peak, ckpts: floor < 0.5 * peak and ckpts >= 1),
    Claim("recovers-after-leave",
          "after the leave, throughput is back above 60% of steady state",
          ("final tx/s", "steady tx/s"), lambda end, start: end > 0.6 * start),
)


# ----------------------------------------------------------------------
# Figure 8 — time to update (join) a replica vs chain length.  The serving
# replicas' blockchain layers are fed decisions directly (consensus is not
# the subject); the fourth replica cold-starts and runs the real state
# transfer.  16-transaction blocks replay at 32x the per-transaction cost,
# like the paper's 512-transaction blocks.
# ----------------------------------------------------------------------
FIG8_TX_PER_BLOCK = 16
FIG8_REPLAY_SCALE = 32
FIG8_MAX_BLOCKS = 10_000 if FULL else 4_000
FIG8_POINTS = 5
#: All live replicas hold the chain (the f+1 target rule discounts the
#: highest f answers, so every prober-visible replica must be fed).
FIG8_FED_REPLICAS = (0, 1, 2)
FIG8_PERIODS = {"no-ckpt": 0, "500-ckpt": 500, "1000-ckpt": 1000,
                "2000-ckpt": 2000}


def _fig8_feed(consortium, start: int, count: int) -> None:
    """Drive decisions ``start..start+count`` straight into the delivery
    layers of the serving replicas."""
    from repro.crypto.hashing import hash_obj
    from repro.smr.requests import ClientRequest, Decision

    sim = consortium.sim
    for index in range(start, start + count):
        batch = [
            ClientRequest(client_id=50_000 + tx, req_id=index + 1,
                          op=("put", f"k{index}-{tx}", tx), size=310,
                          signed=False, reply_size=64)
            for tx in range(FIG8_TX_PER_BLOCK)
        ]
        decision = Decision(cid=index, batch=batch, proof={},
                            batch_hash=hash_obj(("fig8", index)),
                            regency=0, decided_at=sim.now)
        for replica_id in FIG8_FED_REPLICAS:
            node = consortium.node(replica_id)
            node.replica.last_decided = index
            node.delivery.on_decide(decision)
    sim.run()


def _fig8_curve(o: Options, name: str) -> dict[str, float]:
    """Grow the chain and measure the victim's update time at
    FIG8_POINTS lengths (the victim cold-starts each time); -1 marks an
    update that never completed."""
    from repro.apps.kvstore import KVStore
    from repro.config import CostModel, SMRConfig, SmartChainConfig
    from repro.core.node import bootstrap
    from repro.sim.engine import Simulator

    sim = Simulator(o.seed)
    costs = CostModel()
    costs = costs.copy(replay_time_per_tx=costs.replay_time_per_tx
                       * FIG8_REPLAY_SCALE)
    config = SmartChainConfig(
        smr=SMRConfig(n=4, f=1, verification=VerificationMode.NONE),
        variant=PersistenceVariant.WEAK,    # certificates are irrelevant here
        storage=StorageMode.SYNC,
        checkpoint_period=FIG8_PERIODS[name],
    )
    consortium = bootstrap(sim, (0, 1, 2, 3), KVStore, config, costs=costs,
                           engine=o.engine)
    victim = consortium.node(3)
    victim.crash()
    step = FIG8_HEIGHTS.step
    curve = {}
    for height in FIG8_HEIGHTS:
        _fig8_feed(consortium, height - step, step)
        # Cold-start the joining replica: wipe any local remnants.
        victim.replica.store.crash()
        victim.replica.store._stable_logs.clear()
        victim.replica.store._stable_cells.clear()
        victim.delivery.on_crash()
        started = sim.now
        done = []
        victim.recover(lambda: done.append(sim.now))
        sim.run(until=started + 3600)
        curve[f"{name} @{height}"] = done[0] - started if done else -1.0
        victim.crash()
    print(f"{name}: " + ", ".join(f"{key.split('@')[1]}->{seconds:.2f}s"
                                  for key, seconds in curve.items()))
    return curve


def _fig8(o: Options) -> dict[str, Row]:
    return {name: lambda name=name: _fig8_curve(o, name)
            for name in FIG8_PERIODS}


#: Chain lengths at which every curve is measured.
FIG8_HEIGHTS = range(FIG8_MAX_BLOCKS // FIG8_POINTS, FIG8_MAX_BLOCKS + 1,
                     FIG8_MAX_BLOCKS // FIG8_POINTS)
_AT_MAX = {name: f"{name} @{FIG8_MAX_BLOCKS}" for name in FIG8_PERIODS}
FIG8_CLAIMS = (
    ROWS_COMPLETE,
    Claim("no-checkpoint-linear",
          "without checkpoints the update time grows linearly with the chain",
          tuple(f"no-ckpt @{h}" for h in FIG8_HEIGHTS),
          lambda *times: (list(times) == sorted(times)
                          and times[-1] > 0.6 * FIG8_POINTS * times[0])),
    Claim("checkpoints-bound-update",
          "at the longest chain every checkpoint period beats no checkpoint",
          tuple(_AT_MAX.values()),
          lambda none, *periods: all(t < none for t in periods)),
    Claim("smaller-period-faster",
          "a smaller checkpoint period means a faster update",
          (_AT_MAX["500-ckpt"], _AT_MAX["2000-ckpt"], _AT_MAX["no-ckpt"]),
          lambda p500, p2000, none: p500 <= p2000 <= none),
)


# ----------------------------------------------------------------------
# Ablations (beyond the paper): the PERSIST round vs block size, Dura-SMaRt
# group commit, and the checkpoint period's steady-state price.
# ----------------------------------------------------------------------
def _persist_pair(o: Options, batch_size: int) -> dict[str, float]:
    """Weak and strong SMARTCHAIN at one batch size (not a Scenario
    field: the rows build their own deployment)."""
    from repro.apps.smartcoin import SmartCoin
    from repro.bench.harness import _measure
    from repro.config import CostModel, SMRConfig, SmartChainConfig
    from repro.core.node import bootstrap
    from repro.sim.engine import Simulator
    from repro.workloads.coingen import all_minter_addresses, deploy_clients

    out = {}
    for variant in (PersistenceVariant.WEAK, PersistenceVariant.STRONG):
        sim = Simulator(o.seed)
        config = SmartChainConfig(
            smr=SMRConfig(n=4, f=1, verification=VerificationMode.PARALLEL,
                          batch_size=batch_size),
            variant=variant,
            storage=StorageMode.SYNC,
            checkpoint_period=100_000,
        )
        minters = all_minter_addresses(o.clients)
        consortium = bootstrap(sim, (0, 1, 2, 3),
                               lambda: SmartCoin(minters=minters), config,
                               costs=CostModel(), engine=o.engine)
        holder = [consortium.genesis.view]
        stations, _ = deploy_clients(sim, consortium.network,
                                     lambda: holder[0], o.clients)
        for station in stations:
            station.start_all(stagger=0.002)
        sim.run(until=o.duration)
        out[f"{variant.value} batch={batch_size}"] = _measure(
            stations, o.duration, f"batch={batch_size} {variant.value}",
        ).throughput
    return out


def _group_commit(o: Options, limit: int) -> dict[str, float]:
    """Dura-SMaRt with group commit capped at ``limit`` batches, on a slow
    (10 ms barrier) disk that makes the effect plain."""
    from repro.apps.smartcoin import SmartCoin
    from repro.bench.harness import _measure
    from repro.config import CostModel, SMRConfig
    from repro.crypto.keys import KeyRegistry
    from repro.net.network import Network
    from repro.sim.engine import Simulator
    from repro.smr.durability import DuraSmartDelivery
    from repro.smr.keydir import KeyDirectory
    from repro.smr.replica import ModSmartReplica
    from repro.smr.views import View
    from repro.workloads.coingen import all_minter_addresses, deploy_clients

    sim = Simulator(o.seed)
    costs = CostModel()
    costs.disk.sync_latency = 0.010
    network = Network(sim, costs.network)
    registry = KeyRegistry(o.seed)
    keydir = KeyDirectory()
    view = View(0, (0, 1, 2, 3))
    config = SMRConfig(n=4, f=1, group_commit_limit=limit,
                       max_pending_decisions=10, batch_size=64)
    minters = all_minter_addresses(o.clients)
    for replica_id in view.members:
        ModSmartReplica(sim, network, registry, keydir, replica_id, view,
                        config, costs,
                        DuraSmartDelivery(SmartCoin(minters=minters)),
                        engine=o.engine)
    stations, _ = deploy_clients(sim, network, lambda: view, o.clients)
    for station in stations:
        station.start_all(stagger=0.002)
    sim.run(until=o.duration)
    return {f"group-commit limit={limit}": _measure(
        stations, o.duration, f"group-limit={limit}").throughput}


def _ablations(o: Options) -> dict[str, Row]:
    rows: dict[str, Row] = {}
    for batch_size in (64, 512):
        rows[f"batch={batch_size}"] = (
            lambda batch_size=batch_size: _persist_pair(o, batch_size))
    for limit in (1, 10):
        rows[f"group-commit limit={limit}"] = (
            lambda limit=limit: _group_commit(o, limit))
    for period in (50, 1000):
        rows[f"checkpoint z={period}"] = Scenario(
            system="smartchain", engine=o.engine, checkpoint_period=period,
            label=f"SmartChain strong checkpoint z={period}", **o.common)
    return rows


def _gap(weak: float, strong: float) -> float:
    return 1 - strong / weak


ABLATION_CLAIMS = (
    ROWS_COMPLETE,
    Claim("persist-costs-throughput",
          "strong never beats weak by more than 5% (the PERSIST round "
          "only costs)",
          ("weak batch=64", "strong batch=64", "weak batch=512",
           "strong batch=512"),
          lambda w64, s64, w512, s512: s64 <= w64 * 1.05 and s512 <= w512 * 1.05),
    Claim("small-blocks-amplify-persist",
          "the fixed PERSIST round costs more with small blocks",
          ("weak batch=64", "strong batch=64", "weak batch=512",
           "strong batch=512"),
          lambda w64, s64, w512, s512: _gap(w64, s64) >= _gap(w512, s512) * 0.8),
    Claim("group-commit-dilutes-sync",
          "group commit beats one sync per batch by > 1.3x",
          ("group-commit limit=10", "group-commit limit=1"),
          lambda many, one: many > 1.3 * one),
    Claim("frequent-checkpoints-cost",
          "z=1000 is at least as fast as z=50",
          ("checkpoint z=1000", "checkpoint z=50"),
          lambda rare, frequent: rare >= frequent),
)


# ----------------------------------------------------------------------
# Sweeps gated by committed baselines (benchmarks/results/BENCH_*.json)
# ----------------------------------------------------------------------
def _smartchain(o: Options) -> dict[str, Row]:
    return {"smartchain": Scenario(system="smartchain", engine=o.engine,
                                   faults=o.faults,
                                   **{**dict(o.overrides), **o.common})}


def _engines(o: Options) -> dict[str, Row]:
    # Table-II-style head-to-head: the same SMARTCHAIN scenario on each
    # engine, only the agreement protocol differing.
    contenders = (engine_names() if o.engine == "modsmart"
                  else ["modsmart", o.engine])
    return {engine: Scenario(system="smartchain", engine=engine,
                             faults=o.faults, **o.common)
            for engine in contenders}


def _shards(o: Options) -> dict[str, Row]:
    # Independent groups should scale aggregate throughput near-linearly at
    # 0% cross-shard traffic; the 10% columns price the two-phase transfer.
    return {f"shards={shards} x={fraction:g}": Scenario(
                system="smartchain", engine=o.engine, shards=shards,
                cross_shard_fraction=fraction,
                label=f"SmartChain shards={shards} x={fraction:g}", **o.common)
            for shards in (1, 2, 4) for fraction in (0.0, 0.1)}


def _pipeline(o: Options) -> dict[str, Row]:
    # The Table I Durable-SMaRt row: the depth=1/cores=1 corner is that row;
    # depth>=4 with cores>=2 is where the >=1.5x gain shows.
    return {f"depth={depth} cores={cores}": Scenario(
                system="dura", engine=o.engine, pipeline_depth=depth,
                exec_cores=cores, faults=o.faults, **o.common)
            for depth in (1, 4) for cores in (1, 2, 4)}


def _recovery(o: Options) -> dict[str, Row]:
    # Each plan damages one replica's stable storage under a crash-recover
    # storm on the Table I Durable-SMaRt row; every row is audited, and
    # verified recovery must keep the replica on the canonical chain.
    plans = ([o.faults] if o.faults is not None else
             ["bitrot-recovery", "torn-write-recovery", "gray-disk"])
    return {str(getattr(plan, "name", plan)): Scenario(
                system="dura", engine=o.engine, faults=plan,
                label=f"Dura-SMaRt recovery [{getattr(plan, 'name', plan)}]",
                **{**o.common, "audit": True})
            for plan in plans}


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(
        "Table I — naive SMaRt-based coin vs Dura-SMaRt, plus the MINT row",
        _table1, claims=TABLE1_CLAIMS,
        paper={"seq-sync": 1729, "seq-async": 1760, "par-sync": 3881,
               "par-async": 4027, "dura": 14829, "mint": 4079}),
    "table2": Experiment(
        "Table II — SMARTCHAIN vs Tendermint vs Fabric", _table2,
        claims=TABLE2_CLAIMS,
        paper={"strong": 12560, "weak": 14547, "tendermint": 1602,
               "fabric": 381}),
    "fig6": Experiment(
        "Figure 6 — consortium sizes x persistence guarantees", _fig6,
        claims=FIG6_CLAIMS,
        # Read off the figure / quoted in the text at n=4.
        paper={"dura Si+Sy n=4": 15_000, "dura N n=4": 33_000,
               "weak Si+Sy n=4": 14_500, "weak N n=4": 26_000,
               "strong Si+Sy n=4": 12_500, "strong N n=4": 18_000}),
    "fig7": Experiment(
        "Figure 7 — throughput across a join, a crash, a recovery, a "
        "checkpoint and a leave (own construction)", lambda o: {
            "timeline": lambda: _fig7_timeline(o)},
        claims=FIG7_CLAIMS, defaults={"clients": 600}, paper=FIG7_PAPER),
    "fig8": Experiment(
        "Figure 8 — time to update a replica vs chain length (own "
        "construction)", _fig8, claims=FIG8_CLAIMS,
        paper={f"no-ckpt @{FIG8_MAX_BLOCKS}": 45.0 * FIG8_MAX_BLOCKS / 10_000}),
    "ablations": Experiment(
        "PERSIST cost vs batch size, group-commit depth (both own "
        "construction), checkpoint period", _ablations,
        claims=ABLATION_CLAIMS),
    "smartchain": Experiment(
        "one SMARTCHAIN config (--variant/--storage/--n/...)", _smartchain,
        faults=True),
    "engines": Experiment(
        "consensus engines head-to-head (--engine picks the challenger)",
        _engines, faults=True),
    "shards": Experiment(
        "sharded scaling sweep — shard count x cross-shard fraction "
        "(docs/sharding.md)", _shards,
        # Scaling only shows once one group saturates its ordering
        # pipeline: the paper's full closed-loop population.
        defaults={"clients": 2400}),
    "pipeline": Experiment(
        "pipelining sweep — consensus depth x exec cores on the Table I "
        "Dura-SMaRt row (docs/performance.md)", _pipeline, faults=True),
    "recovery": Experiment(
        "storage-fault recovery sweep, audited (docs/faults.md)", _recovery,
        # Fault handling, not peak throughput: a light load, and a horizon
        # covering the plans' crash-recover storms.
        defaults={"clients": 300, "duration": 3.0}, faults=True),
}


def observable(experiment: Experiment) -> bool:
    """Whether any row of the experiment is a Scenario, and so takes the
    observation, audit and fault flags."""
    return any(isinstance(row, Scenario)
               for row in experiment.rows(Options()).values())


def run_rows(rows: Mapping[str, Row],
             ) -> tuple[list[ExperimentResult], dict[str, float]]:
    """Run ``rows`` in order; returns the Scenario results and every
    measured value by key (a Scenario row measures its throughput).  Only
    the first result keeps its live simulation (``--trace`` and
    ``--events`` export it): a sweep would otherwise hold every one."""
    results, measured = [], {}
    for key, row in rows.items():
        if isinstance(row, Scenario):
            result = run(row)
            if results:
                result.handle = None
            results.append(result)
            measured[key] = result.throughput
        else:
            measured.update(row())
    return results, measured
