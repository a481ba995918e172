"""One repetition of one workload, in a process of its own.

``python rep.py MODE WORKLOAD SEED`` runs the workload once and prints one
JSON object on the last line of standard output.  The parent (``run.py``)
starts one such process at a time, never two concurrently.

Modes:

``setup``   import ``repro`` and build the scenario only (the discarded
            warm-up that fills the ``.pyc`` cache).
``timed``   set up, then the untraced run: every end-to-end number, every
            count, the determinism digest.
``checked`` ``timed`` plus the correctness gate, after the clock stops.
``layers``  ``checked`` plus ``ledger.verify_block_us`` as a median of
            several verifier passes.
``t1``      the run with ``observe=True``: simulated phase latencies and
            resource busy fractions from the public run report.
``t2``      the run under the benchmark's profiler hook, folded by layer.
``micro``   direct timed calls (no workload; WORKLOAD is ignored).

Everything is read from outside the program: the public result and run
report, public counters and attributes of the live objects behind
``ExperimentResult.handle``, and the profiler.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import spec  # noqa: E402  (pure data, imports nothing of repro)

VERIFY_PASSES = 5


def build_scenario(name: str, seed: int):
    """The workload's ``repro.bench.Scenario`` for ``seed``."""
    from repro.bench import Scenario
    from repro.config import (PersistenceVariant, StorageMode,
                              VerificationMode)
    fields = dict(spec.WORKLOADS[name]["scenario"])
    for key, enum in (("variant", PersistenceVariant),
                      ("storage", StorageMode),
                      ("verification", VerificationMode)):
        if key in fields:
            fields[key] = enum(fields[key])
    if "faults" in fields:
        fields["faults"] = str(spec.PLAN_DIR / fields["faults"])
    return Scenario(seed=seed, **fields)


# ----------------------------------------------------------------------
# Reading the finished run from outside
# ----------------------------------------------------------------------
class Shard(NamedTuple):
    """One replica group of the finished run, members ordered by id."""

    replicas: list[Any]
    #: SMARTCHAIN nodes and their ReplicaGroup; empty / None for the
    #: systems that keep no chain (naive, Dura-SMaRt).
    nodes: list[Any]
    group: Any

    @property
    def app(self) -> Any:
        """The application on the group's first replica."""
        return self.replicas[0].delivery.app

    @property
    def busiest(self) -> Any:
        """The replica that decided most (a crashed one decides less)."""
        return max(self.replicas, key=lambda r: r.decided_count)


def shards_of(handle) -> list[Shard]:
    from repro.core.multichain import MultiChain
    from repro.core.node import ReplicaGroup
    system = handle.system
    if isinstance(system, MultiChain):
        groups = system.groups
    elif isinstance(system, ReplicaGroup):
        groups = [system]
    else:
        return [Shard(sorted(system, key=lambda r: r.id), [], None)]
    out = []
    for group in groups:
        nodes = sorted(group.nodes.values(), key=lambda n: n.id)
        out.append(Shard([n.replica for n in nodes], nodes, group))
    return out


def percentile(ordered: list[float], p: float) -> float:
    """The harness's nearest-rank rule (``_measure``)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def end_to_end(result, handle) -> dict[str, Any]:
    from repro.sim.trace import merge_stamps
    scenario = handle.scenario
    stations = handle.stations
    latencies = sorted(lat for st in stations for lat in st.latency.samples)
    stamps = merge_stamps([st.meter for st in stations],
                          start=scenario.warmup, end=scenario.duration)
    stall = max((b[0] - a[0] for a, b in zip(stamps, stamps[1:])),
                default=0.0)
    rejected = sum(shard.app.rejected for shard in shards_of(handle))
    deadline = scenario.duration - spec.STUCK_AFTER_S
    outstanding = [o for st in stations for o in st.outstanding.values()]
    stuck = sum(1 for o in outstanding if o.request.sent_at <= deadline)
    submitted = result.completed + len(outstanding)
    failed = rejected + stuck
    return {
        "sim_tx_per_s": result.throughput,
        "sim_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sim_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "sim_max_stall_ms": stall * 1e3,
        "failed_share": failed / submitted if submitted else 1.0,
        "latency_samples": len(latencies),
        "completed": result.completed,
        "submitted": submitted,
        "failed": failed,
        "rejected": rejected,
        "stuck": stuck,
    }


def state_digest(handle) -> str:
    """What the replicas agreed on, for the determinism gate: the chain
    head (SMARTCHAIN), the app-level block hash (naive) or the checksum of
    the last stable oplog record (Dura-SMaRt), per shard."""
    parts = []
    for shard in shards_of(handle):
        if shard.nodes:
            best = max(shard.nodes, key=lambda n: n.chain.height)
            parts.append(f"{best.chain.height}:"
                         f"{best.chain.head_digest().hex()}")
            continue
        best = shard.busiest
        prev_hash = getattr(best.delivery, "prev_hash", None)
        if prev_hash is not None:
            parts.append(f"{best.delivery.executed_cid}:{prev_hash.hex()}")
        else:
            entries = best.store.read_entries(best.delivery.LOG)
            tail = entries[-1].checksum.hex() if entries else ""
            parts.append(f"{len(entries)}:{tail}")
    return "|".join(parts)


def counts(result, handle, rejected: int) -> dict[str, float]:
    """Per-layer counts: exact per seed, identical on every repetition."""
    metrics = result.metrics
    sim = handle.sim
    completed = max(1, result.completed)
    shards = shards_of(handle)
    net = [n.stats() for n in handle.obs.networks]
    hashes = metrics["digest_cache_hits"] + metrics["digest_cache_misses"]
    verifies = metrics["verify_cache_hits"] + metrics["verify_cache_misses"]
    instances = sum(s.busiest.decided_count for s in shards)
    ordered_tx = sum(s.busiest.executed_tx_count for s in shards)
    group_size = len(shards[0].replicas)
    syncs = sum(r.store.disk.sync_count for s in shards for r in s.replicas)
    # A crashed-and-recovered node rebuilds only part of the chain itself;
    # the group's number is its busiest node's.
    blocks = sum(max(n.delivery.blocks_built for n in s.nodes)
                 for s in shards if s.nodes)
    certs = sum(max(n.delivery.certs_completed for n in s.nodes)
                for s in shards if s.nodes)
    events = handle.obs.events
    recovering = {e.node: e.time for e in events.of_kind("recovering")}
    catchup = max((e.time - recovering[e.node]
                   for e in events.of_kind("recover")
                   if e.node in recovering), default=0.0)
    return {
        "sim.events_per_tx": sim.executed / completed,
        "sim.events": sim.executed,
        "sim.heap_compactions": sim.compactions,
        "net.msgs_per_tx": sum(s["messages_sent"] for s in net) / completed,
        "net.bytes_per_tx": sum(s["bytes_sent"] for s in net) / completed,
        "net.dropped": sum(s["messages_dropped"] for s in net),
        "crypto.hash_calls_per_tx": hashes / completed,
        "crypto.digest_hit_rate":
            metrics["digest_cache_hits"] / hashes if hashes else 0.0,
        "crypto.verify_calls_per_tx": verifies / completed,
        "crypto.verify_hit_rate":
            metrics["verify_cache_hits"] / verifies if verifies else 0.0,
        "consensus.instances": instances,
        "consensus.tx_per_instance":
            ordered_tx / instances if instances else 0.0,
        "consensus.regency_changes": metrics["regency_changes"],
        "smr.watchdog_fires": metrics["watchdog_fires"],
        "smr.recovery_catchup_ms": catchup * 1e3,
        "smr.recovery_verified_entries":
            metrics["recovery.verified_entries"],
        "smr.recovery_truncated_entries":
            metrics["recovery.truncated_entries"],
        "storage.syncs_per_ktx": syncs / group_size / completed * 1e3,
        "storage.group_commit_mean": metrics.get("mean_group_commit", 0),
        "storage.bitrot_detected": metrics["storage.bitrot_detected"],
        "ledger.xfers_redeemed": metrics.get("transfers_redeemed", 0),
        "core.blocks": blocks,
        "core.tx_per_block": ordered_tx / blocks if blocks else 0.0,
        "core.certs_completed": certs,
        "apps.rejected": rejected,
        "faults.injected": len(events.of_kind("fault-injected")),
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _verify_chain(group, node, passes: int) -> tuple[int, float]:
    """ChainVerifier over ``node``'s finished chain; returns (blocks,
    median seconds per pass).  Raises VerificationError on a bad chain."""
    from repro.config import PersistenceVariant
    from repro.ledger.verifier import ChainVerifier
    verifier = ChainVerifier(
        group.registry, group.genesis,
        require_certificates=(group.config.variant
                              is PersistenceVariant.STRONG),
        # The newest block's PERSIST round may be in flight at the horizon.
        uncertified_tail=1)
    blocks = list(node.chain.blocks())
    seconds = []
    verified = 0
    for _ in range(passes):
        start = time.perf_counter()
        verified = verifier.verify_blocks(blocks).blocks_verified
        seconds.append(time.perf_counter() - start)
    return verified, statistics.median(seconds)


def correctness(result, handle, e2e: dict[str, Any],
                verify_passes: int) -> tuple[list[str], dict[str, float]]:
    """Problems found (empty = correct) and the verifier timing."""
    from repro.errors import ReproError
    problems: list[str] = []
    scenario = handle.scenario
    shards = shards_of(handle)
    if e2e["stuck"]:
        problems.append(f"{e2e['stuck']} requests unanswered for more than "
                        f"{spec.STUCK_AFTER_S} simulated s at the horizon")
    if e2e["rejected"]:
        problems.append(f"apps.rejected == {e2e['rejected']}, expected 0")
    if scenario.audit:
        # run() raised AuditError already had any auditor objected; check
        # that each one was attached and saw the run.
        obs = handle.obs
        for label, auditor in (("safety", obs.auditor),
                               ("liveness", obs.liveness),
                               ("recovery", obs.recovery)):
            if auditor is None:
                problems.append(f"{label} auditor was not attached")
                continue
            violations = auditor.summary()["violations"]
            if violations:
                problems.append(f"{label} audit: {violations[0]}")
        if obs.recovery is not None and \
                obs.recovery.summary()["recoveries_seen"] < 1:
            problems.append("recovery auditor saw no recovery")
    verified_blocks = 0
    verify_seconds = 0.0
    for shard in shards:
        if not shard.nodes:
            continue
        try:
            blocks, seconds = _verify_chain(shard.group, shard.nodes[0],
                                            verify_passes)
        except ReproError as exc:
            problems.append(f"ChainVerifier rejected replica "
                            f"{shard.nodes[0].id}'s chain: {exc}")
            continue
        verified_blocks += blocks
        verify_seconds += seconds
        # One chain per group: a replica may lag (a block in flight, a
        # recovered replica still catching up) but never diverge, so every
        # replica's head must be the tallest chain's block at that height.
        best = max(shard.nodes, key=lambda n: n.chain.height)
        for node in shard.nodes:
            height = node.chain.height
            if height <= best.chain.base_height:
                continue
            expected = (best.chain.head_digest() if height == best.chain.height
                        else best.chain.get(height).digest())
            if node.chain.head_digest() != expected:
                problems.append(f"replica {node.id} forked at height "
                                f"{height}")
    if len(shards) > 1:
        apps = [shard.app for shard in shards]
        value_in = sum(app.xmint_value_in for app in apps)
        value_out = sum(app.xlock_value_out for app in apps)
        if value_in > value_out:
            problems.append(f"xmint_value_in {value_in} > xlock_value_out "
                            f"{value_out}")
        redeemed = [xfer for app in apps for xfer in app.redeemed]
        if len(redeemed) != len(set(redeemed)):
            problems.append("a transfer certificate was redeemed twice")
        if not redeemed:
            problems.append("no cross-shard transfer was redeemed")
    timing = {"ledger.verify_block_us":
              verify_seconds / verified_blocks * 1e6 if verified_blocks
              else 0.0}
    return problems, timing


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------
_ROLES = {"smr.sm_busy": "sm", "smr.verify_pool_busy": "pool",
          "smr.exec_pool_busy": "exec", "net.nic_busy_max": "nic",
          "storage.disk_busy": "disk"}
_PHASES = {"smr.phase_batch_p50_ms": ("batch", "p50_s"),
           "smr.phase_batch_p99_ms": ("batch", "p99_s"),
           "smr.phase_execute_p50_ms": ("execute", "p50_s"),
           "consensus.phase_write_p50_ms": ("write", "p50_s"),
           "consensus.phase_accept_p50_ms": ("accept", "p50_s"),
           "storage.phase_body_write_p50_ms": ("body_write", "p50_s"),
           "core.phase_persist_p50_ms": ("persist", "p50_s"),
           "clients.phase_reply_p50_ms": ("reply", "p50_s")}


def observed_metrics(result, handle) -> tuple[dict[str, float], str]:
    """Simulated per-layer numbers of pass T1 and the bottleneck's name."""
    report = result.report
    roles = report["resource_roles"]
    out = {name: roles.get(role, {}).get("busy_fraction_max", 0.0)
           for name, role in _ROLES.items()}
    for name, (phase, stat) in _PHASES.items():
        out[name] = report["phases"].get(phase, {}).get(stat, 0.0) * 1e3
    # The variants without a PERSIST round mark ``persist`` when the block
    # finishes, so the phase exists but measures nothing of core's.
    if not result.metrics.get("certificates"):
        out["core.phase_persist_p50_ms"] = 0.0
    bottleneck = max(sorted(roles),
                     key=lambda r: roles[r]["busy_fraction_max"])
    out["bottleneck_busy"] = roles[bottleneck]["busy_fraction_max"]
    out["obs.events_recorded"] = len(handle.obs.events)
    out["obs.spans_recorded"] = report["trace"]["traced_requests"]
    return out, bottleneck


# ----------------------------------------------------------------------
# The repetition
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "micro":
        import micro
        print(json.dumps({"mode": mode, "metrics": micro.run_all(seed)}))
        return 0

    clock = time.process_time
    started = clock()
    from repro.bench import run
    scenario = build_scenario(workload, seed)
    imported = clock()
    run(replace(scenario, duration=0.0))
    built = clock()
    out: dict[str, Any] = {
        "mode": mode, "workload": workload, "seed": seed,
        "import_s": imported - started, "build_s": built - imported,
        "setup_s": built - started,
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0

    from repro.errors import ReproError
    from repro.obs.audit import AuditError
    fold = None
    try:
        if mode == "t1":
            scenario = replace(scenario, observe=True)
        before = clock()
        if mode == "t2":
            import layerfold
            result, stats = layerfold.profile(lambda: run(scenario))
            fold = layerfold.fold(stats)
        else:
            result = run(scenario)
        run_cpu = clock() - before
    except (ReproError, AuditError) as exc:  # an auditor objected
        out["problems"] = [f"{type(exc).__name__}: {exc}"]
        print(json.dumps(out))
        return 0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    handle = result.handle
    e2e = end_to_end(result, handle)
    # run(scenario) builds the system again before it simulates; take that
    # part out so the per-transaction cost is the simulation's alone.
    out["run_cpu_s"] = run_cpu
    out["host_cpu_s"] = run_cpu - out["build_s"]
    out["host_cpu_us_per_tx"] = (out["host_cpu_s"] / max(1, e2e["completed"])
                                 * 1e6)
    out["end_to_end"] = e2e
    network = handle.obs.networks[0].config
    out["network_model"] = {"bandwidth_bps": network.bandwidth_bps,
                            "one_way_latency_s": network.latency,
                            "jitter_s": network.jitter}
    out["counts"] = counts(result, handle, e2e["rejected"])
    out["digest"] = f"{state_digest(handle)}#{e2e['completed']}"
    if mode in ("checked", "layers"):
        problems, timing = correctness(
            result, handle, e2e,
            VERIFY_PASSES if mode == "layers" else 1)
        out["problems"] = problems
        out["layer_timing"] = timing
    if mode == "t1":
        out["observed"], out["bottleneck"] = observed_metrics(result, handle)
        out["report"] = {key: result.report[key] for key in
                         ("phases", "resources", "resource_roles", "network")}
    if fold is not None:
        out["fold"] = fold
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
