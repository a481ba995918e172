#!/usr/bin/env python3
"""The CI smoke matrix: which ``python -m repro.bench`` runs each smoke job
makes, under which consensus engines, and the exit code each must produce.

``python scripts/ci_smoke.py <job>`` runs the job's rows in order and stops
at the first whose exit code is not the expected one.  ``repro.bench``
exits 0 on a clean run and 2 on any auditor violation, so a row expecting 2
is a *negative control*: the fault plan must trip the auditor, or the
positive rows beside it pass for free.  ``tests/test_ci_smoke.py`` checks
the table still holds every engine x plan x exit-code combination CI ran
before it was a table.

``python scripts/ci_smoke.py ceilings RESULT.json`` is the one row that
runs nothing: it holds the result file ``benchmarks/e2e/run.py --out`` wrote
(the ``e2e-smoke`` job's ``e2e-smartchain.json``) to the host-metric
ceilings committed in ``benchmarks/results/BENCH_e2e_ceilings.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

BOTH = ("modsmart", "fastbft")
#: No ``--engine`` flag: the row runs once, on the default engine.
DEFAULT = (None,)


class Row(NamedTuple):
    """One ``repro.bench`` invocation per engine.  ``{engine}`` in an
    argument is replaced by the engine's name."""

    args: tuple[str, ...]
    engines: tuple[str | None, ...] = BOTH
    expect: int = 0


def _smartchain(*args: str, clients: int, duration: float) -> tuple[str, ...]:
    return ("smartchain", "--clients", str(clients),
            "--duration", str(duration), *args)


JOBS: dict[str, tuple[Row, ...]] = {
    # One audited run per named fault plan: every scenario stays within the
    # f=1 fault threshold, so the safety auditor must come out clean
    # whichever engine is ordering.
    "chaos": tuple(
        Row(_smartchain("--faults", plan, "--audit",
                        clients=300, duration=2.0))
        for plan in ("equivocate", "mute", "withhold-votes", "stale-replay",
                     "crash-storm")),
    # Sharded multi-chain deployments (docs/sharding.md): an audited
    # 2-shard run with 10% cross-shard traffic must come out clean
    # (safety and liveness checked per shard, plus the no-double-mint
    # invariant), so must a crash storm scoped to shard 0 and a bit-rot
    # recovery on shard 1, whose log replay re-mints that replica's
    # transfers, and the scaling sweep is gated against the committed
    # baseline (including the >=1.7x two-shard speedup).
    "shard": (
        Row(_smartchain("--shards", "2", "--cross-shard-fraction", "0.1",
                        "--audit", "--audit-liveness",
                        clients=400, duration=2.5)),
        Row(_smartchain("--shards", "2", "--faults", "crash-storm-shard0",
                        "--audit", clients=400, duration=2.5), DEFAULT),
        Row(_smartchain("--shards", "2", "--cross-shard-fraction", "0.1",
                        "--faults", "bitrot-recovery-shard1", "--audit",
                        clients=400, duration=2.5)),
        Row(("shards", "--check-against",
             "benchmarks/results/BENCH_shards.json"), DEFAULT),
    ),
    # Liveness-attacking plans under the liveness auditor.  The
    # exponential-backoff synchronizer must keep its bound; the same
    # leader-targeted delay against the legacy fixed-timeout synchronizer
    # must wedge (exit 2).
    "liveness": (
        *(Row(_smartchain("--faults", plan, "--audit-liveness", "--report",
                          f"liveness-{{engine}}-{plan}.json",
                          clients=300, duration=6.0))
          for plan in ("leader-delay", "timeout-jitter", "stop-spam")),
        Row(_smartchain("--faults", "leader-delay-fixed", "--audit-liveness",
                        clients=300, duration=4.0), expect=2),
    ),
    # Storage-fault recovery (docs/faults.md, "Verified recovery"):
    # bit-rot and torn-write plans compose silent stable-storage damage
    # with crash-recover storms, and verified recovery must keep every
    # recovered replica on the canonical chain.  Re-running the bit-rot
    # storm with verify_recovery=false must diverge (exit 2).  The fault
    # sweep is gated against the committed baseline.  Those rows are
    # Dura-SMaRt; the SMARTCHAIN row is the benchmark's leader-crash plan
    # (bit-rot, crash of the leader, recovery by delta state transfers)
    # under the safety, recovery and liveness auditors.
    "recovery": (
        *(Row(("recovery", "--faults", plan, "--audit"))
          for plan in ("bitrot-recovery", "torn-write-recovery")),
        Row(("recovery", "--faults", "bitrot-unverified", "--audit"),
            expect=2),
        Row(_smartchain("--faults", "benchmarks/e2e/plans/leader-crash.json",
                        "--audit", "--audit-liveness",
                        clients=600, duration=4.0)),
        Row(("recovery", "--report", "recovery-report.json",
             "--check-against", "benchmarks/results/BENCH_recovery.json"),
            DEFAULT),
    ),
    # Pipelined consensus + modeled parallel execution
    # (docs/performance.md): audited depth=4 runs must come out clean on 1
    # and 2 exec cores, also with a quorum's worth of withheld votes (the
    # pipeline-stalled watchdog path), and the depth x cores sweep is gated
    # against the committed baseline — whose depth=1/cores=1 corner doubles
    # as the Table I byte-identity check.
    "pipeline": (
        *(Row(_smartchain("--pipeline-depth", "4", "--exec-cores", cores,
                          "--audit", "--audit-liveness",
                          clients=400, duration=2.5))
          for cores in ("1", "2")),
        Row(_smartchain("--pipeline-depth", "4", "--faults", "withhold-votes",
                        "--audit", clients=400, duration=2.5), DEFAULT),
        Row(("pipeline", "--profile", "--report", "pipeline-report.json",
             "--check-against", "benchmarks/results/BENCH_pipeline.json"),
            DEFAULT),
    ),
    # The paper's evaluation (Section VI): every table, figure and ablation,
    # each exiting 1 if one of its shape claims stops holding
    # (repro.bench.experiments); Table I is also gated against its
    # committed baseline.
    "figures": (
        Row(("table1", "--check-against",
             "benchmarks/results/BENCH_table1.json"), DEFAULT),
        *(Row((experiment,), DEFAULT)
          for experiment in ("table2", "fig6", "fig7", "fig8", "ablations")),
    ),
}


def commands(job: str) -> list[tuple[tuple[str, ...], int]]:
    """The job's ``repro.bench`` argument vectors, each with the exit code
    it must produce."""
    out = []
    for row in JOBS[job]:
        for engine in row.engines:
            experiment, *rest = (arg.format(engine=engine)
                                 for arg in row.args)
            flag = () if engine is None else ("--engine", engine)
            out.append(((experiment, *flag, *rest), row.expect))
    return out


#: workload -> end-to-end metric -> {"ceiling": ...}: host metrics that
#: repeat tightly enough between runs and machines of one Python version to
#: gate (peak RSS: +-0.3%), each at its measured median plus a margin.
CEILINGS = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "results" / "BENCH_e2e_ceilings.json")


def over_ceiling(result: dict, ceilings: dict) -> list[str]:
    """One line per committed ceiling the e2e result document exceeds (or
    does not report at all)."""
    problems = []
    for workload, metrics in ceilings["workloads"].items():
        measured = result["workloads"].get(workload, {}).get("end_to_end", {})
        for metric, bound in metrics.items():
            value = measured.get(metric, {}).get("value")
            if value is None or value > bound["ceiling"]:
                problems.append(f"{workload} {metric}: {value} exceeds the "
                                f"ceiling {bound['ceiling']}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "ceilings":
        problems = over_ceiling(json.loads(Path(argv[1]).read_text()),
                                json.loads(CEILINGS.read_text()))
        print("\n".join(problems) or "under every ceiling", file=sys.stderr)
        return 1 if problems else 0
    if len(argv) != 1 or argv[0] not in JOBS:
        print(f"usage: ci_smoke.py {{{','.join(JOBS)}}} | ceilings RESULT.json",
              file=sys.stderr)
        return 64
    for args, expect in commands(argv[0]):
        print(f"=== repro.bench {' '.join(args)}  (expect exit {expect})",
              flush=True)
        status = subprocess.run(
            [sys.executable, "-m", "repro.bench", *args]).returncode
        if status != expect:
            print(f"expected exit {expect}, got {status}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
