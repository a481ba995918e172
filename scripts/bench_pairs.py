#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark of record.

``python scripts/bench_pairs.py PARENT_REF [--workload W] [--pairs 10]
[--seeds 11-20]`` unpacks ``PARENT_REF`` into a temporary directory (under
``$TMPDIR``), then runs the BENCHMARK.json driver (``python3
benchmarks/e2e/run.py --workload W --seed S --seconds 10 --trace 0``) on
that tree and on this one, pair by pair: one seed per pair, the order of the
two sides swapped every pair, never two runs at once.  Per end-to-end metric
it prints both medians and quartiles, the pairs the change won and tied,
whether the medians are further apart than the parent's interquartile range
(the rule a claimed gain is held to, see docs/performance.md), and whether
every ``sim_*`` value is bit-identical per seed.  Without ``--workload``
every workload of BENCHMARK.json is measured in turn.

It reads BENCHMARK.json and calls the driver; it changes nothing under
``benchmarks/e2e/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), quartiles inclusive of the extremes."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Paired comparison of one metric: ``parent[i]`` and ``change[i]``
    come from the same seed.  ``resolved`` is the gain rule's second half:
    the change's median is on the better side of the parent's by more than
    the parent's own interquartile range."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med) or 0.0  # never "-0.0"
    return {
        "pairs": len(parent), "wins": wins, "ties": ties,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "gain": gain,
        "gain_share": gain / abs(p_med) if p_med else 0.0,
        "identical": parent == change,
        "resolved": gain > p_q3 - p_q1,
    }


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"3,5,8"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def drive(tree: Path, workload: str, seed: int) -> dict:
    """One driver run in ``tree``; the result line's metrics by name."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def measure(parent: Path, workload: str, seeds: list[int],
            metrics: list[dict]) -> dict[str, dict]:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    trees = {"parent": parent, "change": ROOT}
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(drive(trees[side], workload, seed))
    return {m["name"]: compare([r[m["name"]] for r in runs["parent"]],
                               [r[m["name"]] for r in runs["change"]],
                               m["better"])
            for m in metrics}


def verdict(name: str, row: dict) -> str:
    """What the table says of one metric.  A simulated metric is exact per
    seed: it is bit-identical, or the change moved the modelled system —
    and is then held to the gain rule like a host metric."""
    simulated = name.startswith("sim_")
    if simulated and row["identical"]:
        return "bit-identical per seed"
    return (("DIFFERS per seed  " if simulated else "")
            + f"wins {row['wins']}/{row['pairs']} ties {row['ties']}"
            "  medians "
            + ("further apart than" if row["resolved"] else "within")
            + " the parent IQR")


def report(workload: str, table: dict[str, dict]) -> None:
    print(f"== {workload}")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"{name:20s} parent {p['median']:.6g} [{p['q1']:.6g}, "
              f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
              f"{c['q3']:.6g}]  gain {row['gain_share']:+.1%}  "
              f"{verdict(name, row)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=parse_seeds, default="11-20")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in benchmark["workloads"]])
    seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.Popen(
            ["git", "archive", "--format=tar", args.parent_ref],
            cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(tmp)
        if archive.wait() != 0:
            return 1
        for workload in workloads:
            report(workload, measure(Path(tmp), workload, seeds,
                                     benchmark["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
