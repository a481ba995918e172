#!/usr/bin/env python3
"""The benchmark of record: six coin workloads, end to end and by layer.

Three ways in, one measurement underneath:

``python3 benchmarks/e2e/run.py [--seed 1] [--out PATH]``
    The whole suite: every workload, ``--reps`` timed repetitions each
    (interleaved round-robin), the two traced passes, the correctness and
    determinism gates; prints every metric by name and writes the result
    file.  Exit code 1 (file still written, ``"valid": false``) when a gate
    fails.  ``--workload NAME`` and ``--reps N`` narrow it for iteration.

``... --workload NAME --seed N --seconds S --trace 0|1``
    One workload for the driver behind BENCHMARK.json: the last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
    with ``--trace 1``).

``... --compare A.json B.json``
    Verdict per (metric, workload): better / same / worse / unresolved.

Every repetition runs in a fresh subprocess (``rep.py``), one at a time.
``run.py`` adds ``src/`` to the children's import path itself, so no
``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SCHEMA = "repro.e2e/benchmark/v1"
CHILD_TIMEOUT_S = 170
#: Driver mode stops adding repetitions past this much wall time, so one
#: invocation stays well inside the driver's 180 s.
DRIVER_WALL_CAP_S = 100


class ChildFailed(RuntimeError):
    """A repetition process died or printed no result."""


def run_child(mode: str, workload: str, seed: int) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), mode, workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"rep.py {mode} {workload} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# One workload's measurement
# ----------------------------------------------------------------------
class WorkloadRun:
    """Accumulates one workload's repetitions and turns them into metrics."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.reps: list[dict[str, Any]] = []
        self.t1: dict[str, Any] | None = None
        self.t2: dict[str, Any] | None = None
        self.micro: dict[str, float] = {}
        self.problems: list[str] = []

    # -- running ------------------------------------------------------
    def warm_up(self) -> None:
        """The discarded set-up that fills the ``.pyc`` cache."""
        run_child("setup", self.name, self.seed)

    def timed_rep(self, first_mode: str = "checked") -> dict[str, Any]:
        """One untraced repetition; the first also runs the correctness
        gate (after its clock has stopped)."""
        rep = run_child(first_mode if not self.reps else "timed",
                        self.name, self.seed)
        self.reps.append(rep)
        for problem in rep.get("problems", ()):
            self.problems.append(f"{self.name}: {problem}")
        return rep

    def traced_passes(self, micro: dict[str, float]) -> None:
        self.t1 = run_child("t1", self.name, self.seed)
        self.t2 = run_child("t2", self.name, self.seed)
        self.micro = micro
        for rep in (self.t1, self.t2):
            for problem in rep.get("problems", ()):
                self.problems.append(f"{self.name}: {problem}")

    # -- gates --------------------------------------------------------
    def determinism_problem(self) -> str | None:
        """The first simulated number that differs between repetitions (or
        between them and a traced pass), or None."""
        complete = self.complete()
        if not complete:
            return None
        ref = complete[0]
        others = [(f"rep {i + 2}", rep) for i, rep in enumerate(complete[1:])]
        others += [(label, rep) for label, rep in
                   (("T1", self.t1), ("T2", self.t2))
                   if rep is not None and "end_to_end" in rep]
        for label, rep in others:
            for metric in spec.SIM_METRICS:
                if rep["end_to_end"][metric] != ref["end_to_end"][metric]:
                    return (f"{self.name}: {metric} differs on {label}: "
                            f"{rep['end_to_end'][metric]!r} != "
                            f"{ref['end_to_end'][metric]!r}")
            for metric, value in ref["counts"].items():
                if label == "T1" and metric in spec.MOVED_BY_OBSERVING:
                    continue
                if rep["counts"][metric] != value:
                    return (f"{self.name}: {metric} differs on {label}: "
                            f"{rep['counts'][metric]!r} != {value!r}")
            if rep["digest"] != ref["digest"]:
                return (f"{self.name}: state digest differs on {label}: "
                        f"{rep['digest']} != {ref['digest']}")
        return None

    def all_problems(self) -> list[str]:
        problems = list(self.problems)
        gate = self.determinism_problem()
        if gate:
            problems.append(gate)
        return problems

    # -- metrics ------------------------------------------------------
    def complete(self) -> list[dict[str, Any]]:
        """The repetitions that ran to the end (an auditor's objection or a
        broken run leaves only ``problems``)."""
        return [r for r in self.reps if "end_to_end" in r]

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        reps = self.complete()
        out: dict[str, dict[str, Any]] = {}
        if not reps:
            return out
        first = reps[0]["end_to_end"]
        for name, unit, better, simulated in spec.END_TO_END + (
                spec.FAILED_SHARE,):
            if simulated:
                out[name] = {"value": first[name], "unit": unit,
                             "better": better, "kind": "simulated",
                             "n": first["latency_samples" if "latency" in name
                                        else "submitted" if "failed" in name
                                        else "completed"]}
                continue
            samples = [rep[name] for rep in self.reps if name in rep]
            q1, median, q3 = quartiles(samples)
            out[name] = {"value": median, "unit": unit, "better": better,
                         "kind": "host", "n": len(samples), "q1": q1,
                         "q3": q3, "samples": samples}
        return out

    def host_cpu_s(self) -> float:
        return statistics.median(r["host_cpu_s"] for r in self.complete())

    def per_layer(self) -> dict[str, dict[str, Any]]:
        """Every per-layer metric; needs the traced passes."""
        reps = self.complete()
        if not reps or self.t1 is None or self.t2 is None:
            return {}
        if "observed" not in self.t1 or "fold" not in self.t2:
            return {}
        values: dict[str, float] = dict(reps[0]["counts"])
        values.update(reps[0].get("layer_timing", {}))
        values.update(self.t1["observed"])
        values.update(self.micro)
        untraced = self.host_cpu_s()
        values["sim.host_us_per_event"] = (
            untraced / max(1, reps[0]["counts"]["sim.events"]) * 1e6)
        values["obs.host_overhead_x"] = self.t1["host_cpu_s"] / untraced
        values["trace.profiler_overhead_x"] = (
            self.t2["host_cpu_s"] / untraced)
        for layer, shares in self.t2["fold"]["layers"].items():
            values[f"{layer}.host_self_share"] = shares["self_share"]
            values[f"{layer}.host_incl_share"] = shares["incl_share"]
        return {name: {"value": values[name], "unit": unit,
                       "better": better, "source": source}
                for name, unit, better, source, _moves in spec.PER_LAYER}

    def trace_document(self) -> dict[str, Any]:
        """What ``results/trace_<workload>.json`` holds: T1's simulated
        report and T2's layer fold, kept in memory until the end."""
        return {
            "schema": "repro.e2e/trace/v1",
            "workload": self.name,
            "seed": self.seed,
            "t1": {key: self.t1.get(key) for key in
                   ("report", "observed", "bottleneck", "host_cpu_s")},
            "t2": {"host_cpu_s": self.t2.get("host_cpu_s"),
                   **self.t2.get("fold", {})},
        }

    def write_trace(self) -> Path:
        spec.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = spec.RESULTS_DIR / f"trace_{self.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_document(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


# ----------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def driver(name: str, seed: int, seconds: float, trace: int,
           min_reps: int) -> int:
    started = time.monotonic()
    work = WorkloadRun(name, seed)
    if trace:
        work.timed_rep("layers")
        micro = run_child("micro", name, seed)["metrics"]
        work.traced_passes(micro)
        work.write_trace()
        metrics = work.per_layer()
        wanted = spec.PER_LAYER_NAMES
    else:
        work.warm_up()
        measured = 0.0
        while (len(work.reps) < min_reps or measured < seconds):
            if (len(work.reps) >= min_reps
                    and time.monotonic() - started > DRIVER_WALL_CAP_S):
                break
            # A repetition that broke has no time to add; stop repeating it.
            measured += work.timed_rep().get("run_cpu_s", seconds)
        metrics = work.end_to_end()
        wanted = spec.END_TO_END_NAMES
    problems = work.all_problems()
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    complete = work.complete()
    if not complete or any(name not in metrics for name in wanted):
        print("no result: the workload did not run to completion",
              file=sys.stderr)
        return 1
    e2e = complete[0]["end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": e2e["submitted"],
        "failed": e2e["failed"],
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in wanted},
    }))
    return 0


# ----------------------------------------------------------------------
# Suite mode: everything, printed and written
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):>14d}"
    return f"{value:>14.4f}"


def print_workload(name: str, doc: dict[str, Any],
                   cross_seed: dict[str, float],
                   same_seed: dict[str, float]) -> None:
    print(f"\n== {name} ==  {doc['why']}")
    ratio = doc["paper_ratio"]
    print(f"   paper reference: "
          + (f"{doc['paper_tx_s']:.0f} tx/s, measured/paper = {ratio:.3f}"
             if ratio is not None else "none (unvalidated)")
          + f"; bottleneck: {doc.get('bottleneck', '?')}")
    print(f"   {'end-to-end metric':<26}{'value':>14} {'unit':<8}"
          f"{'kind':<10}{'n':>7}  {'q1..q3':<23}bound (seeds differ/same)")
    for metric, entry in doc["end_to_end"].items():
        spread = (f"{entry['q1']:.4f}..{entry['q3']:.4f}"
                  if "q1" in entry else "exact per seed")
        print(f"   {metric:<26}{_fmt(entry['value'])} {entry['unit']:<8}"
              f"{entry['kind']:<10}{entry['n']:>7}  {spread:<23}"
              f"{cross_seed[metric] * 100:.0f}% / "
              f"{same_seed[metric] * 100:g}%")
    if doc["per_layer"]:
        print(f"   {'per-layer metric':<34}{'value':>14} {'unit':<12}source")
    for metric, entry in doc["per_layer"].items():
        print(f"   {metric:<34}{_fmt(entry['value'])} {entry['unit']:<12}"
              f"{entry['source']}")


def suite(names: list[str], seed: int, reps: int, out: Path) -> int:
    works = {name: WorkloadRun(name, seed) for name in names}
    problems: list[str] = []
    network_model = None
    started = time.monotonic()
    try:
        for work in works.values():
            work.warm_up()
        # Round-robin, so drift of the machine over the run lands on every
        # workload alike: w1r1, w2r1, ... w1r2, ...
        for index in range(reps):
            for work in works.values():
                rep = work.timed_rep("layers")
                network_model = rep.get("network_model", network_model)
                print(f"[{time.monotonic() - started:6.0f}s] rep "
                      f"{index + 1}/{reps} {work.name}: "
                      f"{rep.get('host_cpu_us_per_tx', float('nan')):.2f} "
                      f"us/tx", file=sys.stderr)
        micro = run_child("micro", names[0], seed)["metrics"]
        for work in works.values():
            work.traced_passes(micro)
            print(f"[{time.monotonic() - started:6.0f}s] traced "
                  f"{work.name}", file=sys.stderr)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        problems.append(str(exc))

    document: dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "reps": reps,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "load": ("closed loop: one outstanding request per client; the "
                 "only generator the program has"),
        "network_model": network_model,
        "workloads": {},
    }
    for name, work in works.items():
        problems.extend(work.all_problems())
        e2e = work.end_to_end()
        paper = spec.WORKLOADS[name]["paper_tx_s"]
        ratio = (e2e["sim_tx_per_s"]["value"] / paper
                 if paper and "sim_tx_per_s" in e2e else None)
        doc = {
            "why": spec.WORKLOADS[name]["why"],
            "scenario": spec.WORKLOADS[name]["scenario"],
            "paper_tx_s": paper,
            "paper_ratio": ratio,
            "validation": "paper reference" if paper else "unvalidated",
            "end_to_end": e2e,
            "per_layer": work.per_layer(),
            "bottleneck": (work.t1 or {}).get("bottleneck"),
            "digest": (work.complete()[0]["digest"]
                       if work.complete() else None),
        }
        if len(e2e) < len(spec.END_TO_END) + 1 or not doc["per_layer"]:
            problems.append(f"{name}: metrics missing")
        document["workloads"][name] = doc
        if work.t1 is not None and work.t2 is not None:
            work.write_trace()
    document["problems"] = problems
    document["valid"] = not problems
    document["wall_s"] = time.monotonic() - started
    document["claim"] = None

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")

    print(f"benchmark of record, seed {seed}, {reps} reps, "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    print(f"load: {document['load']}")
    print(f"simulated network: {network_model}")
    print("simulated numbers are exact per seed; host numbers are medians "
          "with quartiles")
    cross_seed, same_seed = spec.bounds(), spec.bounds(same_seed=True)
    for name, doc in document["workloads"].items():
        print_workload(name, doc, cross_seed, same_seed)
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(f"\nwrote {out}")
    print(json.dumps({"valid": document["valid"],
                      "problems": len(problems),
                      "wall_s": round(document["wall_s"], 1),
                      "claim": None}))
    return 0 if document["valid"] else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(base: dict[str, Any], cand: dict[str, Any],
            bound: float) -> tuple[str, float]:
    """(better|same|worse|unresolved, signed change where + is worse)."""
    a, b = base["value"], cand["value"]
    sign = -1.0 if base.get("better") == "higher" else 1.0
    # "or 0.0" turns IEEE -0.0 into 0.0, which prints as +0.00%.
    change = sign * ((b - a) / abs(a) if a else (b - a)) or 0.0
    if base["kind"] == "host":
        spread = max(
            (side["q3"] - side["q1"]) / side["value"] if side["value"] else 0
            for side in (base, cand))
        if spread > bound:
            return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(path_a: Path, path_b: Path) -> int:
    with open(path_a, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        cand = json.load(fh)
    same_seed = base["seed"] == cand["seed"]
    bounds = spec.bounds(same_seed)
    print(f"base {path_a} (seed {base['seed']}, valid {base['valid']})  vs  "
          f"candidate {path_b} (seed {cand['seed']}, valid {cand['valid']})")
    print("bounds: " + ("same seed, so the issue's (simulated numbers are "
                        "exact)" if same_seed else
                        "seeds differ, so BENCHMARK.json's cross-seed ones"))
    tally = {"better": 0, "same": 0, "worse": 0, "unresolved": 0}
    exact = changed = 0
    print(f"{'workload':<22}{'metric':<24}{'base':>14}{'candidate':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for name, base_doc in base["workloads"].items():
        cand_doc = cand["workloads"].get(name)
        if cand_doc is None:
            print(f"{name:<22}missing from candidate")
            tally["unresolved"] += 1
            continue
        for metric, entry in base_doc["end_to_end"].items():
            other = cand_doc["end_to_end"].get(metric)
            if other is None:
                continue
            bound = bounds[metric]
            word, change = verdict(entry, other, bound)
            tally[word] += 1
            print(f"{name:<22}{metric:<24}{_fmt(entry['value'])}"
                  f"{_fmt(other['value'])}{change * 100:>+8.2f}%"
                  f"{bound * 100:>6.1f}%  {word}")
        for metric, entry in base_doc["per_layer"].items():
            other = cand_doc["per_layer"].get(metric)
            if other is None or entry["source"] not in ("count", "t1"):
                continue
            exact += 1
            if other["value"] != entry["value"]:
                changed += 1
                print(f"{name:<22}{metric:<24}{_fmt(entry['value'])}"
                      f"{_fmt(other['value'])}{'':>16}  changed (exact "
                      f"per-layer number)")
    print(f"exact per-layer numbers compared: {exact}, changed: {changed}")
    print(json.dumps({**tally, "exact_changed": changed, "claim": None}))
    return 1 if tally["worse"] else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default results/run_seed<N>.json)")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--reps", type=int, default=spec.REPS)
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: keep repeating until this much "
                             "host time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "CANDIDATE"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (spec.ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {spec.ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        try:
            return driver(args.workload, args.seed, args.seconds or 0.0,
                          args.trace, args.reps)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"no result: {exc}", file=sys.stderr)
            return 1
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    out = args.out or spec.RESULTS_DIR / f"run_seed{args.seed}.json"
    return suite(names, args.seed, args.reps, out)


if __name__ == "__main__":
    sys.exit(main())
