"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Examples::

    python -m repro.bench --list                        # experiments + defaults
    python -m repro.bench table1                        # Table I, paper, claims
    python -m repro.bench table2                        # Table II: 8x / 33x
    python -m repro.bench fig6                          # also fig7, fig8
    python -m repro.bench ablations                     # beyond the paper
    python -m repro.bench smartchain --variant weak --clients 600
    python -m repro.bench table1 --report table1.json   # observed run + JSON
    python -m repro.bench --smoke --report /tmp/r.json  # CI schema check
    python -m repro.bench smartchain --trace out.json   # Perfetto trace
    python -m repro.bench table1 --audit                # online safety auditor
    python -m repro.bench table1 --check-against benchmarks/results/BENCH_table1.json
    python -m repro.bench --engine fastbft              # engines head-to-head
    python -m repro.bench smartchain --engine fastbft --faults equivocate --audit
    python -m repro.bench smartchain --faults leader-delay --audit-liveness
    python -m repro.bench shards                        # sharded scaling sweep
    python -m repro.bench smartchain --shards 2 --cross-shard-fraction 0.1
    python -m repro.bench pipeline                      # depth x cores sweep
    python -m repro.bench smartchain --pipeline-depth 4 --exec-cores 2

The experiments live in :mod:`repro.bench.experiments`: each one's rows,
the paper's numbers for them and the shapes of the paper's evaluation they
must show.  A paper experiment prints every measured value beside the
paper's and checks its claims; a claim that does not hold prints its values
and exits 1.  ``REPRO_FULL=1`` runs them at the paper's scale.

``--report PATH`` runs every row with observability enabled and writes a
machine-readable bench report (schema ``repro.obs/bench-report/v1``): the
throughput/latency summary, the per-phase pipeline latency breakdown and the
per-resource busy fractions of each row.  ``--smoke`` runs one short
observed SMARTCHAIN row and validates the report schema (at least six
pipeline phases must appear) — the CI smoke target.

``--audit`` runs the online safety auditor over the protocol event stream
(exit code 2 on any invariant violation); ``--trace PATH`` writes the first
row as Chrome trace-event JSON (open in https://ui.perfetto.dev);
``--events PATH`` writes the raw protocol event stream as JSONL;
``--check-against BASELINE`` compares the fresh report against a saved
baseline report with tolerance bands (exit code 1 on drift beyond
tolerance).  They apply to the rows a Scenario expresses; ``fig7`` and
``fig8`` build their own deployments and refuse them.

``--profile`` wraps the simulation runs in :mod:`cProfile`, prints the top
functions by cumulative time to stderr and attaches them to the report
(``report["profile"]``) — see docs/performance.md.  Host cost per workload
is measured by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import pstats
import sys
from typing import Any

from repro.bench.experiments import (
    CLIENTS,
    DURATION,
    EXPERIMENTS,
    Experiment,
    Options,
    observable,
    run_rows,
)
from repro.bench.harness import Scenario, run
from repro.config import PersistenceVariant, StorageMode
from repro.consensus.engine import engine_names
from repro.obs.audit import AuditError
from repro.obs.compare import compare_reports
from repro.obs.report import build_bench_report, validate_bench_report
from repro.obs.traceview import build_trace, write_trace

#: Flags that need Scenario rows: observation, audit and faults.
_SCENARIO_FLAGS = ("report", "trace", "events", "check_against", "audit",
                   "audit_liveness", "faults")


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--duration", type=float, default=DURATION)
    parser.add_argument("--seed", type=int, default=1)
    # Accepted both before and after the experiment name; SUPPRESS keeps
    # the subparser from clobbering a value given at the top level.
    for flag, kwargs in (
            ("--report", {"metavar": "PATH"}),
            ("--smoke", {"action": "store_true"}),
            ("--audit", {"action": "store_true"}),
            ("--audit-liveness", {"action": "store_true",
                                  "dest": "audit_liveness"}),
            ("--trace", {"metavar": "PATH"}),
            ("--events", {"metavar": "PATH"}),
            ("--faults", {"metavar": "PLAN"}),
            ("--engine", {"metavar": "ENGINE"}),
            ("--profile", {"action": "store_true"}),
            ("--check-against", {"metavar": "BASELINE",
                                 "dest": "check_against"})):
        parser.add_argument(flag, default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS, **kwargs)


def _print_experiment_list() -> None:
    print("experiments:")
    for name, experiment in EXPERIMENTS.items():
        rows = len(experiment.rows(Options()))
        print(f"  {name:<12} {rows:>2} row(s)  {experiment.what}")
    print()
    print("scenario defaults (repro.bench.harness.Scenario):")
    for spec in dataclasses.fields(Scenario):
        default = spec.default
        if default is dataclasses.MISSING:
            default = "(required)"
        print(f"  {spec.name:<22} {default}")


def profile_stats(
    profiler: cProfile.Profile, top_n: int = 25,
) -> list[dict[str, Any]]:
    """Top ``top_n`` functions by cumulative time as JSON-able dicts."""
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, lineno, name), row in stats.stats.items():  # type: ignore[attr-defined]
        _cc, ncalls, tottime, cumtime, _callers = row
        entries.append({
            "function": f"{filename}:{lineno}({name})",
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    entries.sort(key=lambda entry: -entry["cumtime_s"])
    return entries[:top_n]


def format_profile(entries: list[dict[str, Any]]) -> str:
    lines = [f"top {len(entries)} functions by cumulative time:",
             f"  {'cumtime':>8} {'tottime':>8} {'ncalls':>10}  function"]
    for entry in entries:
        lines.append(f"  {entry['cumtime_s']:>8.3f} {entry['tottime_s']:>8.3f} "
                     f"{entry['ncalls']:>10}  {entry['function']}")
    return "\n".join(lines)


def _number(value: float) -> str:
    return f"{value:>10.0f}" if abs(value) >= 100 else f"{value:>10.2f}"


def _paper_table(experiment: Experiment, measured: dict[str, float],
                 stream) -> bool:
    """Print the measured values beside the paper's and the claims; returns
    whether every claim holds."""
    if experiment.paper or experiment.claims:
        print(f"{'measured':<30} {'value':>10} {'paper':>10} {'ratio':>7}",
              file=stream)
        for key, value in measured.items():
            paper = experiment.paper.get(key)
            tail = (f"{_number(paper)} {value / paper:>6.2f}x" if paper
                    else f"{'-':>10}")
            print(f"{key:<30} {_number(value)} {tail}", file=stream)
    ok = True
    for claim in experiment.claims:
        holds = claim.check(measured)
        ok = ok and holds
        print(f"claim {claim.name}: {'holds' if holds else 'FAILS'} — "
              f"{claim.text}", file=stream)
        if not holds:
            print(f"  values: {claim.values(measured)}", file=stream)
    return ok


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except AuditError as exc:
        print(exc, file=sys.stderr)
        return 2


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__)
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="enable observability and write a JSON bench "
                             "report to PATH ('-' for stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="run one short observed row and validate the "
                             "report schema (CI smoke target)")
    parser.add_argument("--list", action="store_true", dest="list_experiments",
                        help="list experiments and Scenario defaults, "
                             "then exit")
    parser.add_argument("--audit", action="store_true",
                        help="run the online safety auditor over the "
                             "protocol event stream (exit 2 on violation)")
    parser.add_argument("--audit-liveness", action="store_true",
                        dest="audit_liveness",
                        help="run the online liveness auditor: bounded "
                             "post-GST request latency plus wedge detection "
                             "over the regency timeline (exit 2 on "
                             "violation; bound/GST come from the fault "
                             "plan's liveness hints)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the first row's run as Chrome "
                             "trace-event JSON (open in Perfetto)")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="write the first row's protocol event stream "
                             "as JSONL")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="inject a Byzantine fault plan into the run: a "
                             "named plan (see repro.faults.NAMED_PLANS), a "
                             "JSON file path, or inline JSON (combine with "
                             "--audit)")
    parser.add_argument("--engine", metavar="ENGINE", default=None,
                        help="consensus engine key (one of: "
                             f"{', '.join(engine_names())}); with no "
                             "experiment, runs the engines head-to-head "
                             "comparison against modsmart")
    parser.add_argument("--check-against", metavar="BASELINE", default=None,
                        dest="check_against",
                        help="compare the report against a saved baseline "
                             "bench report (exit 1 on drift beyond "
                             "tolerance)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the experiment with cProfile; print "
                             "the top functions by cumulative time to "
                             "stderr and attach them to the report")
    parser.set_defaults(clients=CLIENTS, duration=DURATION, seed=1)
    sub = parser.add_subparsers(dest="experiment")
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.what)
        _common(p)
        p.set_defaults(**experiment.defaults)
    p = sub.choices["smartchain"]
    p.add_argument("--variant", choices=["strong", "weak"], default="strong")
    p.add_argument("--storage", choices=["sync", "async", "memory"],
                   default="sync")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--shards", type=int, default=1,
                   help="number of independent replica groups")
    p.add_argument("--cross-shard-fraction", type=float, default=0.0,
                   dest="cross_shard_fraction",
                   help="fraction of SPENDs that become two-phase "
                        "cross-shard transfers")
    p.add_argument("--pipeline-depth", type=int, default=1,
                   dest="pipeline_depth",
                   help="consensus instances the leader keeps in flight "
                        "(1 = classic sequential ordering)")
    p.add_argument("--exec-cores", type=int, default=1, dest="exec_cores",
                   help="modeled cores for parallel deterministic "
                        "execution (1 = execute on the SM thread)")

    args = parser.parse_args(argv)
    if args.list_experiments:
        _print_experiment_list()
        return 0
    if args.engine is not None and args.engine not in engine_names():
        parser.error(f"unknown engine {args.engine!r}; registered engines: "
                     f"{', '.join(engine_names())}")
    if args.experiment is None and not args.smoke:
        if args.engine is not None:
            # ``python -m repro.bench --engine fastbft``: the head-to-head
            # engine comparison is the natural thing to run.
            args.experiment = "engines"
        else:
            parser.error("an experiment is required "
                         "(or use --smoke/--list/--engine)")
    if args.smoke and args.experiment is not None:
        parser.error("--smoke runs its own fixed row; drop the "
                     "experiment name")
    experiment = EXPERIMENTS.get(args.experiment)
    given = [flag for flag in _SCENARIO_FLAGS if getattr(args, flag)]
    if given and experiment is not None and not observable(experiment):
        parser.error(
            f"{args.experiment} builds its own deployment, not a Scenario: "
            f"--{given[0].replace('_', '-')} is not available")
    for path in (args.report, args.trace, args.events):
        if path not in (None, "-"):
            try:  # fail before the run, not after minutes of simulation
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write to {path}: {exc}")
    baseline = None
    if args.check_against is not None:
        try:
            with open(args.check_against, encoding="utf-8") as fh:
                baseline = validate_bench_report(json.load(fh))
        except (OSError, ValueError) as exc:
            parser.error(
                f"cannot load baseline {args.check_against}: {exc}")
    fault_plan = None
    if args.faults is not None:
        if experiment is None or not experiment.faults:
            parser.error("--faults needs one of the experiments "
                         f"{', '.join(n for n, e in EXPERIMENTS.items() if e.faults)}"
                         " (the others have no fault-plan rows)")
        from repro.faults import FaultPlanError, load_plan
        try:  # resolve now so typos fail before the simulation starts
            fault_plan = load_plan(args.faults)
        except FaultPlanError as exc:
            parser.error(str(exc))

    observe = (args.report is not None or args.smoke
               or args.trace is not None or args.events is not None
               or baseline is not None)
    options = Options(
        clients=args.clients, duration=args.duration, seed=args.seed,
        engine=args.engine or "modsmart", faults=fault_plan, observe=observe,
        audit=args.audit, audit_liveness=args.audit_liveness,
        overrides={} if args.experiment != "smartchain" else dict(
            variant=PersistenceVariant(args.variant),
            storage=StorageMode(args.storage), n=args.n, shards=args.shards,
            cross_shard_fraction=args.cross_shard_fraction,
            pipeline_depth=args.pipeline_depth, exec_cores=args.exec_cores))
    report_options = {"clients": args.clients, "duration": args.duration,
                      "seed": args.seed}

    # With the report going to stdout, keep stdout pure JSON and move the
    # human-readable rows to stderr.
    print_report = args.report is not None or args.smoke
    report_to_stdout = print_report and args.report in (None, "-")
    rows_stream = sys.stderr if report_to_stdout else sys.stdout

    profiler = cProfile.Profile() if args.profile else None
    profile_top: list | None = None
    if profiler is not None:
        profiler.enable()
    try:
        if args.smoke:
            name = "smoke"
            report_options = {"clients": 300, "duration": 2.0,
                              "seed": args.seed}
            rows, measured = [run(Scenario(
                system="smartchain", variant=PersistenceVariant.STRONG,
                storage=StorageMode.SYNC, engine=options.engine,
                observe=True, audit=args.audit,
                audit_liveness=args.audit_liveness, **report_options))], {}
        else:
            name = args.experiment
            rows, measured = run_rows(experiment.rows(options))
    finally:
        if profiler is not None:
            profiler.disable()
            profile_top = profile_stats(profiler)
            print(format_profile(profile_top), file=sys.stderr)

    for result in rows:
        print(result.row(), file=rows_stream)
    claims_hold = experiment is None or _paper_table(
        experiment, measured, rows_stream)

    if observe:
        report = build_bench_report(
            name, [result.report for result in rows], options=report_options)
        validate_bench_report(report, min_phases=6 if args.smoke else 0)
        if profile_top is not None:
            # Extra top-level keys are tolerated by the report schema.
            report["profile"] = profile_top
        if args.trace is not None:
            handle = rows[0].handle
            trace = build_trace(handle.obs, horizon=handle.sim.now,
                                label=rows[0].label)
            write_trace(trace, args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
        if args.events is not None:
            rows[0].handle.obs.events.write_jsonl(args.events)
            print(f"events written to {args.events}", file=sys.stderr)
        if print_report:
            payload = json.dumps(report, indent=2, sort_keys=True)
            if report_to_stdout:
                print(payload)
            else:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
                print(f"report written to {args.report}", file=sys.stderr)
        if baseline is not None:
            comparison = compare_reports(baseline, report)
            print(comparison.format(), file=sys.stderr)
            if not comparison.ok:
                return 1
    return 0 if claims_hold else 1


if __name__ == "__main__":
    sys.exit(main())
