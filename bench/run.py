"""Benchmark for specsyn: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload train|extract|check --seed N \
        --seconds S --trace 0|1

The workload's inputs come from the seed. Set-up runs five times, each
in a fresh directory, and `setup_s` is its median at the probe's
reference speed. Then whole rounds of
the same `specsyn` calls repeat, one at a time in this process (a closed
loop with one client), until S seconds have passed. Each call's seconds
are scaled to a reference machine speed (`workloads.SpeedProbe`), and
every figure is the median over the rounds. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` wraps the layers' entry points and reports
the per-layer metrics instead. The last line of standard output is the
result; a readable table goes to standard error, and the full record to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

from checkout import BENCH, CheckoutError, environment, load_specsyn

SETUP_REPEATS = 5
ROLES = ("round_s", "main_per_s", "side_per_s", "main_quality", "side_quality")
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "main_per_s": "items/s",
    "side_per_s": "items/s", "main_quality": "ratio", "side_quality": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "extract", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few samples per call, for the self-test")
    return parser.parse_args(argv)


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(args) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
    probe = None if args.trace else workloads.SpeedProbe()
    session = workloads.Session(probe=probe)
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            workdir = _fresh(work / f"run{i}")
            with probe.during() if probe else nullcontext([]) as taken:
                start = time.perf_counter()
                workload.setup(session, workdir)
                elapsed = time.perf_counter() - start
            setups.append(probe.scale(elapsed, taken) if probe else elapsed)
        # set-up calls are not part of the measured rounds
        session.attempted = session.failed = 0

        tracer = tracing.Tracer().install() if args.trace else None
        rounds = []
        start = time.perf_counter()
        try:
            while not rounds or time.perf_counter() - start < args.seconds:
                before = session.attempted
                first = len(probe.samples) if probe else 0
                try:
                    times, qualities = workload.round(session, workdir)
                    taken = probe.samples[first:] if probe else []
                    rounds.append((times, qualities, statistics.median(taken) if taken else None))
                except workloads.OpFailed:
                    # the rest of the round cannot run; it counts as failed
                    done = session.attempted - before
                    session.attempted = before + workload.ops_per_round
                    session.failed += workload.ops_per_round - done
                    rounds.append(None)
        finally:
            if tracer:
                tracer.uninstall()
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [r for r in rounds if r is not None]
    figures = {}
    if done:
        # each call's seconds at the probe's reference speed, median over rounds
        calls = workloads.normalize(done, probe)
        seconds = {op: statistics.median(c[op] for c in calls) for op in calls[0]}
        figures["round_s"] = sum(seconds.values())
        figures.update(workload.rates(seconds))
        figures.update({k: statistics.median(r[1][k] for r in done) for k in done[0][1]})
        raw = {op: statistics.median(r[0][op][0] for r in done) for op in done[0][0]}
        figures["raw_round_s"] = sum(raw.values())
        figures.update({f"raw_{k}": v for k, v in workload.rates(raw).items()})
    figures["setup_s"] = statistics.median(setups)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "environment": environment(),
        "rounds": len(rounds), "measured_s": measured_s, "setup_runs_s": setups,
        "figures": figures, "per_round": rounds, "problems": session.problems,
    }
    if tracer:
        metrics = tracer.metrics(len(rounds))
        cost = tracing.wrapper_cost()
        overhead = cost * len(tracer.spans)
        metrics["trace.spans"] = {"value": len(tracer.spans) / len(rounds), "unit": "count"}
        metrics["trace.overhead_s"] = {"value": overhead / len(rounds), "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / measured_s, "unit": "ratio"}
        metrics["trace.missing_entry_points"] = {"value": len(tracer.missing), "unit": "count"}
        record["missing_entry_points"] = tracer.missing
        record["missing_metrics"] = tracer.missing_metrics()
        results = _results_dir()
        tracer.dump(results / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": len(rounds)})
    else:
        metrics = {
            name: {"value": figures.get(name, 0.0), "unit": UNITS[name]}
            for name in ("setup_s", "peak_rss_mb") + ROLES
        }
    record["metrics"] = metrics
    record["result"] = {
        "correct": not session.problems and bool(done),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    _report(record, workload)
    path = _results_dir() / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return record["result"]


def _results_dir():
    path = BENCH / "results"
    path.mkdir(exist_ok=True)
    return path


def _report(record, workload) -> None:
    out = sys.stderr
    env = record["environment"]
    print(f"bench: {record['workload']} seed {record['seed']}, {record['rounds']} rounds "
          f"in {record['measured_s']:.1f} s; numpy {env['numpy']}, {env['blas_name']} "
          f"{env['blas_version']} x{env['blas_threads']} threads, {env['nproc']} cpus "
          f"({env['cpu_model']}), python {env['python']}", file=out)
    names = dict(workload.names, round_s="round_s (s)", setup_s="setup_s (s)",
                 peak_rss_mb="peak_rss_mb (MB)")
    for key, value in record["figures"].items():
        print(f"  {key:<14} {value:>14.6g}  {names.get(key, '')}", file=out)
    if record["trace"]:
        for key, metric in record["metrics"].items():
            print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']}", file=out)
        for missing in record.get("missing_entry_points", ()):
            print(f"bench: entry point {missing} is missing; its metrics read 0", file=out)
    for problem in record["problems"][:20]:
        print(f"bench: problem: {problem}", file=out)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        load_specsyn()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
