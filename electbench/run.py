#!/usr/bin/env python3
"""Election benchmark of ppsim, the reproduction of Sudo et al., "Logarithmic
Expected-Time Leader Election in Population Protocol Model" (PODC 2019).

Run from the root of a ppsim checkout:

    python3 electbench/run.py --workload sweep_agent --seed 1 --seconds 25 --trace 0

Builds electbench/ (its own CMake package, which compiles the library from
src/) into .bench_build/electbench, runs the workload and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1 runs
the workload untraced, then traced (spans + recorded layer inputs, kept in
.bench_build/electbench/trace/<workload>/), then the layer replays, and
reports the per-layer metrics. Exit codes: 0 all checks passed, 1 a check
failed (the result is still printed), 2 the benchmark could not run.
See electbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "electbench"
WORKLOADS = ("sweep_agent", "elect_gillespie", "observed_agent")
SETUP_PROBES = 15  # fresh processes timing their set-up up to the first election

END_TO_END = {
    "elections_per_s": "1/s",
    "parallel_time_per_s": "parallel_time/s",
    "qe_parallel_time_per_s": "parallel_time/s",
    "timer_parallel_time_per_s": "parallel_time/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "experiment.occupancy": "ratio",
    "experiment.rep_s.p50": "s",
    "experiment.rep_s.p99": "s",
    "agent.interactions": "count",
    "agent.ns_per_interaction": "ns",
    "scheduler.ns_per_pair": "ns",
    "pll.ns_per_interact": "ns",
    "gillespie.leaps.qe": "count",
    "gillespie.leaps.timer": "count",
    "gillespie.us_per_leap.qe": "us",
    "gillespie.us_per_leap.timer": "us",
    "gillespie.live_states.qe": "count",
    "gillespie.live_states.timer": "count",
    "gillespie.exact_events": "count",
    "gillespie.dropped_per_mpair": "count",
    "pll.epoch_share.1": "ratio",
    "pll.epoch_share.2": "ratio",
    "pll.epoch_share.3": "ratio",
    "pll.epoch_share.4": "ratio",
    "random.multinomial_us.qe": "us",
    "random.multinomial_us.timer": "us",
    "random.binomial_ns": "ns",
    "random.hypergeometric_ns": "ns",
    "pairing.bulk_us.qe": "us",
    "pairing.bulk_us.timer": "us",
    "pairing.pairwise_us.qe": "us",
    "pairing.pairwise_us.timer": "us",
    "pairing.bulk_share.qe": "ratio",
    "pairing.bulk_share.timer": "ratio",
    "pairing.cells.qe": "count",
    "pairing.cells.timer": "count",
    "cache.get_ns": "ns",
    "cache.misses": "count",
    "count_store.touch_merge_ns": "ns",
    "replay.unexplained.qe": "ratio",
    "replay.unexplained.timer": "ratio",
    "observer.calls_per_election": "count",
    "observer.trajectory_us": "us",
    "observer.deadline_us": "us",
    "observer.share": "ratio",
    "persist.bytes": "B",
    "persist.write_ms": "ms",
    "persist.resume_ms": "ms",
    "persist.share": "ratio",
    "registry.make_simulation_us": "us",
    "trace.overhead": "ratio",
}


def fail(message):
    print(f"electbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(command, what):
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(targets):
    if not (ROOT / "src").is_dir():
        fail(f"no src/ beside {HERE.name}/: run from the root of a ppsim checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                  "configuring the benchmark")
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
              "building " + " ".join(targets))


def run_program(program, args):
    """Runs one benchmark program and returns its JSON report (last stdout line)."""
    proc = subprocess.run([str(BUILD / program), *args], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{program} {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def source_identity():
    """Git sha when the checkout is a repository, and a digest of the sources."""
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def value(report, name):
    return report["metrics"][name]["value"]


def print_summary(args, stamp, attempted, failed, metrics, units):
    """The host and source stamp, the election counts, and every metric."""
    sha, tree = source_identity()
    print(f"electbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"host       nproc={stamp['nproc']} cpu=\"{stamp['cpu_model']}\" "
          f"compiler=\"{stamp['compiler']}\" flags=\"{stamp['flags']}\" "
          f"build_type={stamp['build_type']}")
    print(f"source     git={sha} tree_sha256={tree}")
    print(f"elections  qe={stamp['qe_elections']} timer={stamp['timer_elections']} "
          f"measured_per_s={float(stamp['measured_elections_per_s']):.6g} "
          f"attempted={attempted} failed={failed}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]['value']:.6g} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must lie in [1, 60]")

    build(["eb_workloads", "eb_trace", "eb_replay"] if args.trace else ["eb_workloads"])
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    scratch = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        untraced = run_program("eb_workloads", common + ["--dir", str(scratch)])
        if args.trace:
            trace_dir = BUILD / "trace" / args.workload
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = run_program("eb_trace", common + ["--dir", str(trace_dir)])
            replay = run_program("eb_replay", common + ["--dir", str(trace_dir)])
        else:
            probe = common + ["--dir", str(scratch), "--probe", "1"]
            probes = [value(run_program("eb_workloads", probe), "setup_s") for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        reports = (untraced, traced, replay)
        measured = {**traced["metrics"], **replay["metrics"]}
        for cls in ("qe", "timer"):
            explained = measured.pop(f"replay.explained_us.{cls}")["value"]
            measured[f"replay.unexplained.{cls}"] = {
                "value": 1 - explained / value(traced, f"gillespie.us_per_leap.{cls}")}
        # Extra wall time per unit of model time: traced time / untraced time - 1.
        measured["trace.overhead"] = {
            "value": value(untraced, "parallel_time_per_s") / value(traced, "traced.parallel_time_per_s") - 1}
        missing = sorted(set(PER_LAYER) - set(measured))
        if missing:
            fail("the traced run did not measure " + ", ".join(missing))
        same_elections = untraced["facts"]["outcome_digest"] == traced["facts"]["outcome_digest"]
        if not same_elections:
            print("electbench: the traced elections diverged from the untraced ones", file=sys.stderr)
        correct = all(r["correct"] for r in reports) and same_elections
        metrics = {name: {"value": measured[name]["value"], "unit": unit} for name, unit in PER_LAYER.items()}
        units = PER_LAYER
    else:
        reports = (untraced,)
        correct = untraced["correct"]
        metrics = {name: untraced["metrics"][name] for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
        units = END_TO_END

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    shown = dict(metrics)
    if not args.trace:
        # Printed beside the other end-to-end metrics, but left out of the JSON
        # metrics: it reads 0 on every correct run (see NOTES.md).
        shown["failed_frac"] = {"value": failed / attempted}
        units = {**units, "failed_frac": "ratio"}
    print_summary(args, untraced["facts"], attempted, failed, shown, units)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
