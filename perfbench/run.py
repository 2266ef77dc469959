#!/usr/bin/env python3
"""GroupCast benchmark: one workload, one seed, one JSON result.

Builds perfbench/gc_ledger from the repository's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, checks its outputs
and prints every metric by name with its unit.  The last line of standard
output is the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a traced run that also
writes its spans to <build>/spans/<workload>-<seed>.jsonl.

    python3 perfbench/run.py --workload churn_10k --seed 7 --seconds 25 --trace 0

Any failed check prints "CHECK FAILED" with the workload and metric to
standard error and exits with status 1, without a result line.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 7

# Wall seconds one world (set-up + run) takes on the reference machine;
# sizes the number of worlds in a run from --seconds, so the inputs depend
# only on the seed and --seconds, never on how fast the machine is.
NOMINAL_WORLD_S = {
    "churn_10k": 2.0,
    "stream_20k": 4.2,
    "paper_groups_10k": 0.9,
}
MIN_WORLDS = 3
RUN_TIMEOUT_S = 170

# Workload outcomes a traced run reports as per-layer metrics "out.<name>"
# (0 on workloads that do not have them).
OUTCOMES = ("fail_ratio", "attempted", "violations", "epochs_to_converge",
            "startup_ms", "delay_penalty", "link_stress", "overload_index",
            "lookup_ms")


class CheckFailed(Exception):
    def __init__(self, workload, metric, detail):
        super().__init__(f"workload={workload} metric={metric}: {detail}")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def report(*args):
    print(*args, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configures (once) and builds gc_ledger; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    exe = os.path.join(build_dir, "gc_ledger")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return exe


def run_ledger(exe, args, deadline):
    proc = subprocess.run(
        [exe, *args], stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"gc_ledger exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_outcome(workload, label, a, b):
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            raise CheckFailed(workload, name,
                              f"{label}: {a.get(name)!r} != {b.get(name)!r}")


def check_outcome(workload, outcome):
    attempted, failed = outcome["attempted"], outcome["failed"]
    if not attempted >= 1:
        raise CheckFailed(workload, "attempted", f"{attempted} < 1")
    if not 0 <= failed <= attempted:
        raise CheckFailed(workload, "failed",
                          f"{failed} outside [0, attempted={attempted}]")
    for name, value in outcome.items():
        if value is None or not math.isfinite(value) or value < 0:
            raise CheckFailed(workload, name, f"invalid value {value!r}")
    if not 0.0 <= outcome["fail_ratio"] <= 1.0:
        raise CheckFailed(workload, "fail_ratio", "outside [0, 1]")
    for name in ("msgs_per_peer", "events"):
        if outcome[name] <= 0:
            raise CheckFailed(workload, name, "no work was simulated")


def untraced_metrics(workload, data, worlds):
    reps = data["reps"]
    probe = data["probe"]
    if len(reps) != worlds:
        raise CheckFailed(workload, "worlds",
                          f"ran {len(reps)} worlds, asked for {worlds}")
    same_outcome(workload, "same-seed repetition",
                 probe[0]["outcome"], probe[1]["outcome"])
    for rep in [*probe, *reps]:
        check_outcome(workload, rep["outcome"])

    report(f"{workload}: {len(reps)} worlds (+ a tenth-size world run twice "
           f"for the determinism check)")
    report("  world   setup_s    run_s  rss_mb  msgs/peer  fail_ratio  attempted")
    for i, rep in enumerate(reps):
        o = rep["outcome"]
        report(f"  {i:5d} {rep['setup_s']:9.3f} {rep['run_s']:8.3f} "
               f"{rep['rss_mb']:7.1f} {o['msgs_per_peer']:10.2f} "
               f"{o['fail_ratio']:11.5f} {o['attempted']:10.0f}")
    outcomes = [r["outcome"] for r in reps]
    for name in OUTCOMES:
        if name != "attempted" and name in outcomes[0]:
            report(f"  median {name} = "
                   f"{statistics.median(o[name] for o in outcomes):.6g}")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "msgs_per_peer": statistics.median(o["msgs_per_peer"]
                                           for o in outcomes),
    }, len(probe) + len(reps)


def traced_metrics(workload, data):
    for rep in (data["reference"], data["traced"]):
        check_outcome(workload, rep["outcome"])
    same_outcome(workload, "traced vs untraced",
                 data["reference"]["outcome"], data["traced"]["outcome"])
    world = data["world_check"]
    if world["routers"] != world["ref_routers"]:
        raise CheckFailed(workload, "net.routers",
                          f"layered {world['routers']} != make_snapshot "
                          f"{world['ref_routers']}")
    if world["edges"] + 2 * world["ref_repair_edges"] != world["ref_edges"]:
        raise CheckFailed(workload, "overlay.edges",
                          f"layered {world['edges']} (+2 x "
                          f"{world['ref_repair_edges']} repairs) != "
                          f"make_snapshot {world['ref_edges']}")

    metrics = dict(data["layers"])
    for name in ("setup", "net.underlay", "net.routing", "coords.embed",
                 "overlay.bootstrap", "overlay.join", "run", "core.fork",
                 "core.run", "core.establish", "core.session"):
        metrics[f"span.{name}.self_s"] = data["self_s"].get(name, 0.0)
    outcome = data["traced"]["outcome"]
    for name in OUTCOMES:
        metrics[f"out.{name}"] = outcome.get(name, 0.0)
    report(f"{workload}: traced run, {data['spans']:.0f} spans; "
           f"untraced setup {data['reference']['setup_s']:.3f} s, "
           f"run {data['reference']['run_s']:.3f} s; traced setup "
           f"{data['traced']['setup_s']:.3f} s, run "
           f"{data['traced']['run_s']:.3f} s")
    return metrics, 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_WORLD_S))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smoke-test knob: shrinks every world (1 = benchmark size).
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    start = time.monotonic()

    spec = load_spec()
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_root)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    ledger_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                   f"--scale={args.scale}"]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")
        ledger_args += ["--trace=1", f"--spans_out={spans}"]
        declared = spec["per_layer"]
    else:
        worlds = max(MIN_WORLDS,
                     int(args.seconds // NOMINAL_WORLD_S[args.workload]))
        ledger_args += ["--trace=0", f"--deployments={worlds}"]
        declared = spec["end_to_end"]

    data = run_ledger(exe, ledger_args, deadline)
    if args.trace:
        values, attempted = traced_metrics(args.workload, data)
        report(f"  spans written to {spans}")
    else:
        values, attempted = untraced_metrics(args.workload, data, worlds)

    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            raise CheckFailed(args.workload, name, "not measured")
        value = values[name]
        if not math.isfinite(value):
            raise CheckFailed(args.workload, name, f"invalid value {value}")
        if not args.trace and value <= 0:
            raise CheckFailed(args.workload, name, f"{value} is not > 0")
        metrics[name] = {"value": value, "unit": entry["unit"]}
        report(f"  {name:32s} {value:16.6f} {entry['unit']}")
    report(f"  wall {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except CheckFailed as failure:
        log(f"CHECK FAILED {failure}")
        sys.exit(1)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {type(error).__name__}: {error}")
        sys.exit(1)
