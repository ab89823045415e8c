#!/usr/bin/env python3
"""Host-cost benchmark for the DeepServe simulator.

Builds the simulator libraries and the replay program from source, replays
one named workload for a fixed wall-clock budget, checks the simulated
outputs, and prints every metric by name with its unit. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 perfbench/run.py --workload coloc_shared_long --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics from untraced replays. --trace 1
alternates untraced and traced replays and reports the per-layer metrics
from the traced ones, plus trace.overhead (traced over untraced host time
per request). Each replay runs in its own process, so set-up time and memory
are measured fresh every time. A seed's inputs are one or more independent
traces (PARTS); every figure is the mean over the parts of the part's median
over its replays. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
BINARY_NAME = "ds_perfbench"
# One seed's inputs are PARTS[workload] independent traces: part j replays
# the trace generated from seed * SEED_STRIDE + j. Simulated metrics are
# averaged over the parts, because on the smaller workloads which prefixes
# happen to collide on which TE makes tail latency vary from trace to trace
# far more than replaying a longer trace would average out.
PARTS = {"coloc_shared_long": 2, "pd_codegen_kv": 12, "frontend_chaos": 4}
SEED_STRIDE = 16

# Every replay process times a fixed host-speed probe (ProbeSeconds in
# perfbench.cc) before set-up and after the replay. host_us_per_req and
# setup_s are wall times scaled to a host on which the probe takes
# PROBE_REF_S (one vCPU of a shared 4-vCPU VM at a quiet time): a shared host
# that runs slower for minutes then does not read as a slower simulator.
PROBE_REF_S = 0.02

# Metrics run.py derives from a replay's raw outputs.
DERIVED = {
    "host_us_per_req": lambda r: r["wall_us_per_req"] * PROBE_REF_S / r["probe_s"],
    "setup_s": lambda r: r["wall_setup_s"] * PROBE_REF_S / r["probe_s"],
    "host.wall_us_per_req": lambda r: r["wall_us_per_req"],
    "host.probe_ms": lambda r: r["probe_s"] * 1e3,
}

# (name, unit). Host-time metrics cost the simulator; sim_* metrics are what
# the modelled cluster sees and repeat exactly for a fixed seed.
END_TO_END = [
    ("host_us_per_req", "us"),
    ("setup_s", "s"),
    ("run_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_tpot_p50_ms", "ms"),
    ("sim_tpot_p99_ms", "ms"),
    ("sim_slo_attain", "ratio"),
]

PER_LAYER = [
    ("host.wall_us_per_req", "us"),
    ("host.probe_ms", "ms"),
    ("sim.events_per_req", "count"),
    ("sim.events_per_host_s", "1/s"),
    ("sim.step_ns.p50", "ns"),
    ("sim.step_ns.p99", "ns"),
    ("sim.pending_peak", "count"),
    ("sim.cost_growth", "ratio"),
    ("je.dispatch_ns.p50", "ns"),
    ("je.dispatch_ns.p99", "ns"),
    ("je.dispatch_share", "ratio"),
    ("je.locality_hit_frac", "ratio"),
    ("je.locality_hits", "count"),
    ("je.locality_decisions", "count"),
    ("je.retries", "count"),
    ("je.errors", "count"),
    ("frontend.chat_ns.p50", "ns"),
    ("frontend.chat_ns.p99", "ns"),
    ("frontend.chat_share", "ratio"),
    ("frontend.rejected.no_capacity", "count"),
    ("frontend.rejected.ejected", "count"),
    ("frontend.rejected.deadline", "count"),
    ("frontend.rejected.overload_shed", "count"),
    ("frontend.rejected.unknown_model", "count"),
    ("frontend.hedges", "count"),
    ("frontend.hedge_wins", "count"),
    ("frontend.ejections", "count"),
    ("engine.steps_per_req", "count"),
    ("engine.decode_batch_mean", "count"),
    ("engine.prefill_reuse_frac", "ratio"),
    ("engine.preemptions", "count"),
    ("engine.npu_busy_frac", "ratio"),
    ("rtc.token_hit_frac", "ratio"),
    ("rtc.evicted_blocks", "count"),
    ("rtc.swapped_out_blocks", "count"),
    ("rtc.discarded_blocks", "count"),
    ("rtc.populates", "count"),
    ("rtc.index_nodes", "count"),
    ("distflow.transfers", "count"),
    ("distflow.bytes_per_req", "B"),
    ("distflow.rejected", "count"),
    ("distflow.link_s", "s"),
    ("cm.create_te_ns.p50", "ns"),
    ("cm.detections", "count"),
    ("cm.replacements", "count"),
    ("cm.mttr_ms", "ms"),
    ("cm.lost_requests", "count"),
    ("ctrl.records_per_req", "count"),
    ("ctrl.failovers", "count"),
    ("faults.injected", "count"),
    ("faults.skipped", "count"),
    ("workload.generate_s", "s"),
    ("trace.overhead", "ratio"),
]

# Outputs that must be identical across every replay of one seed, traced or
# not: the fingerprint of per-request times plus everything simulated.
EXACT_KEYS = ["fingerprint", "submitted", "completed", "errored", "rejected",
              "unterminated"] + [n for n, _ in END_TO_END if n.startswith("sim_")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the replay program; returns its path."""
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, BINARY_NAME)


def replay(binary, workload, seed, traced, scale, timeout):
    """Runs one replay in its own process; returns its result object."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--scale=%r" % scale]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(binary, workload, seed, seconds, traced, scale):
    """Replays whole cycles (every part, in every mode) until the budget is
    spent: at least one cycle, and no new cycle that would end more than half
    a cycle past the budget. Returns {(part, traced): [result, ...]}.
    A replay still running 170 s after the start is killed, so the run ends
    within the 180 s a run may take."""
    modes = [False, True] if traced else [False]
    cycle = [(part, mode) for part in range(PARTS[workload]) for mode in modes]
    runs = {key: [] for key in cycle}
    cycle_times = []
    start = time.monotonic()
    while True:
        begin = time.monotonic()
        for part, mode in cycle:
            left = 170 - (time.monotonic() - start)
            runs[(part, mode)].append(
                replay(binary, workload, seed * SEED_STRIDE + part, mode, scale,
                       timeout=max(left, 1)))
        cycle_times.append(time.monotonic() - begin)
        spent = time.monotonic() - start
        if spent + 0.5 * statistics.median(cycle_times) > seconds:
            return runs


def check(runs):
    """Returns the list of correctness problems across all replays."""
    problems = []
    for r in (r for rs in runs.values() for r in rs):
        if r["check_errors"]:
            problems.append("%s seed=%d traced=%d: %s" % (
                r["workload"], r["seed"], r["traced"], r["check_errors"]))
    parts = sorted({part for part, _ in runs})
    for part in parts:
        same_part = runs[(part, False)] + runs.get((part, True), [])
        ref = same_part[0]
        for r in same_part[1:]:
            for key in EXACT_KEYS:
                if r[key] != ref[key]:
                    problems.append("seed=%d: %s differs between replays (traced=%d): "
                                    "%r vs %r" % (r["seed"], key, r["traced"], r[key],
                                                  ref[key]))
    return problems


def aggregate(runs, traced, name):
    """Mean over the parts of each part's median over its replays."""
    parts = sorted({part for part, _ in runs})
    get = DERIVED.get(name, lambda r: r[name])
    return statistics.fmean(
        statistics.median(float(get(r)) for r in runs[(part, traced)])
        for part in parts)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the arrival window (self-tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("need --seed >= 0, --seconds > 0 and 0 < --scale <= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("perfbench: build failed: %s" % err)
        return 1
    try:
        runs = measure(binary, args.workload, args.seed, args.seconds,
                       args.trace == 1, args.scale)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        log("perfbench: replay failed: %s" % err)
        return 1

    problems = check(runs)
    for p in problems:
        log("perfbench: CHECK FAILED: " + p)
    every = [r for rs in runs.values() for r in rs]
    attempted = sum(int(r["submitted"]) for r in every)
    failed = sum(int(r["submitted"] - r["completed"]) for r in every)

    if args.trace == 0:
        table = END_TO_END
        values = {name: aggregate(runs, False, name) for name, _ in END_TO_END}
    else:
        table = PER_LAYER
        # host.* describe the untraced replays; everything else the traced.
        values = {name: aggregate(runs, not name.startswith("host."), name)
                  for name, _ in PER_LAYER if name != "trace.overhead"}
        values["trace.overhead"] = (aggregate(runs, True, "host_us_per_req")
                                    / aggregate(runs, False, "host_us_per_req"))

    parts = sorted({part for part, _ in runs})
    print("perfbench %s seed=%d: %d replays over %d part(s); requests %s; fingerprints %s"
          % (args.workload, args.seed, len(every), len(parts),
             " ".join("%d" % runs[(p, False)][0]["submitted"] for p in parts),
             " ".join(runs[(p, False)][0]["fingerprint"] for p in parts)))
    for name, unit in table:
        print("  %-34s %16.6g %s" % (name, values[name], unit))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
