#!/usr/bin/env python3
"""ORBIT repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the orbit libraries
(Release) and the `orbit_perfbench` binary under `.bench_build/`; later calls
rebuild incrementally. The binary's raw result is turned into the named
metrics here. The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with every end-to-end metric under --trace 0 and every per-layer metric under
--trace 1. The line before it is the full record: machine context, every
output check, and the metrics. See perfbench/BENCHMARK.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train_serial", "train_hs", "serve", "relaunch")

# name -> unit; the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "loss_wmse": "wmse",
}
PER_LAYER = {
    "kernels.gemm_nn.gflops": "GFLOP/s",
    "kernels.gemm_nt.gflops": "GFLOP/s",
    "kernels.gemm_tn.gflops": "GFLOP/s",
    "kernels.q8_nt.gflops": "GFLOP/s",
    **{
        f"model.{layer}.{what}": unit
        for layer in ("patch_embed", "aggregation", "pos_lead", "block",
                      "attention", "mlp", "head")
        for what, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("gflops", "GFLOP/s"))
        if not (layer == "pos_lead" and what == "gflops")
    },
    "data.batch_ms": "ms",
    "train.loss_ms": "ms",
    "train.clip_ms": "ms",
    "train.optimizer_ms": "ms",
    **{
        f"core.{phase}_ms.{agg}": "ms"
        for phase in ("forward", "backward", "sync_grads", "optimizer")
        for agg in ("max", "mean")
    },
    "core.rank_skew": "share",
    "comm.bytes_per_step.tp": "B",
    "comm.bytes_per_step.fsdp": "B",
    "comm.ops_per_step": "count",
    "comm.exposed_fraction": "share",
    "comm.all_gather.fsdp_us": "us",
    "comm.reduce_scatter.fsdp_us": "us",
    "comm.all_reduce.tp_us": "us",
    "comm.launch_ms": "ms",
    "core.construct_ms": "ms",
    "core.resume_ms": "ms",
    "core.checkpoint_ms": "ms",
    "core.checkpoint_bytes": "B",
    "trace.rss_per_launch_mb": "MB",
    "serve.latency_p99_ms": "ms",
    "serve.queue_p50_ms": "ms",
    "serve.queue_p99_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.mean_batch": "count",
    "serve.forward_b1_ms": "ms",
    "serve.forward_b8_ms": "ms",
    "serve.generator_late_ms": "ms",
    "serve.backlog": "count",
    "trace.overhead_share": "share",
}

# relaunch leaks a trace ring per rank thread per launch (about 14 MB a
# launch), so it runs in rounds of the binary's fixed launch count, each in
# a fresh process, until the measuring time is used up.
MIN_ROUNDS = 2
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sh(cmd, log):
    log.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    """Configure and build the orbit libraries, then the benchmark binary."""
    if not (ROOT / "src" / "orbit.hpp").is_file() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no orbit sources at {ROOT}; run from a checkout of the repository", 2)
    libs = sorted({
        m for f in (ROOT / "src").glob("*/CMakeLists.txt")
        for m in re.findall(r"add_library\(\s*(orbit_\w+)", f.read_text())
    })
    if not libs:
        fail("no orbit_* library targets under src/", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir, bench_dir = BUILD / "orbit", BUILD / "bench"
    steps = []
    if not (lib_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DORBIT_BUILD_TESTS=OFF", "-DORBIT_BUILD_BENCH=OFF",
                      "-DORBIT_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", lib_dir, "-j", jobs, "--target", *libs])
    if not (bench_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DORBIT_BUILD_DIR={lib_dir}", f"-DORBIT_ROOT={ROOT}"])
    steps.append(["cmake", "--build", bench_dir, "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "wb") as log:
        for cmd in steps:
            if sh(cmd, log) != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log_path}")
    return bench_dir / "orbit_perfbench"


def drive(binary, workload, seed, seconds, trace, scratch):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scratch", str(scratch)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"{workload} seed {seed} exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def run_rounds(binary, args, scratch):
    """The raw results of one run: one binary call, or relaunch's rounds."""
    if args.workload != "relaunch":
        return [drive(binary, args.workload, args.seed, args.seconds, args.trace, scratch)]
    # Untraced rounds fill the measuring time (half of it when tracing);
    # a traced run ends with one traced round for the per-layer metrics.
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds, start = [], time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < budget:
        rounds.append(drive(binary, "relaunch", args.seed, args.seconds, 0,
                            scratch / f"round{len(rounds)}"))
    if args.trace:
        rounds.append(drive(binary, "relaunch", args.seed, args.seconds, 1,
                            scratch / "traced"))
    return rounds


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload, rounds):
    ops = [x for r in rounds for x in r["op_ms"]]
    items = sum(r["items"] for r in rounds)
    p50 = quantile(ops, 0.50) if ops else None
    if workload == "serve":
        # Open loop: requests overlap, so throughput is completions over the
        # time from the first due time to the last completion.
        busy = sum(r["busy_s"] for r in rounds)
        ops_per_s = items / busy if busy > 0 else None
    else:
        # Operations run one after another: throughput at the median
        # operation, which a few operations stalled by the host cannot drag.
        ops_per_s = items / len(ops) * 1e3 / p50 if p50 else None
    return {
        "setup_s": statistics.median(x for r in rounds for x in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "ops_per_s": ops_per_s,
        "p50_ms": p50,
        "loss_wmse": statistics.median(r["loss"] for r in rounds),
    }


def cpu_ticks():
    """(steal, total) CPU ticks so far, from /proc/stat; zeros if unreadable."""
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def machine_context(raw, ticks0, ticks1):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            sha = p.stdout.strip()
    total = ticks1[1] - ticks0[1]
    # Time the hypervisor gave this machine's CPUs to others during the run:
    # the main source of run-to-run noise on a shared host.
    steal = (ticks1[0] - ticks0[0]) / total if total > 0 else None
    ctx = {"cpu": cpu, "nproc": os.cpu_count(), "git_sha": sha, "cpu_steal_share": steal}
    ctx.update(raw.get("context", {}))
    ctx["orbit_env"] = {k: v for k, v in sorted(os.environ.items()) if k.startswith("ORBIT_")}
    return ctx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    scratch = BUILD / "scratch" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    ticks0 = cpu_ticks()
    try:
        rounds = run_rounds(binary, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ticks1 = cpu_ticks()

    checks = {}
    for i, r in enumerate(rounds):
        for name, ok in r["checks"].items():
            key = name if len(rounds) == 1 else f"round{i}.{name}"
            checks[key] = ok
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values, units = rounds[-1]["layer"], PER_LAYER
    else:
        values, units = end_to_end(args.workload, rounds), END_TO_END
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in units.items() if values.get(k) is not None}
    missing = sorted(set(units) - set(metrics))
    checks["all_metrics_reported"] = not missing
    correct = all(checks.values()) and failed == 0 and attempted > 0

    record = {
        "workload": args.workload, "model": rounds[-1]["model"],
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": machine_context(rounds[-1], ticks0, ticks1),
        "checks": checks, "missing_metrics": missing,
        "notes": {k: v for r in rounds for k, v in r["notes"].items()},
        "rounds": len(rounds), "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
