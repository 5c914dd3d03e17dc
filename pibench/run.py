#!/usr/bin/env python3
"""Private-inference serving benchmark.

Builds the pibench binary from this checkout's sources, runs one workload
(or, with --workload all, each in turn) and prints every metric by name with
its unit.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 pibench/run.py --workload poly-batch --seed 1 --seconds 25 --trace 0
    python3 pibench/run.py --workload all --seed 1 --seconds 25 --trace 0

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, derived partly from the
binary's counters and partly from the Chrome trace it exports, whose span
self times are computed here.  See pibench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("relu-tcp-dealer", "poly-batch", "relu-tcp-otext")
# Op kinds reported one by one; every other executor op span is summed
# into ir.op_self_ms.other.
OP_KINDS = ("conv", "linear", "add", "relu", "maxpool", "x2act", "avgpool")
# Executor spans that are not ops.
IR_PHASES = ("execute_batch", "flush_group", "reveal_logits")
# Op self times plus flush plus reveal must cover this share of execute_batch.
ATTRIBUTION_TOLERANCE = 0.05
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pibench")


def die(msg):
    """Exits 2 without printing a result."""
    print("pibench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the binary; returns its path.  Exits 2 when the
    repository sources are not there or the build fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the repository sources (CMakeLists.txt, src/) are missing")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "pibench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out, "pibench")


def self_times(events):
    """Returns (event, self_us) for every complete ("X") event.  A span's
    self time is its duration minus the durations of the spans directly
    nested in it on the same thread, so a parent never counts the time of
    work its children already account for."""
    threads = defaultdict(list)
    for i, e in enumerate(events):
        if e.get("ph") == "X":
            threads[(e.get("pid"), e.get("tid"))].append((i, e))
    out = []
    for evs in threads.values():
        # Parents sort before their children: earlier start, then longer
        # duration, then (for identical intervals) later recording, since a
        # span is recorded when it closes and a child closes first.
        evs.sort(key=lambda ie: (ie[1]["ts"], -ie[1]["dur"], -ie[0]))
        stack = []  # [event, end, nested_us]

        def close(entry):
            out.append((entry[0], entry[0]["dur"] - entry[2]))

        for _, e in evs:
            end = e["ts"] + e["dur"]
            while stack and end > stack[-1][1]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e, end, 0])
        while stack:
            close(stack.pop())
    return out


def trace_metrics(trace_path, queries, query_ms):
    """Per-layer metrics computed from the exported Chrome trace, and the
    attribution check: op self times + flush + reveal against execute."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    q = max(queries, 1)
    ms = defaultdict(float)  # keyed by (cat, name, "self" | "total"), in ms
    for e, self_us in self_times(events):
        key = (e.get("cat"), e.get("name"))
        ms[key + ("self",)] += self_us / 1e3
        ms[key + ("total",)] += e["dur"] / 1e3
    execute = ms[("ir", "execute_batch", "total")]
    flush = ms[("ir", "flush_group", "total")]
    reveal = ms[("ir", "reveal_logits", "total")]
    op_self = {}
    for (cat, name, kind), v in ms.items():
        if cat == "ir" and kind == "self" and name not in IR_PHASES:
            bucket = name if name in OP_KINDS else "other"
            op_self[bucket] = op_self.get(bucket, 0.0) + v
    attributed = sum(op_self.values()) + flush + reveal
    share = attributed / execute if execute > 0 else 0.0
    ot_ext = ms[("offline", "ot_ext_generate", "total")] / q
    metrics = {
        "crypto.round_ms_per_query": (ms[("crypto", "round", "self")] / q, "ms"),
        "ir.execute_ms_per_query": (execute / q, "ms"),
        "ir.flush_ms_per_query": (flush / q, "ms"),
        "ir.reveal_ms_per_query": (reveal / q, "ms"),
    }
    for kind in OP_KINDS + ("other",):
        metrics["ir.op_self_ms." + kind] = (op_self.get(kind, 0.0) / q, "ms")
    metrics["ir.attributed_share"] = (share, "ratio")
    metrics["offline.ot_ext_ms_per_query"] = (ot_ext, "ms")
    metrics["offline.ot_ext_share"] = (ot_ext / query_ms if query_ms > 0 else 0.0, "ratio")
    ok = abs(1.0 - share) <= ATTRIBUTION_TOLERANCE
    if not ok:
        print(f"attribution check failed: op self + flush + reveal = {attributed:.3f} ms "
              f"vs execute_batch {execute:.3f} ms", file=sys.stderr)
    return metrics, ok


def source_identity():
    """Git commit when available (a plain checkout has none) and a digest of
    the C++ sources and build files the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "pibench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for p in files:
            if not p.endswith((".cpp", ".hpp", ".h", "CMakeLists.txt")):
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def run_workload(binary, workload, args):
    """Runs one workload, prints its metrics by name and unit, and returns
    its result (the object the last output line carries)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(results, tag + ".trace.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path, "--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"pibench printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    metrics = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
    correct = bool(raw["correct"]) and proc.returncode == 0
    env = raw["env"]
    if args.trace:
        extra, attributed = trace_metrics(trace_path, env["traced_queries"],
                                          env["traced_query_ms_mean"])
        metrics.update(extra)
        correct = correct and attributed
    env["git_sha"], env["source_digest"] = source_identity()
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload:16s} {name:36s} {value:16.6f} {unit}")

    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(dict(result, env=env), f, indent=1, sort_keys=True)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Benchmark self-test only: a deliberately wrong reference (selftest.py).
    ap.add_argument("--fault", default="none", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    binary = build()
    if args.workload != "all":
        result = run_workload(binary, args.workload, args)
    else:
        # Every workload in turn; the result prefixes metric names with the
        # workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            r = run_workload(binary, workload, args)
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["metrics"].update({f"{workload}/{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
