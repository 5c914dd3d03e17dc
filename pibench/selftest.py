#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 pibench/selftest.py

1. The span self-time computation on hand-built traces.
2. Clean short runs of every workload on two seeds, untraced and traced:
   each must pass the correctness gate (and, traced, the attribution check).
3. Deliberately wrong references (pibench's hidden --fault option): each
   must make the gate fire, i.e. exit 1 with "correct": false and at least
   one failed query.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"
FAULTS = (
    ("relu-tcp-otext", "logits"),
    ("relu-tcp-otext", "peer"),
    ("relu-tcp-otext", "rounds"),
    ("relu-tcp-otext", "bytes"),
    ("relu-tcp-otext", "offline"),
    ("relu-tcp-dealer", "peer"),
    ("poly-batch", "logits"),
    ("poly-batch", "rounds"),
    ("poly-batch", "bytes"),
)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def x(name, ts, dur, tid=1, cat="ir"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "pid": 0, "tid": tid}


def test_self_times():
    events = [
        x("round", 12, 3, cat="crypto"),
        x("flush_group", 11, 6),
        x("conv", 10, 8),        # contains the flush, which contains the round
        x("add", 18, 2),         # sibling starting where conv ends
        x("flush_group", 20, 5),  # trailing flush outside any op
        x("execute_batch", 10, 15),
        x("conv", 10, 4, tid=2),  # another thread: no nesting across threads
        x("flush_group", 30, 0),  # zero-length span
    ]
    got = {(e["name"], e["tid"], e["ts"]): v for e, v in run.self_times(events)}
    want = {("round", 1, 12): 3, ("flush_group", 1, 11): 3, ("conv", 1, 10): 2,
            ("add", 1, 18): 2, ("flush_group", 1, 20): 5, ("execute_batch", 1, 10): 0,
            ("conv", 2, 10): 4, ("flush_group", 1, 30): 0}
    check(got == want, f"self times of nested spans {got}")
    # Identical intervals: the span recorded later (the parent) encloses.
    same = [x("flush_group", 5, 4), x("conv", 5, 4)]
    got = {e["name"]: v for e, v in run.self_times(same)}
    check(got == {"flush_group": 4, "conv": 0}, f"identical intervals {got}")


def bench(workload, seed, trace, fault="none"):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S + 60)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr


def main():
    test_self_times()
    run.build()
    for workload in run.WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                rc, res, err = bench(workload, seed, trace)
                ok = rc == 0 and res is not None and res["correct"] and res["failed"] == 0
                check(ok, f"{workload} seed {seed} trace {trace}: gate passes"
                          + ("" if ok else f" (rc {rc})\n{err[-2000:]}"))
    for workload, fault in FAULTS:
        rc, res, _ = bench(workload, 1, 0, fault)
        ok = rc == 1 and res is not None and not res["correct"] and res["failed"] >= 1
        check(ok, f"{workload} with a wrong {fault} reference: gate fires")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
