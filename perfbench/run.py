#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Each invocation runs its workload in
PROCESSES fresh processes, one after the other, each measuring for an equal
share of --seconds; every metric is the median of the processes' values, so
no one process's memory layout or bad moment on the host sets it. The last
line of standard output is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json when --trace 0 and
its per-layer metrics when --trace 1.

--selftest plants a wrong SP answer in every workload and checks that the
correctness gate reports it (fail_frac > 0, correct false).
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 5
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return spec


def build():
    """Configures once, then builds incrementally; a lock keeps concurrent
    invocations from building over each other."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            try:
                subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                               timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build failed: {e}")
    return bdir / "perfbench"


def run_process(exe, workload, seed, seconds, trace, planted, deadline):
    """Runs one measuring process; returns (stdout lines, parsed result)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if planted:
        cmd.append("--plant-wrong-answer")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    return lines, result


def merge(results):
    """One result from the processes' results: each metric is the median of
    their values, and the checks of all of them add up."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    if "fail_frac" in metrics:
        metrics["fail_frac"]["value"] = failed / attempted if attempted else 1.0
    correct = (all(r["correct"] for r in results) and attempted > 0
               and failed == 0)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(spec, exe, workload, seed, seconds, trace, planted=False):
    """Runs PROCESSES measuring processes of the workload; returns their
    info lines and the merged result."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    infos, results = [], []
    for _ in range(PROCESSES):
        lines, result = run_process(exe, workload, seed, seconds / PROCESSES,
                                    trace, planted, deadline)
        check_result(spec, result, trace)
        infos.extend(lines[:-1])
        results.append(result)
    return infos, merge(results)


def check_result(spec, result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names, with
    the same units."""
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")


def selftest(spec, exe):
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        _, result = run_workload(spec, exe, name, seed=1, seconds=3, trace=1,
                                 planted=True)
        frac = result["metrics"]["fail_frac"]["value"]
        caught = (result["correct"] is False and result["failed"] > 0
                  and frac > 0)
        print(f"{name}: planted wrong answer -> correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"fail_frac={frac:.4g} {'CAUGHT' if caught else 'MISSED'}")
        ok = ok and caught
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    exe = build()
    if args.selftest:
        return selftest(spec, exe)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    infos, result = run_workload(spec, exe, args.workload, args.seed, seconds,
                                 args.trace)
    print("\n".join(infos + [json.dumps(result)]), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
