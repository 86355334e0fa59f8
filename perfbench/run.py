#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source and runs one
workload (or all three), checks its outputs and prints every metric.

    python3 perfbench/run.py --workload gesture_paced --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload page_load --seed 1 --seconds 10 --trace 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The exit
code is 0 only when every correctness check and effect witness passed.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mfbench"
WORKLOADS = ("gesture_paced", "frontdoor_burst", "page_load")
# A run takes its run length plus set-up (under 15 s) and reporting.
SETUP_MARGIN_S = 90


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds mfbench; make skips work that is up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_log = BUILD_DIR / "build.log"
        with open(build_log, "a") as out:
            steps = []
            if not (BUILD_DIR / "CMakeCache.txt").is_file():
                steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "mfbench",
                          "-j", str(os.cpu_count() or 1)])
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                    raise RuntimeError(f"build failed, see {build_log}")


def run_workload(workload, seed, seconds, trace, max_workers=None, inject_core_us=0):
    """Runs mfbench once and returns its report (a dict).

    max_workers caps the workload's worker threads; inject_core_us busy-waits
    in the benchmark's wrapper around Middleware::on_gesture (gesture_paced
    only). Both exist for perfbench/selftest.py."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(ROOT / ".bench_build" / f"trace_{workload}_{seed}.json")]
    if max_workers:
        cmd += ["--max-workers", str(max_workers)]
    if inject_core_us:
        cmd += ["--inject-core-us", str(inject_core_us)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=2 * seconds + SETUP_MARGIN_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: mfbench exited {proc.returncode} without a report")
    return json.loads(lines[-1])


def fingerprint_check(report, seed):
    """Compares the decision fingerprint with the one recorded for the seed."""
    if report["fingerprint"] is None:
        return None
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    expected = recorded.get(report["workload"], {}).get(str(seed))
    if expected is None:
        report["notes"].append(
            f"no fingerprint recorded for seed {seed}; {report['fingerprint']} not compared")
        return None
    return expected == report["fingerprint"]


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report, trace, fp_ok):
    w = report["workload"]
    host = report["host"]
    print(f"== {w}")
    print(f"host: nproc {host['nproc']}, affinity {host['affinity']}, "
          f"loadavg {host['loadavg_start']} -> {host['loadavg_end']}, "
          f"invalid phases {report['invalid_phases']}")
    for note in report["notes"]:
        print(f"  {note}")
    for name, ok in report["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    if fp_ok is not None:
        print(f"  check {'ok  ' if fp_ok else 'FAIL'} decision fingerprint "
              f"{report['fingerprint']} equals the recorded value")
    sections = [("end-to-end", report["e2e"]), ("workload detail", report["detail"])]
    if trace:
        sections.append(("per-layer", report["layer"]))
    for title, metrics in sections:
        print(f"  {title}:")
        for name, m in sorted(metrics.items()):
            print(f"    {name:34s} {fmt(m['value']):>14s} {m['unit']}")


def result_metrics(report, trace, spec):
    """The metrics of the final line: exactly the ones BENCHMARK.json names.
    A per-layer metric of a layer this workload does not run reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layer"] if trace else report["e2e"]
    out = {}
    for m in wanted:
        value = source.get(m["name"], {}).get("value", 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for w in workloads:
            started = time.monotonic()
            report = run_workload(w, args.seed, seconds, args.trace)
            fp_ok = fingerprint_check(report, args.seed)
            correct = report["correct"] and fp_ok is not False
            print_report(report, args.trace, fp_ok)
            print(f"  wall {time.monotonic() - started:.1f} s, "
                  f"{'correct' if correct else 'INCORRECT'}")
            results.append((w, report, correct))
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 3

    if len(results) == 1:
        _, report, correct = results[0]
        metrics = result_metrics(report, args.trace, spec)
    else:
        metrics = {f"{w}.{k}": v for w, r, _ in results
                   for k, v in result_metrics(r, args.trace, spec).items()}
        correct = all(c for _, _, c in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for _, r, _ in results),
        "failed": sum(r["failed"] for _, r, _ in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
