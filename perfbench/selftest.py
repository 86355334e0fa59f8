#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. Sensitivity: a fixed busy-wait injected into the benchmark's wrapper
   around Middleware::on_gesture (mfbench --inject-core-us) must show in the
   core layer's per-layer metric, which moves by about the delay, and in the
   predicted end-to-end metrics, throughput and service latency on
   gesture_paced. The other workloads cannot move: the wrapper exists only in
   gesture_paced, and mfbench refuses the delay for any other workload, which
   this test also checks.
2. Determinism: the decision fingerprints of gesture_paced and page_load are
   the same at another run length (so at other phase rates and counts) and
   with one worker thread instead of the default, and equal the recorded
   value when the seed has one.

Exits 0 when every test passes. Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
DELAY_US = 150.0
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def value(report, section, name):
    return report[section][name]["value"]


def sensitivity():
    base_t = run.run_workload("gesture_paced", SEED, 6, trace=True)
    slow_t = run.run_workload("gesture_paced", SEED, 6, trace=True, inject_core_us=DELAY_US)
    moved = (value(slow_t, "layer", "core.on_gesture_us.p50") -
             value(base_t, "layer", "core.on_gesture_us.p50"))
    expect(0.8 * DELAY_US <= moved <= 1.5 * DELAY_US + 50,
           f"core.on_gesture_us.p50 moves by the injected {DELAY_US:g} us (moved {moved:.1f})")
    self_moved = (value(slow_t, "layer", "gesture.on_touch_self_us.p50") -
                  value(base_t, "layer", "gesture.on_touch_self_us.p50"))
    expect(abs(self_moved) < 0.2 * DELAY_US,
           f"gesture self time excludes the child span (moved {self_moved:.1f} us)")

    base = run.run_workload("gesture_paced", SEED, 6, trace=False)
    slow = run.run_workload("gesture_paced", SEED, 6, trace=False, inject_core_us=DELAY_US)
    thr = value(slow, "e2e", "throughput_ops_s") / value(base, "e2e", "throughput_ops_s")
    expect(thr < 0.8, f"gesture_paced throughput_ops_s drops (ratio {thr:.2f})")
    lat = value(slow, "e2e", "latency_p50_ms") - value(base, "e2e", "latency_p50_ms")
    expect(lat > 0.8 * DELAY_US / 1e3,
           f"gesture_paced latency_p50_ms rises by at least the delay (+{lat:.3f} ms)")

    for workload in ("frontdoor_burst", "page_load"):
        proc = subprocess.run(
            [str(run.BINARY), "--workload", workload, "--seed", str(SEED), "--seconds", "1",
             "--trace", "0", "--inject-core-us", str(DELAY_US)],
            capture_output=True, text=True, timeout=60)
        expect(proc.returncode == 2 and not proc.stdout,
               f"{workload} refuses the core delay (it has no core wrapper)")


def determinism():
    recorded = json.loads((run.HERE / "fingerprints.json").read_text())
    for workload, short, long_ in (("gesture_paced", 2, 5), ("page_load", 1, 3)):
        a = run.run_workload(workload, SEED, short, trace=False)
        b = run.run_workload(workload, SEED, long_, trace=False, max_workers=1)
        expect(a["fingerprint"] == b["fingerprint"],
               f"{workload} fingerprint equal at {short} s / default threads and "
               f"{long_} s / one thread ({a['fingerprint']} vs {b['fingerprint']})")
        expect(a["correct"] and b["correct"], f"{workload} checks pass in both runs")
        want = recorded.get(workload, {}).get(str(SEED))
        if want is not None:
            expect(a["fingerprint"] == want, f"{workload} fingerprint equals the recorded one")


def main():
    run.build()
    sensitivity()
    determinism()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
