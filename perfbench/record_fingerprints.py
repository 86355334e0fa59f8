#!/usr/bin/env python3
"""Records the decision fingerprints of gesture_paced and page_load for a
range of seeds into perfbench/fingerprints.json.

    python3 perfbench/record_fingerprints.py 0 63

A fingerprint depends only on the seed and the workload constants in the
sources, not on the run length, the rates or the thread count, so short
runs record it. Re-record only when the program's decisions are meant to
change, and say so in the change.
"""

import json
import sys

import run

SECONDS = {"gesture_paced": 2, "page_load": 1}


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    run.build()
    path = run.HERE / "fingerprints.json"
    recorded = json.loads(path.read_text())
    for workload, seconds in SECONDS.items():
        for seed in range(first, last + 1):
            report = run.run_workload(workload, seed, seconds, trace=False)
            if not report["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed, not recorded")
            recorded.setdefault(workload, {})[str(seed)] = report["fingerprint"]
            print(workload, seed, report["fingerprint"], flush=True)
    for workload in recorded:
        recorded[workload] = dict(sorted(recorded[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
