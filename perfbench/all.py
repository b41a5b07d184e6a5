"""Run every workload of BENCHMARK.json and print one table.

    python3 perfbench/all.py --seed 1 [--seconds 20] [--trace 0|1|both] [--record FILE]

Run from the root of a probsyll checkout.  Each workload runs through
`perfbench/run.py` in its own processes, one after the other.  `--record`
writes every metric, with the machine it was measured on, as JSON.  The exit
code is the worst exit code of the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--record", help="write all results as JSON to this file")
    args = ap.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    results, worst = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            worst = max(worst, proc.returncode)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} --trace {trace}: exit {proc.returncode}")
            print("\n".join(lines[:-1]) if proc.returncode in (0, 1) else proc.stderr)
            if proc.returncode in (0, 1):
                results.setdefault(workload, {})[f"trace{trace}"] = json.loads(lines[-1])
    if args.record:
        record = {
            "seed": args.seed,
            "seconds": args.seconds,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "results": results,
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
