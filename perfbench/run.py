"""probsyll benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 40 --trace 0

Run it from the root of a probsyll checkout (it imports `./src/probsyll`).
With `--trace 0` it starts SETUP_PROBES set-up-only processes and one
measuring process, and reports the end-to-end metrics; with `--trace 1` it
runs the workload for half of `--seconds` untraced and half traced, each in
a fresh process, and reports the per-layer metrics.  Op times are scaled by
an off-clock load probe (see worker.py and README.md); set-up time is not.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it are for
people.  The exit code is 0 when every answer agreed with its oracle, 1 when
one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import MIN_SAMPLES, REF_PROBE_MS  # noqa: E402  (stdlib only at import)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6  # set-up-only processes; with the measuring one, 7 samples
BUDGET_S = 170  # the whole command, so it ends within 180 s
CHECK_S = 25  # wall time kept for a worker's oracle checks after its timed loop

END_TO_END = (
    ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _worker(args, deadline, seconds, *extra):
    """Run worker.py in a fresh process; its JSON result, set-up time added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--out", os.path.join(HERE, "out"), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def _measure(args, deadline, seconds, trace, share=1):
    """A measuring worker that uses at most `share` of the budget left, checks included."""
    stop_after = (deadline - time.monotonic()) * share - CHECK_S
    result = _worker(args, deadline, seconds, "--trace", str(trace),
                     "--stop-after", str(max(1.0, stop_after)),
                     *(["--corrupt-oracle"] if args.corrupt_oracle else []))
    if result["ops"] < MIN_SAMPLES:
        raise BenchError(f"only {result['ops']} ops before the time budget ran out; "
                         f"the percentiles need {MIN_SAMPLES}")
    return result


def _report_run(label, result):
    print(f"{label}: {result['ops']} ops in {result['busy_s']:.2f} s of op time, "
          f"failed {result['failed']}/{result['ops']} "
          f"(failed_ratio {result['failed'] / result['ops']:.4g})")
    print("  load probe min/median/max " + "/".join(f"{ms:.2f}" for ms in result["probe_ms"])
          + f" ms; times below are scaled to a {REF_PROBE_MS} ms probe")
    print("  unscaled: " + ", ".join(f"{name} {value:.6g}"
                                     for name, value in result["raw"].items()))
    print(f"  inputs_digest  {result['inputs_digest']}  (first {result['digest_ops']} ops)")
    print(f"  outputs_digest {result['outputs_digest']}")
    for problem in result["failures"]:
        print("  FAILED " + problem.replace("\n", "\n    "))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="operation time to measure, per measuring process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="self-test only: compare the first answer with a wrong value")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join("src", "probsyll", "__init__.py")):
        print("error: run from the root of a probsyll checkout (no src/probsyll here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    try:
        if args.trace:
            # Half of --seconds each, so a traced run takes as long as an untraced one.
            plain = _measure(args, deadline, args.seconds / 2, 0, share=0.5)
            traced = _measure(args, deadline, args.seconds / 2, 1)
            runs = [("untraced", plain), ("traced", traced)]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (traced["ops_per_s"] / plain["ops_per_s"],
                                               "ratio")
        else:
            setups = [_worker(args, deadline, args.seconds, "--setup-only")
                      for _ in range(SETUP_PROBES)]
            result = _measure(args, deadline, args.seconds, 0)
            runs = [("measured", result)]
            setups.append(dict(result))
            result["setup_s"] = statistics.median(r["setup_s"] for r in setups)
            metrics = {name: (result[name], unit) for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for label, result in runs:
        _report_run(label, result)
    if args.trace:
        print(f"  spans: {traced['spans']} in {traced['spans_file']}")
    else:
        print("  setup_s samples: " + ", ".join(f"{r['setup_s']:.4f}" for r in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    attempted = sum(r["ops"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
