"""Self-test of the benchmark.  Run from the root of a probsyll checkout:

    python3 perfbench/selftest.py

For each workload, at a tiny size, it runs `perfbench/run.py` untraced and
traced and checks that the result line names exactly the metrics of
BENCHMARK.json with their units, and that every answer was right.  It then
checks that a deliberately wrong oracle value is counted as a failure and
makes the command exit 1, and that the command fails without printing a
result in a directory that holds only the benchmark.  Exit code 0 means
every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "0.2"  # runs still go on to MIN_SAMPLES ops: up to about 10 s each


def _run(workload, trace, *extra, cwd=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            errors.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}"
                   + (f"\n{proc.stderr}" if proc.returncode else ""))
            if proc.returncode:
                continue
            result = _result(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metric names and units")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: {result['failed']} of {result['attempted']} ops failed")
            expect("failed_ratio 0)" in proc.stdout, f"{label}: failed_ratio printed as 0")
            if trace:
                layers = result["metrics"]
                eps = layers["simplex.eps_lp_calls"]["value"]
                expect((eps > 0) == (workload == "cli_boxes"),
                       f"{label}: simplex.eps_lp_calls = {eps}")

        proc = _run(workload, 0, "--corrupt-oracle")
        label = f"{workload} --corrupt-oracle"
        expect(proc.returncode == 1, f"{label}: exit code {proc.returncode}")
        if proc.stdout.strip():
            result = _result(proc)
            expect(result["failed"] == 1 and not result["correct"],
                   f"{label}: failed = {result['failed']}, correct = {result['correct']}")
            expect("failed_ratio 0)" not in proc.stdout, f"{label}: failed_ratio above 0")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = _run("propagate", 0, cwd=bare)
        expect(proc.returncode not in (0, None) and not proc.stdout.strip(),
               f"bare directory: exit code {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare)

    print(f"{len(errors)} failed checks" if errors else "all checks passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
