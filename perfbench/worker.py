"""One workload in one fresh process: set up, run the timed loop, check.

Run from the root of a probsyll checkout; `perfbench/run.py` starts it.  It
imports probsyll from `./src`, makes the workload's first batch of inputs,
then calls one operation after the other (a closed loop with one client)
until `--seconds` of operation time have passed and at least MIN_SAMPLES ops
are done, or `--stop-after` seconds of wall time have passed.  Answers are
checked against the oracles after the loop, outside the timed region.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

MIN_SAMPLES = 100  # ops a run needs, so that p90 has ten samples beyond it
PROBE_EVERY_S = 0.25  # op time between two load probes
REF_PROBE_MS = 3.0  # times are scaled to a machine on which the probe takes this
RSS_OPS = 100  # peak RSS is read after this many ops, whatever the run length
PROBE_TERMS = 500  # about 3 ms of Fraction arithmetic on a quiet machine


def _digest(lines):
    return "sha256:" + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--stop-after", type=float, default=float("inf"),
                    help="wall seconds after which the timed loop stops, however short")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-oracle", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import probsyll
    import probsyll.cli  # noqa: F401  (the cli_boxes workload calls it)
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if not os.path.abspath(probsyll.__file__).startswith(src + os.sep):
        raise SystemExit(f"probsyll was imported from {probsyll.__file__}, not {src}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work_dir = os.path.join(args.out, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, probsyll, work_dir)
    try:
        workload.extend()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_monotonic": ready}))
            return 0
        result = _measure(workload, tracer, args.seconds, ready + args.stop_after)
        result["ready_monotonic"] = ready
        result.update(_check(workload, result.pop("answers"), args.corrupt_oracle))
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans, result["ops"])
            spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            result["spans_file"] = spans_path
            result["spans"] = len(tracer.spans)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


class Raised(str):
    """The traceback of an op that raised, kept in place of its answer."""


def _probe():
    """Time a fixed piece of Fraction arithmetic: how fast the machine is now.

    The machine is shared, and its speed for the same work changes by up to
    2x, for seconds at a time and between runs minutes apart.  The probe
    runs off the clock and is never part of an op.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
    return time.perf_counter() - t0


def _measure(workload, tracer, seconds, stop_at):
    gc.collect()
    latencies, cpu_times, answers = [], [], []
    # probes[k] and probes[k + 1] enclose the ops before ends[k] (and after ends[k - 1]).
    probes, ends = [_probe()], []
    busy = since_probe = 0.0
    rss_kb = None
    while ((busy < seconds or len(latencies) < MIN_SAMPLES)
           and time.monotonic() < stop_at):
        index = len(latencies)
        if index == len(workload.inputs):
            workload.extend()  # between ops, so off the clock
        item = workload.inputs[index]
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.run(item)
            else:
                answer = tracer.op(index, workload.run, item)
        except Exception:
            answer = Raised(traceback.format_exc())
        t1 = time.perf_counter()
        c1 = time.process_time()
        latencies.append(t1 - t0)
        cpu_times.append(c1 - c0)
        busy += t1 - t0
        since_probe += t1 - t0
        answers.append(answer)
        if index + 1 == RSS_OPS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if since_probe >= PROBE_EVERY_S:
            probes.append(_probe())
            ends.append(len(latencies))
            since_probe = 0.0
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not ends or ends[-1] < len(latencies):
        probes.append(_probe())
        ends.append(len(latencies))

    # Each op's times are scaled by REF_PROBE_MS / (the mean of the two
    # probes around it), so they read as on a machine where the probe takes
    # REF_PROBE_MS, whatever the neighbours' load.
    scale, begin = [], 0
    for k, end in enumerate(ends):
        scale += [REF_PROBE_MS * 2e-3 / (probes[k] + probes[k + 1])] * (end - begin)
        begin = end
    lat_ms = [t * f * 1e3 for t, f in zip(latencies, scale)]
    raw_ms = [t * 1e3 for t in latencies]
    return {
        "ops": len(latencies),
        "busy_s": busy,
        "probe_ms": [min(probes) * 1e3, statistics.median(probes) * 1e3, max(probes) * 1e3],
        "ops_per_s": len(lat_ms) * 1e3 / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": _p90(lat_ms),
        "cpu_ms_per_op": sum(c * f for c, f in zip(cpu_times, scale)) * 1e3 / len(lat_ms),
        "peak_rss_mb": rss_kb / 1024,
        "raw": {
            "ops_per_s": len(raw_ms) * 1e3 / sum(raw_ms),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": _p90(raw_ms),
            "cpu_ms_per_op": sum(cpu_times) * 1e3 / len(raw_ms),
        },
        "answers": answers,
    }


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _check(workload, answers, corrupt):
    """Oracle verdicts for every answer and digests of the first ops."""
    failures = []
    for index, answer in enumerate(answers):
        item = workload.inputs[index]
        if isinstance(answer, Raised):
            problem = f"{workload.describe(item)} raised:\n{answer}"
        else:
            problem = workload.check(item, answer, corrupt=corrupt and index == 0)
        if problem:
            failures.append(problem)
    digest_items = workload.inputs[:workload.digest_ops]
    digest_answers = answers[:workload.digest_ops]
    for item in digest_items[len(digest_answers):]:  # the loop stopped early
        try:
            digest_answers.append(workload.run(item))
        except Exception:
            digest_answers.append(Raised(traceback.format_exc()))
    return {
        "failed": len(failures),
        "failures": failures[:5],
        "digest_ops": len(digest_items),
        "inputs_digest": _digest(workload.describe(item) for item in digest_items),
        "outputs_digest": _digest(
            answer.splitlines()[-1] if isinstance(answer, Raised)
            else workload.answer_text(answer)
            for answer in digest_answers),
    }


if __name__ == "__main__":
    sys.exit(main())
