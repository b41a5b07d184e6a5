"""Differential check: this checkout's src/ against the src/ of a git revision.

    python3 tools/difftest.py REV [--seed N]

Extracts REV's src/ with `git archive` into a temporary directory, then runs
the same seeded inputs through both src/ trees, each in a process of its own:

- the first ops of the three benchmark workloads, drawn by this checkout's
  perfbench/workloads.py so that both sides get the same inputs: OPS below;
- LPS random LPs over Q with 0/1 objectives: a phase 1, then per objective
  a warm phase 2 from its basis and a cold `solve_lp`, and a random face of
  the basis with a phase 2 on it.

Per op it records a digest of the answer (every value with its exact type,
or the exception raised) and the pivots taken, counted by wrapping
`simplex._Tableau.pivot`.  It prints per kind the op and pivot totals, the
ops whose answer differs and the ops whose pivot count differs, and exits 1,
listing the ops that differ, when any digest or pivot count does.
A change that must keep every output and every pivot shows it with this.
Standard library only.  It runs in about 10 s on two cores, and stays out
of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = {"propagate": 2000, "coherence": 1000, "cli_boxes": 1000}
LPS = 2000
SHOW = 20  # differing ops listed per kind


# ---------------------------------------------------------------------------
# The worker: every op through one src/ tree.
# ---------------------------------------------------------------------------

def _entry(rng):
    """A small rational."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _lp_inputs(seed):
    """LPS random LPs, most bounded by sum x <= U, the rest may be
    unbounded; three 0/1 objectives and a face."""
    rng = random.Random(f"difftest-lp:{seed}")
    lps = []
    for _ in range(LPS):
        nvar = rng.randint(1, 5)
        rows, senses, rhs = [], [], []
        if rng.random() < 0.8:
            rows.append([1] * nvar)
            senses.append("<=")
            rhs.append(abs(_entry(rng)) + 1)
        for _ in range(rng.randint(1, 3)):
            rows.append([_entry(rng) if rng.random() < 0.8 else 0 for _ in range(nvar)])
            senses.append(rng.choice(("<=", "=", ">=")))
            rhs.append(_entry(rng))
        objectives = [([rng.randint(0, 1) for _ in range(nvar)], rng.random() < 0.5)
                      for _ in range(3)]
        fixed = rng.sample(range(nvar), rng.randint(0, nvar - 1))
        lps.append((rows, senses, rhs, objectives, fixed))
    return lps


def _attempt(call):
    """call()'s result, or its exception as (type name, message)."""
    try:
        return call()
    except Exception as exc:  # every exception is an answer to compare
        return ("raised", type(exc).__name__, str(exc))


def _lp_op(lp):
    """The answers of one LP: its phase-1 point, each objective warm and
    cold, and a face with a phase 2 on it."""
    from probsyll.simplex import phase1, phase2, solve_lp

    rows, senses, rhs, objectives, fixed = lp
    nvar = len(rows[0])
    start = _attempt(lambda: phase1(rows, senses, rhs, nvar))
    if isinstance(start, tuple):
        return start
    answers = [start.point()]
    for objective, maximize in objectives:
        for solve in (lambda: phase2(start, objective, maximize),
                      lambda: solve_lp(objective, rows, senses, rhs, maximize)):
            solution = _attempt(solve)
            answers.append(solution if isinstance(solution, tuple)
                           else (solution.value, solution.x))
    face = start.face(fixed)
    answers.append(None if face is None else
                   (face.point(), _attempt(lambda: phase2(face, objectives[0][0]).value)))
    return answers


def _worker(src, seed, out):
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import probsyll
    import probsyll.cli  # noqa: F401  (the cli_boxes ops call it)
    from probsyll import simplex
    from workloads import WORKLOADS

    if not os.path.abspath(probsyll.__file__).startswith(src + os.sep):
        raise SystemExit(f"probsyll was imported from {probsyll.__file__}, not {src}")
    pivots = 0
    pivot = simplex._Tableau.pivot

    def counting(self, r, e):
        nonlocal pivots
        pivots += 1
        pivot(self, r, e)

    simplex._Tableau.pivot = counting

    def record(call, label):
        nonlocal pivots
        pivots = 0
        answer = _attempt(call)
        digest = hashlib.sha256(repr(answer).encode()).hexdigest()[:20]
        return [digest, pivots, label[:160]]

    results = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name, count in OPS.items():
            workload = WORKLOADS[name](seed, probsyll, os.path.join(work_dir, name))
            while len(workload.inputs) < count:
                workload.extend()
            results[name] = [record(lambda: workload.run(item), workload.describe(item))
                             for item in workload.inputs[:count]]
    results["lp"] = [record(lambda: _lp_op(lp), repr(lp[:3]))
                     for lp in _lp_inputs(seed)]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


# ---------------------------------------------------------------------------
# The driver: extract REV, run both workers, compare.
# ---------------------------------------------------------------------------

def _extract(rev, dest):
    """REV's src/ tree, written under dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)
    return os.path.join(dest, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="the git revision to compare with")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--worker", help=argparse.SUPPRESS)  # src/ tree of a worker process
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.seed, args.out)
        return 0
    if not args.rev:
        ap.error("REV is required")

    with tempfile.TemporaryDirectory() as tmp:
        trees = (_extract(args.rev, tmp), os.path.join(ROOT, "src"))
        outs = [os.path.join(tmp, f"{side}.json") for side in ("rev", "here")]
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker", src,
                                   "--seed", str(args.seed), "--out", out],
                                  cwd=ROOT, stderr=subprocess.PIPE, text=True)
                 for src, out in zip(trees, outs)]
        errors = [proc.communicate()[1] for proc in procs]
        for src, proc, err in zip(trees, procs, errors):
            if proc.returncode:
                print(f"worker for {src} failed:\n{err}", file=sys.stderr)
                return 2
        results = []
        for out in outs:
            with open(out, encoding="utf-8") as fh:
                results.append(json.load(fh))

    print(f"seed {args.seed}: {args.rev} against this checkout")
    print(f"{'kind':<10} {'ops':>6} {'pivots ' + args.rev:>16} {'pivots here':>16} "
          f"{'answers differ':>15} {'pivots differ':>14}")
    old, new = results
    differ = 0
    for kind, a in old.items():
        b = new[kind]
        bad = [i for i, (x, y) in enumerate(zip(a, b)) if x[:2] != y[:2]]
        differ += len(bad)
        print(f"{kind:<10} {len(b):>6} {sum(x[1] for x in a):>16} {sum(y[1] for y in b):>16} "
              f"{sum(a[i][0] != b[i][0] for i in bad):>15} "
              f"{sum(a[i][1] != b[i][1] for i in bad):>14}")
        for i in bad[:SHOW]:
            x, y = a[i], b[i]
            print(f"  {kind} #{i}: answer {x[0]} -> {y[0]}, pivots {x[1]} -> {y[1]}: {y[2]}")
    print("identical" if not differ else f"{differ} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
