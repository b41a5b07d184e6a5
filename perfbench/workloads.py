"""Seeded inputs, timed operations and oracles of the three workloads.

Each workload draws its inputs from `random.Random("<name>:<seed>")`, in
batches: the first batch is made during set-up, further ones (same stream)
only if the timed loop runs out, with the clock stopped.  The ops of
`coherence` and `cli_boxes` follow a fixed cyclic schedule of kinds, so
every run has the same mix and their latency percentiles fall inside one
kind rather than between two.

Oracles never call the code path under test: coherence verdicts are known by
construction, syllogism verdicts come from the table below, propagation is
checked against the closed-form figure bounds.  A workload's `check`
returns None when an answer is right and a message when it is wrong; with
`corrupt=True` it compares against a deliberately wrong expected value (for
the benchmark's self-test).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

# Sigma under conditional (or unconditional) existential import and whether
# the form is strictly valid, for the 18 traditionally valid forms.
EXPECTED_SIGMA = {
    "Barbara": ("I", "AAA", "{1}", True),
    "Barbari": ("I", "AAI", "{1}", False),
    "Celarent": ("I", "EAE", "{0}", True),
    "Celaront": ("I", "EAO", "{0}", False),
    "Darii": ("I", "AII", "(0, 1]", True),
    "Ferio": ("I", "EIO", "[0, 1)", True),
    "Camestres": ("II", "AEE", "{1}", True),
    "Camestrop": ("II", "AEO", "{1}", False),
    "Cesare": ("II", "EAE", "{1}", True),
    "Cesaro": ("II", "EAO", "{1}", False),
    "Baroco": ("II", "AOO", "(0, 1]", True),
    "Festino": ("II", "EIO", "(0, 1]", True),
    "Darapti": ("III", "AAI", "(0, 1]", True),
    "Datisi": ("III", "AII", "(0, 1]", True),
    "Disamis": ("III", "IAI", "(0, 1]", True),
    "Felapton": ("III", "EAO", "[0, 1)", True),
    "Ferison": ("III", "EIO", "[0, 1)", True),
    "Bocardo": ("III", "OAO", "[0, 1)", True),
}

# Canonical premise families and targets of Figures I-III, as problem text.
FIGURE_TEXT = {
    "I": (("C / B", "B / A", "A / (A | B)"), "C / A"),
    "II": (("B / C", "!B / A", "A / (A | C)"), "!C / A"),
    "III": (("C / B", "A / B", "B / (A | B)"), "C / A"),
}

_WRONG = object()


class Workload:
    name = ""
    batch = 0
    digest_ops = 0  # the first ops whose inputs and answers are hashed

    def __init__(self, seed, probsyll, work_dir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ps = probsyll
        self.work_dir = work_dir
        self.inputs = []

    def extend(self):
        start = len(self.inputs)
        self.inputs += [self.make(start + i) for i in range(self.batch)]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# propagate: extension_bounds on the canonical figure families.
# ---------------------------------------------------------------------------

class Propagate(Workload):
    """`extension_bounds(check=True)` on a figure's family and a premise triple.

    The figures take turns.  x, y and t are drawn as criterion 3 of the
    acceptance tests draws its random triples: a denominator from 1-40, then
    a numerator from 0 to it.  So 0 and 1 occur (t = 0 in about 8% of the
    ops, which on Figures I and II costs about three times the LPs) and
    Step-3 restarts occur.
    """

    name = "propagate"
    batch = 2048
    digest_ops = 256

    def __init__(self, seed, probsyll, work_dir):
        super().__init__(seed, probsyll, work_dir)
        self.figures = list(probsyll.Figure)

    def _value(self):
        den = self.rng.randint(1, 40)
        return Fraction(self.rng.randint(0, den), den)

    def make(self, index):
        return self.figures[index % 3], tuple(self._value() for _ in range(3))

    def describe(self, item):
        figure, values = item
        return f"{figure.name} " + " ".join(map(str, values))

    def run(self, item):
        figure, values = item
        family, target = self.ps.canonical_family(figure)
        bounds = self.ps.extension_bounds(family, list(values), target, check=True)
        return bounds.lower, bounds.upper

    def answer_text(self, answer):
        return f"{answer[0]} {answer[1]}"

    def check(self, item, answer, corrupt=False):
        figure, (x, y, t) = item
        expected = tuple(self.ps.figure_bounds(figure, x, y, t))
        if corrupt:
            expected = _WRONG
        if answer != expected:
            return f"{self.describe(item)}: got {answer}, closed form {expected}"
        return None


# ---------------------------------------------------------------------------
# coherence: check_coherence on fresh random families.
# ---------------------------------------------------------------------------

ATOMS = "ABCDEFGHIJKL"

# Op kinds: (atom count range, event count range).  "sweep" is dominated by
# the 2^12-world constituent sweep, "wide" by LPs with m around 140 (50-300),
# "small" by per-call overhead.  Wider families have so heavy a cost tail
# that the run-to-run spread of the metrics would exceed their bounds.
SHAPES = {
    "small": ((6, 8), (4, 6)),
    "sweep": ((12, 12), (3, 4)),
    "wide": ((10, 10), (7, 7)),
}
# (shape, incoherent?) per op, cycled; a quarter of the ops are incoherent.
COHERENCE_SCHEDULE = (
    ("small", False), ("sweep", False), ("small", True), ("wide", False),
    ("small", False), ("sweep", True), ("wide", False), ("sweep", False),
)


def _eval(f, world):
    op = f[0]
    if op == "atom":
        return (world >> f[1]) & 1 == 1
    if op == "not":
        return not _eval(f[1], world)
    if op == "and":
        return _eval(f[1], world) and _eval(f[2], world)
    return _eval(f[1], world) or _eval(f[2], world)


def _render(f, outer=0):
    op = f[0]
    if op == "atom":
        return ATOMS[f[1]]
    if op == "not":
        return "!" + _render(f[1], 3)
    prec = 2 if op == "and" else 1
    sep = " & " if op == "and" else " | "
    text = _render(f[1], prec) + sep + _render(f[2], prec)
    return f"({text})" if prec < outer else text


def _formula(rng, atoms):
    """Random and/or chain of literals over the given atom indices."""
    f = None
    for a in atoms:
        lit = ("not", ("atom", a)) if rng.random() < 0.4 else ("atom", a)
        f = lit if f is None else (("and" if rng.random() < 0.6 else "or"), f, lit)
    return f


def _satisfying_world(rng, f, k):
    for _ in range(64):
        world = rng.getrandbits(k)
        if _eval(f, world):
            return world
    return next((w for w in range(2 ** k) if _eval(f, w)), None)


def _layered_values(rng, k, events):
    """Conditional probabilities of a lexicographic sequence of distributions.

    Layer after layer, a few random weighted worlds give each event whose
    antecedent still has zero mass its value; such an assessment is coherent.
    Events left with zero mass go to the next layer, so some antecedents get
    zero probability in the first layer and the I0 recursion runs.
    """
    values = [None] * len(events)
    left = list(range(len(events)))
    while left:
        support = [(rng.getrandbits(k), rng.randint(1, 9)) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.5 or len(left) == 1:
            j = rng.choice(left)
            support.append((_satisfying_world(rng, events[j][1], k), rng.randint(1, 9)))
        pending = []
        for j in left:
            cons, ante = events[j]
            mass_h = sum(w for world, w in support if _eval(ante, world))
            if mass_h == 0:
                pending.append(j)
                continue
            mass_eh = sum(w for world, w in support
                          if _eval(ante, world) and _eval(cons, world))
            values[j] = Fraction(mass_eh, mass_h)
        left = pending
    return values


class Coherence(Workload):
    """`check_coherence` on a fresh random family and assessment per op."""

    name = "coherence"
    batch = 192
    digest_ops = 32

    def make(self, index):
        rng = self.rng
        shape, incoherent = COHERENCE_SCHEDULE[index % len(COHERENCE_SCHEDULE)]
        (k_lo, k_hi), (n_lo, n_hi) = SHAPES[shape]
        k, n = rng.randint(k_lo, k_hi), rng.randint(n_lo, n_hi)
        cover = list(range(k))
        rng.shuffle(cover)
        events = []
        for j in range(n):
            # Consequents share out the atoms, so the family uses all k.
            own = cover[j::n]
            extra = rng.sample(range(k), rng.randint(0, 2))
            cons = _formula(rng, own + [a for a in extra if a not in own])
            # Literals on distinct atoms: always satisfiable.
            ante = _formula(rng, rng.sample(range(k), rng.randint(1, 2)))
            events.append((cons, ante))
        values = _layered_values(rng, k, events)
        if incoherent:
            # (E_j & X) | H_j above p_j, or !E_j | H_j above 1 - p_j = 0:
            # both contradict the monotonicity every coherent assessment has.
            j = rng.randrange(n)
            cons, ante = events[j]
            if values[j] < 1:
                extra_event = (("and", cons, ("atom", rng.randrange(k))), ante)
                extra_value = values[j] + (1 - values[j]) * Fraction(rng.randint(1, 4), 4)
            else:
                extra_event = (("not", cons), ante)
                extra_value = Fraction(rng.randint(1, 4), 4)
            at = rng.randint(0, n)
            events.insert(at, extra_event)
            values.insert(at, extra_value)
        texts = tuple(f"{_render(c)} / {_render(a)}" for c, a in events)
        family = tuple(self.ps.parse_conditional(t) for t in texts)
        return family, tuple(values), not incoherent, texts

    def describe(self, item):
        family, values, _coherent, texts = item
        return "; ".join(f"{t} = {v}" for t, v in zip(texts, values))

    def run(self, item):
        return self.ps.check_coherence(item[0], list(item[1]))

    def answer_text(self, answer):
        return "coherent" if answer else "incoherent"

    def check(self, item, answer, corrupt=False):
        expected = _WRONG if corrupt else item[2]
        if answer is not expected:
            return f"{self.describe(item)}: got {answer}, constructed {expected}"
        return None


# ---------------------------------------------------------------------------
# cli_boxes: cli.main on generated problem files and syllogism requests.
# ---------------------------------------------------------------------------

# Op kinds, cycled.  Ranked by cost: syllogism and mood (Q(eps) closed
# forms, ~2 ms) take ranks 0-25%; pair_closed (load a file, g-coherence over
# Q, ~4 ms) 25-58%, so p50 falls inside it; then catalog, pair_open
# (g-coherence over Q(eps) on two events), fig_propagate (sampled box hull at
# --grid 3, ~0.15 s); fig_open (g-coherence over Q(eps) on a figure family, ~0.3 s)
# takes 83-100%, so p90 falls inside it.
CLI_SCHEDULE = (
    "fig_open", "syllogism", "pair_closed", "pair_open", "mood", "pair_closed",
    "fig_propagate", "syllogism", "pair_closed", "fig_open", "catalog", "pair_closed",
)
IMPORTS = ("conditional", "unconditional", "none")


def _reflect(iv):
    lo, hi, lo_open, hi_open = iv
    return 1 - hi, 1 - lo, hi_open, lo_open


def _intersects(a, b):
    """Whether two intervals (lo, hi, lo_open, hi_open) share a point."""
    if a[0] != b[0]:
        lo_open = (a if a[0] > b[0] else b)[2]
    else:
        lo_open = a[2] or b[2]
    if a[1] != b[1]:
        hi_open = (a if a[1] < b[1] else b)[3]
    else:
        hi_open = a[3] or b[3]
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return lo < hi or (lo == hi and not lo_open and not hi_open)


def _some_x_le_y(a, b):
    """Whether x <= y for some x in interval a and y in interval b."""
    return a[0] < b[1] or (a[0] == b[1] and not a[2] and not b[3])


def _iv_text(iv):
    """An interval (lo, hi, lo_open, hi_open) as probsyll prints one."""
    lo, hi, lo_open, hi_open = iv
    if lo == hi:
        return f"{{{lo}}}"
    return f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


class CliBoxes(Workload):
    """In-process `cli.main([..., "--format", "json"])` over interval problems."""

    name = "cli_boxes"
    batch = 48
    digest_ops = 24

    def __init__(self, seed, probsyll, work_dir):
        super().__init__(seed, probsyll, work_dir)
        self.names = sorted(EXPECTED_SIGMA)
        os.makedirs(work_dir, exist_ok=True)

    def _rational(self, den_max=12):
        den = self.rng.randint(1, den_max)
        return Fraction(self.rng.randint(0, den), den)

    def _iv(self, lo, hi, want_open):
        if lo == hi or not want_open:
            return lo, hi, False, False
        return (lo, hi) + self.rng.choice(((True, False), (False, True), (True, True)))

    def _interval(self, want_open, proper=False):
        lo = hi = self._rational()
        while proper and hi == lo:
            hi = self._rational()
        return self._iv(min(lo, hi), max(lo, hi), want_open)

    def _write(self, index, events, box, target=None):
        """A problem file assessing each event on its interval."""
        lines = ["[assess]"] + [f"{ev} in {_iv_text(iv)}" for ev, iv in zip(events, box)]
        if target is not None:
            lines += ["[target]", target]
        path = os.path.join(self.work_dir, f"p{index:05d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _pair_problem(self, index, open_faces):
        """Complement pair E|H, !E|H or monotone pair (E&X)|H, E|H, with E,
        X, H on disjoint atoms: their coherent points are exactly x + y = 1,
        resp. x <= y, so the g-coherence verdict of a box is known."""
        rng = self.rng
        atoms = rng.sample(range(6), 4)
        e = _render(_formula(rng, atoms[:2]))
        h = _render(("atom", atoms[2]) if rng.random() < 0.5
                    else ("not", ("atom", atoms[2])))
        x = ATOMS[atoms[3]]
        complement = rng.random() < 0.5
        while True:
            first = self._interval(open_faces, proper=True)  # so a box, not a point
            if rng.random() < 0.5:
                # The boxes share at most the point x = lo1, so the
                # openness of the faces through it decides the verdict.
                if complement:
                    lo = 1 - first[0]
                    second = self._iv(lo, max(lo, self._rational()), open_faces)
                else:
                    second = self._iv(min(first[0], self._rational()), first[0], open_faces)
            else:
                second = self._interval(open_faces)
            if not open_faces or any(first[2:] + second[2:]):
                break
        if complement:
            events = (f"{e} / {h}", f"!({e}) / {h}")
            coherent = _intersects(first, _reflect(second))
        else:
            events = (f"({e}) & {x} / {h}", f"{e} / {h}")
            coherent = _some_x_le_y(first, second)
        return ["check", self._write(index, events, (first, second))], ("check", coherent)

    def _figure_problem(self, index, with_target):
        """A box with one open face on the canonical family of the figure
        whose turn it is; each component has at least two points."""
        figure = ("I", "II", "III")[index // len(CLI_SCHEDULE) % 3]
        premises, target = FIGURE_TEXT[figure]
        box = [list(self._interval(False, proper=True)) for _ in premises]
        self.rng.choice(box)[self.rng.choice((2, 3))] = True
        return figure, box, self._write(index, premises, box, target if with_target else None)

    def make(self, index):
        kind = CLI_SCHEDULE[index % len(CLI_SCHEDULE)]
        rng = self.rng
        if kind in ("pair_open", "pair_closed"):
            argv, expected = self._pair_problem(index, kind == "pair_open")
        elif kind == "fig_open":
            # Canonical families are coherent on all of [0,1]^3.
            _figure, _box, path = self._figure_problem(index, False)
            argv, expected = ["check", path], ("check", True)
        elif kind == "fig_propagate":
            figure, box, path = self._figure_problem(index, True)
            argv, expected = ["propagate", path, "--grid", "3"], ("hull", figure, box)
        elif kind == "catalog":
            imp = rng.choice(IMPORTS)
            argv = ["catalog", "--import", imp] + (["--defaults"] if rng.random() < 0.5 else [])
            expected = ("catalog", imp)
        else:
            name = rng.choice(self.names)
            imp = rng.choice(IMPORTS)
            if kind == "mood":
                figure, mood = EXPECTED_SIGMA[name][:2]
                argv = ["syllogism", mood, "--figure", figure, "--import", imp]
            else:
                argv = ["syllogism", name, "--import", imp]
            expected = ("syllogism", name, imp)
        return tuple(argv) + ("--format", "json"), expected

    def describe(self, item):
        argv, _expected = item
        if argv[0] in ("check", "propagate"):
            with open(argv[1], encoding="utf-8") as fh:
                problem = fh.read().strip().replace("\n", "; ")
            return " ".join((argv[0],) + argv[2:]) + f" <{problem}>"
        return " ".join(argv)

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.ps.cli.main(list(item[0]))
        return code, out.getvalue()

    def answer_text(self, answer):
        code, out = answer
        return f"{code} {json.dumps(json.loads(out), sort_keys=True)}"

    def _check_form(self, report, name, imp):
        figure, mood, sigma, strict = EXPECTED_SIGMA[name]
        if imp == "none":
            sigma, strict = "[0, 1]", False
        got = report["sigma"]
        got_sigma = _iv_text((Fraction(got["lower"]), Fraction(got["upper"]),
                              got["lower_open"], got["upper_open"]))
        wanted = (figure, mood, sigma, imp != "none", strict)
        found = (report["figure"], report["mood"], got_sigma, report["valid"],
                 report["strictly_valid"])
        return None if found == wanted else f"{name}: got {found}, expected {wanted}"

    def check(self, item, answer, corrupt=False):
        argv, expected = item
        code, out = answer
        report = json.loads(out)
        kind = expected[0]
        if kind == "check":
            coherent = _WRONG if corrupt else expected[1]
            found = (code, report["mode"], report["g_coherent"])
            if found != (0 if coherent else 1, "box", coherent):
                return f"{self.describe(item)}: got {found}, constructed {coherent}"
            return None
        if kind == "hull":
            _, figure, box = expected
            ps = self.ps
            closed = ps.figure_box_bounds(ps.Figure[figure], [iv[:2] for iv in box])
            lo, hi = (Fraction(report["interval"][k]) for k in ("lower", "upper"))
            if corrupt:
                closed = ps.ExtensionInterval(0, 0) if hi > 0 else ps.ExtensionInterval(1, 1)
            if code != 0 or not closed.lower <= lo <= hi <= closed.upper:
                return f"{self.describe(item)}: sampled [{lo}, {hi}] not in {closed}"
            return None
        if kind == "catalog":
            imp = expected[1]
            names = [row["name"] for row in report["forms"]]
            if code != 0 or sorted(names) != self.names or corrupt:
                return f"{self.describe(item)}: exit {code}, forms {names}"
            for row in report["forms"]:
                problem = self._check_form(row, row["name"], imp)
                if problem:
                    return problem
            return None
        _, name, imp = expected
        if code != ((imp == "none") != corrupt):
            return f"{self.describe(item)}: exit code {code}"
        return self._check_form(report, name, imp)

    def close(self):
        for entry in os.listdir(self.work_dir):
            os.remove(os.path.join(self.work_dir, entry))
        os.rmdir(self.work_dir)


WORKLOADS = {w.name: w for w in (Propagate, Coherence, CliBoxes)}
