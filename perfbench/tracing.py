"""In-memory span tracing of probsyll's public entry points, from outside.

`Tracer.install()` rebinds each traced function in every loaded `probsyll`
module that holds it (`from .simplex import solve_lp` makes a second binding
in `coherence`), so a call is recorded once whichever binding it goes
through.  A span is `[name, parent, op_id, start_ns, end_ns, attrs]`; spans
are appended in call order, so a parent always precedes its children.
Nothing is recorded while `enabled` is false, which keeps input generation
and oracle checks out of the trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public entry points wrapped there.  `cli.main` is the command
# boundary; the others are the layer boundaries the per-layer metrics need.
TRACED = {
    "events": ("parse_event", "parse_conditional", "enumerate_constituents"),
    "simplex": ("solve_lp",),
    "coherence": ("check_coherence", "check_g_coherence"),
    "propagation": ("extension_bounds", "extension_union_sampled"),
    "figures": ("figure_bounds", "figure_box_bounds", "sigma_with_openness"),
    "syllogisms": ("evaluate_syllogism",),
    "cli": ("main", "load_problem"),
}

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.enabled = False
        self._seen_families = set()
        self._eps_type = None

    # -- recording ----------------------------------------------------------

    def _call(self, name, fn, args, kwargs, attrs):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, self.op_id, 0, 0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record[3] = start
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def op(self, op_id, fn, *args):
        """Run one benchmark operation as the root span of its op id."""
        self.op_id = op_id
        self.enabled = True
        try:
            return self._call(OP, fn, args, {}, {})
        finally:
            self.enabled = False

    def _wrap(self, module, fname, fn):
        name = f"{module}.{fname}"
        if name == "events.enumerate_constituents":
            @functools.wraps(fn)
            def wrapper(family):
                if not self.enabled:
                    return fn(family)
                family = tuple(family)
                attrs = {"repeat": family in self._seen_families}
                self._seen_families.add(family)
                table = self._call(name, fn, (family,), {}, attrs)
                attrs["atoms"] = len(table.atoms)
                attrs["m"] = table.m
                return table
        elif name == "simplex.solve_lp":
            @functools.wraps(fn)
            def wrapper(objective, rows, senses, rhs, maximize=False):
                if not self.enabled:
                    return fn(objective, rows, senses, rhs, maximize)
                attrs = {
                    "cells": len(rows) * len(objective),
                    "eps": any(isinstance(v, self._eps_type)
                               for row in (*rows, rhs) for v in row),
                }
                return self._call(name, fn, (objective, rows, senses, rhs, maximize),
                                  {}, attrs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                return self._call(name, fn, args, kwargs, {})
        return wrapper

    def install(self):
        """Rebind every traced entry point in all loaded probsyll modules."""
        homes = {short: importlib.import_module(f"probsyll.{short}") for short in TRACED}
        self._eps_type = importlib.import_module("probsyll.infinitesimals").EpsRational
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "probsyll" or key.startswith("probsyll."))]
        for short, names in TRACED.items():
            home = homes[short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(short, fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines: name, id, parent, op, start/end (ns), attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, op_id, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "op": op_id, "start_ns": start, "end_ns": end,
                                     **attrs}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops):
    """Per-layer metrics, name -> (value, unit), from `ops` traced operations.

    Counts and times are per operation (units `1/op`, `ms/op`); a layer's
    self time is its spans' durations minus the parts their traced children
    cover.  Ratios and means are over the spans they name.
    """
    n = len(spans)
    dur = [(s[4] - s[3]) / 1e6 for s in spans]
    self_ms = dur[:]
    check_depth = [0] * n
    for sid, (name, parent, _op, _s, _e, _a) in enumerate(spans):
        if parent is not None:
            self_ms[parent] -= dur[sid]
        above = check_depth[parent] if parent is not None else 0
        check_depth[sid] = above + (name == "coherence.check_coherence")

    def named(name):
        return [sid for sid in range(n) if spans[sid][0] == name]

    def layer_self(layer):
        prefix = layer + "."
        return sum(self_ms[sid] for sid in range(n) if spans[sid][0].startswith(prefix))

    def parent_is(sid, name):
        parent = spans[sid][1]
        return parent is not None and spans[parent][0] == name

    tables = named("events.enumerate_constituents")
    firsts = [sid for sid in tables if not spans[sid][5]["repeat"]]
    parses = named("events.parse_event") + named("events.parse_conditional")
    lps = named("simplex.solve_lp")
    eps_lps = [sid for sid in lps if spans[sid][5]["eps"]]
    checks = named("coherence.check_coherence")
    bounds = named("propagation.extension_bounds")
    per_op = 1.0 / ops
    count, ms = "1/op", "ms/op"
    return {
        "events.tables": (len(tables) * per_op, count),
        "events.table_repeat_ratio": (
            _ratio(len(tables) - len(firsts), len(tables)), "ratio"),
        "events.table_ms": (sum(dur[sid] for sid in tables) * per_op, ms),
        "events.worlds_swept": (
            sum(2 ** spans[sid][5].get("atoms", 0) for sid in firsts) * per_op, count),
        "events.constituents_mean": (
            _ratio(sum(spans[sid][5].get("m", 0) for sid in tables), len(tables)),
            "constituents"),
        "events.parse_calls": (len(parses) * per_op, count),
        "events.parse_ms": (sum(dur[sid] for sid in parses) * per_op, ms),
        "cli.commands": (len(named("cli.main")) * per_op, count),
        "cli.load_ms": (sum(dur[sid] for sid in named("cli.load_problem")) * per_op, ms),
        "cli.self_ms": (layer_self("cli") * per_op, ms),
        "simplex.lp_calls": (len(lps) * per_op, count),
        "simplex.lp_ms": (sum(dur[sid] for sid in lps) * per_op, ms),
        "simplex.lp_cells_mean": (
            _ratio(sum(spans[sid][5]["cells"] for sid in lps), len(lps)), "cells"),
        "simplex.infeasible_ratio": (_ratio(
            sum(spans[sid][5].get("error") == "Infeasible" for sid in lps), len(lps)),
            "ratio"),
        "simplex.eps_lp_calls": (len(eps_lps) * per_op, count),
        "simplex.eps_lp_ms": (sum(dur[sid] for sid in eps_lps) * per_op, ms),
        "coherence.check_calls": (len(checks) * per_op, count),
        "coherence.recursion_depth_max": (
            max((check_depth[sid] for sid in checks), default=0), "levels"),
        "coherence.g_check_calls": (
            len(named("coherence.check_g_coherence")) * per_op, count),
        "coherence.self_ms": (layer_self("coherence") * per_op, ms),
        "propagation.bound_calls": (len(bounds) * per_op, count),
        "propagation.lps_per_bound": (_ratio(
            sum(parent_is(sid, "propagation.extension_bounds") for sid in lps),
            len(bounds)), "1/bound"),
        "propagation.sampled_points": (sum(
            parent_is(sid, "propagation.extension_union_sampled") for sid in checks)
            * per_op, count),
        "propagation.self_ms": (layer_self("propagation") * per_op, ms),
        "figures.calls": (
            sum(spans[sid][0].startswith("figures.") for sid in range(n)) * per_op, count),
        "figures.self_ms": (layer_self("figures") * per_op, ms),
        "syllogisms.verdict_calls": (
            len(named("syllogisms.evaluate_syllogism")) * per_op, count),
        "syllogisms.self_ms": (layer_self("syllogisms") * per_op, ms),
    }
