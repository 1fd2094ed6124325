"""Spans recorded around zetapoly's public functions, from outside the program.

A traced invocation replaces every binding of a wrapped function, in every
``zetapoly`` module namespace that holds it, with a wrapper that records one
span per call: name, parent span, start and end on CLOCK_MONOTONIC, the
exception that ended it (if any) and a few counters read from the arguments
or the result.  Spans stay in memory and are written out when the invocation
ends.  This module also holds the arithmetic that turns spans into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so parent and child
    # timestamps can be subtracted from each other.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_completed_l(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"key": [a["s"], a["prec"]]}


def _note_delta_newform(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"prec": a["prec"], "nmax": len(result.an) if result is not None else 0}


def _note_roots(fn, args, kwargs, result):
    from zetapoly.exactnum import GaussianRational

    coeffs = getattr(args[0], "coeffs", args[0])
    return {"exact": all(isinstance(c, GaussianRational) for c in coeffs)}


def _note_thm2(fn, args, kwargs, result):
    if result is None:
        return {"terms": 0, "den_digits": 0}
    den = math.lcm(result.total.re.denominator, result.total.im.denominator)
    return {"terms": len(result.partial_sums), "den_digits": len(str(den))}


# span name -> (module, attribute, optional note function).  A dotted
# attribute is a method, patched on its class.
TARGETS = {
    "cli.main": ("zetapoly.cli", "main", None),
    "delta.run_delta": ("zetapoly.delta", "run_delta", None),
    "lvalues.delta_newform": ("zetapoly.lvalues", "delta_newform", _note_delta_newform),
    "lvalues.completed_l": ("zetapoly.lvalues", "completed_l", _note_completed_l),
    "lvalues.build_r": ("zetapoly.lvalues", "build_r", None),
    "lvalues.numeric_rv": ("zetapoly.lvalues", "numeric_rv", None),
    "zeta.rh_check": ("zetapoly.zeta", "rh_check", None),
    "zeta.roots": ("zetapoly.zeta", "roots", _note_roots),
    "zeta.thm2_residual": ("zetapoly.zeta", "thm2_residual", _note_thm2),
    "zeta.laurent_coeffs": ("zetapoly.zeta", "laurent_coeffs", None),
    "polyspace.slash": ("zetapoly.polyspace", "slash", None),
    "polyspace.es_residuals": ("zetapoly.polyspace", "es_residuals", None),
    "polyspace.fricke_residual": ("zetapoly.polyspace", "fricke_residual", None),
    "polyspace.rescaled_es1_residual": ("zetapoly.polyspace", "rescaled_es1_residual", None),
    "polyspace.rescaled_es2_residual": ("zetapoly.polyspace", "rescaled_es2_residual", None),
    "polyspace.wspace_basis": ("zetapoly.polyspace", "wspace_basis", None),
    "rv.rv_forward": ("zetapoly.rv", "rv_forward", None),
    "rv.rv_inverse": ("zetapoly.rv", "rv_inverse", None),
    "rv.series_coeffs": ("zetapoly.rv", "series_coeffs", None),
    "exactnum.common_denominator": ("zetapoly.exactnum", "common_denominator", None),
    "exactnum.PowerSeries.mul": ("zetapoly.exactnum", "PowerSeries.mul", None),
    "exactnum.PowerSeries.inverse": ("zetapoly.exactnum", "PowerSeries.inverse", None),
}


class Tracer:
    """Records spans of one invocation; ``spans`` rows are
    [id, parent, name, start, end, error, notes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.note_s = 0.0
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None, None]
            spans.append(row)
            stack.append(row[0])
            result = None
            row[3] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[4] = clock()
                stack.pop()
                if note is not None:
                    row[6] = note(fn, args, kwargs, result)
                    self.note_s += clock() - row[4]

        return traced

    def install(self, modules: dict, targets: dict = TARGETS) -> None:
        """Wrap every target, rebinding it in each namespace of ``modules``
        (name -> module) that holds the original object."""
        swaps = {}
        for name, (modname, attr, note) in targets.items():
            owner = modules[modname]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original, note)
            if cls_path:
                setattr(owner, leaf, wrapper)
            else:
                swaps[id(original)] = (original, wrapper)
        for module in modules.values():
            space = vars(module)
            for key, value in list(space.items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    space[key] = hit[1]


def zetapoly_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "zetapoly" or n.startswith("zetapoly.")}


def span_cost_s(repeats: int = 2000) -> float:
    """Measured cost of one span: a wrapped no-op minus a plain call."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    t0 = clock()
    for _ in range(repeats):
        noop()
    t1 = clock()
    for _ in range(repeats):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)


# ---------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children[sid], start, end)
        for sid, _parent, _name, start, end, *_ in spans
    }


def outermost(spans) -> list:
    """Spans with no ancestor of the same name, so nested calls of one
    function are not counted twice in its total time."""
    by_id = {row[0]: row for row in spans}
    out = []
    for row in spans:
        parent = row[1]
        while parent is not None and by_id[parent][2] != row[2]:
            parent = by_id[parent][1]
        if parent is None:
            out.append(row)
    return out


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------

# Per-layer metric -> what it should move (end-to-end or per-command
# metric, on which workload).  run.py prints this next to each value.
MOVES = {
    "lvalues.completed_l.calls": "delta_p1024_s, delta_p4096_s on delta; nothing elsewhere",
    "lvalues.completed_l.s": "delta_p1024_s, delta_p4096_s on delta; nothing elsewhere",
    "lvalues.completed_l.useful_frac": "delta_p1024_s, delta_p4096_s on delta",
    "lvalues.completed_l.share_p4096": "delta_p4096_s on delta",
    "lvalues.build_r.self_s": "delta_p1024_s, delta_p4096_s on delta",
    "lvalues.numeric_rv.s": "delta_p1024_s, delta_p4096_s on delta",
    "lvalues.delta_newform.s": "delta_p4096_s on delta",
    "lvalues.nmax_p128": "delta_p128_s on delta",
    "lvalues.nmax_p1024": "delta_p1024_s on delta",
    "lvalues.nmax_p4096": "delta_p4096_s on delta",
    "lvalues.tau_cache_hit": "delta_p4096_s on delta",
    "zeta.rh_check.calls": "delta_p128_s, failed_frac on delta",
    "zeta.roots.s": "delta_p128_s, failed_frac on delta",
    "zeta.roots.exact_s": "delta_p128_s, failed_frac on delta",
    "zeta.roots.numeric_s": "delta_p128_s on delta",
    "zeta.roots.failed": "failed_frac on delta",
    "zeta.roots.share_p128": "delta_p128_s on delta",
    "zeta.thm2_residual.calls": "thm2_s on thm2",
    "zeta.thm2_residual.s": "thm2_s on thm2",
    "zeta.thm2.terms": "thm2_s on thm2",
    "zeta.thm2.us_per_term": "thm2_s on thm2",
    "zeta.laurent_coeffs.s": "thm2_s on thm2",
    "zeta.thm2.total_den_digits": "thm2_s on thm2",
    "polyspace.slash.calls": "wspace_w30_s, check_w100_s on relations; about 1% of delta",
    "polyspace.slash.s": "wspace_w30_s, check_w100_s on relations; about 1% of delta",
    "polyspace.es_residuals.calls": "wspace_w30_s, check_w100_s on relations",
    "polyspace.es_residuals.s": "wspace_w30_s, check_w100_s on relations",
    "polyspace.rescaled_residuals.s": "wall_s on relations; about 1% of delta",
    "polyspace.wspace_basis.self_s": "wspace_w10_s, wspace_w30_s on relations",
    "rv.rv_forward.s": "rv_roundtrip_s on relations",
    "rv.rv_inverse.s": "rv_roundtrip_s on relations",
    "rv.series_coeffs.s": "rv_roundtrip_s on relations; thm2_s on thm2",
    "exactnum.common_denominator.calls": "thm2_s on thm2, rv_roundtrip_s on relations",
    "exactnum.common_denominator.s": "thm2_s on thm2, rv_roundtrip_s on relations",
    "exactnum.PowerSeries.inverse.s": "thm2_s on thm2",
    "exactnum.PowerSeries.mul.s": "thm2_s on thm2",
    "delta.run_delta.self_s": "wall_s on delta",
    "cli.self_s": "wall_s on every workload",
    "trace.overhead_frac": "nothing; tracing cost as a share of cli.main time",
}


def layer_metrics(traced: list, passes: int) -> dict:
    """Per-layer metrics from traced invocations, as totals per pass.

    Each item of ``traced`` is a dict with ``label``, ``spans``,
    ``main_s``, ``overhead_s`` and, for delta invocations, ``prec`` and
    ``tau_hit``.  Ratios are taken over the whole run; a ratio whose base
    is zero reads 0.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    roots_s = {True: 0.0, False: 0.0}
    roots_failed = 0
    distinct = 0
    terms = 0
    den_digits = 0
    nmax = defaultdict(int)
    tau_hits = 0
    overhead = 0.0
    main_all = 0.0
    share = {"p128": [0.0, 0.0], "p4096": [0.0, 0.0]}  # [layer s, main s]

    for inv in traced:
        rows = inv["spans"]
        selfs = self_times(rows)
        for row in rows:
            calls[row[2]] += 1
            own[row[2]] += selfs[row[0]]
        outer = outermost(rows)
        keys = set()
        for row in outer:
            name, dur, notes = row[2], row[4] - row[3], row[6] or {}
            total[name] += dur
            if name == "zeta.roots":
                roots_s[notes["exact"]] += dur
                roots_failed += row[5] == "PrecisionError"
            elif name == "lvalues.completed_l":
                keys.add(tuple(notes["key"]))
            elif name == "lvalues.delta_newform":
                nmax[notes["prec"]] = max(nmax[notes["prec"]], notes["nmax"])
            elif name == "zeta.thm2_residual":
                terms += notes["terms"]
                den_digits = max(den_digits, notes["den_digits"])
        distinct += len(keys)
        tau_hits += bool(inv.get("tau_hit"))
        overhead += inv["overhead_s"]
        main_all += inv["main_s"]
        tag = f"p{inv.get('prec')}"
        if tag in share:
            layer = "zeta.roots" if tag == "p128" else "lvalues.completed_l"
            share[tag][0] += sum(r[4] - r[3] for r in outer if r[2] == layer)
            share[tag][1] += inv["main_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / passes
    return {
        "lvalues.completed_l.calls": calls["lvalues.completed_l"] * per,
        "lvalues.completed_l.s": total["lvalues.completed_l"] * per,
        "lvalues.completed_l.useful_frac": ratio(distinct, calls["lvalues.completed_l"]),
        "lvalues.completed_l.share_p4096": ratio(*share["p4096"]),
        "lvalues.build_r.self_s": own["lvalues.build_r"] * per,
        "lvalues.numeric_rv.s": total["lvalues.numeric_rv"] * per,
        "lvalues.delta_newform.s": total["lvalues.delta_newform"] * per,
        "lvalues.nmax_p128": nmax[128],
        "lvalues.nmax_p1024": nmax[1024],
        "lvalues.nmax_p4096": nmax[4096],
        "lvalues.tau_cache_hit": tau_hits * per,
        "zeta.rh_check.calls": calls["zeta.rh_check"] * per,
        "zeta.roots.s": total["zeta.roots"] * per,
        "zeta.roots.exact_s": roots_s[True] * per,
        "zeta.roots.numeric_s": roots_s[False] * per,
        "zeta.roots.failed": roots_failed * per,
        "zeta.roots.share_p128": ratio(*share["p128"]),
        "zeta.thm2_residual.calls": calls["zeta.thm2_residual"] * per,
        "zeta.thm2_residual.s": total["zeta.thm2_residual"] * per,
        "zeta.thm2.terms": terms * per,
        "zeta.thm2.us_per_term": ratio(total["zeta.thm2_residual"] * 1e6, terms),
        "zeta.laurent_coeffs.s": total["zeta.laurent_coeffs"] * per,
        "zeta.thm2.total_den_digits": den_digits,
        "polyspace.slash.calls": calls["polyspace.slash"] * per,
        "polyspace.slash.s": total["polyspace.slash"] * per,
        "polyspace.es_residuals.calls": calls["polyspace.es_residuals"] * per,
        "polyspace.es_residuals.s": total["polyspace.es_residuals"] * per,
        "polyspace.rescaled_residuals.s": (
            total["polyspace.rescaled_es1_residual"] + total["polyspace.rescaled_es2_residual"]
        ) * per,
        "polyspace.wspace_basis.self_s": own["polyspace.wspace_basis"] * per,
        "rv.rv_forward.s": total["rv.rv_forward"] * per,
        "rv.rv_inverse.s": total["rv.rv_inverse"] * per,
        "rv.series_coeffs.s": total["rv.series_coeffs"] * per,
        "exactnum.common_denominator.calls": calls["exactnum.common_denominator"] * per,
        "exactnum.common_denominator.s": total["exactnum.common_denominator"] * per,
        "exactnum.PowerSeries.inverse.s": total["exactnum.PowerSeries.inverse"] * per,
        "exactnum.PowerSeries.mul.s": total["exactnum.PowerSeries.mul"] * per,
        "delta.run_delta.self_s": own["delta.run_delta"] * per,
        "cli.self_s": own["cli.main"] * per,
        "trace.overhead_frac": ratio(overhead, main_all),
    }


def breakdown(traced: list) -> dict:
    """Per command label: mean cli.main time, the share of it each span
    name spends in self time, and calls and counters per invocation."""
    groups = defaultdict(list)
    for inv in traced:
        groups[inv["label"]].append(inv)
    out = {}
    for label, invs in groups.items():
        n = len(invs)
        main = sum(i["main_s"] for i in invs)
        own = defaultdict(float)
        calls = defaultdict(int)
        terms = 0
        for inv in invs:
            selfs = self_times(inv["spans"])
            for row in inv["spans"]:
                own[row[2]] += selfs[row[0]]
                calls[row[2]] += 1
                if row[2] == "zeta.thm2_residual" and row[6]:
                    terms += row[6]["terms"]
        out[label] = {
            "invocations": n,
            "main_s": statistics.fmean(i["main_s"] for i in invs),
            "self_share": {
                k: v / main for k, v in sorted(own.items(), key=lambda kv: -kv[1]) if main
            },
            "calls_per_invocation": {k: v / n for k, v in sorted(calls.items())},
            "thm2_terms_per_invocation": terms / n,
        }
    return out
