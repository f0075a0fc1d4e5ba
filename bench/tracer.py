"""Spans and work counters around the calls into each menshov layer.

The tracer wraps public names in the namespace each caller looks them up in
(for example `menshov.assembly.mset_mass`, which `claim_run` calls, next to
`menshov.msets.mset_mass`, which `proposition_scan` calls).  Each wrapped
call records a span `[name, start, end, parent, work, tag]`; a layer's self
time is its spans' time minus that of their child spans.  The program's own
source is not touched, and `uninstall` puts every original back.  A name
that no longer exists is listed in `absent` instead of being wrapped.

Two hot scalar paths are counted without spans, because a span per call
would cost more than the call: scalar `PiecewiseLinearFn.__call__` (the
demo's E-sampling loop) and calls of the demo's `f`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, WORK, TAG = range(6)

CORRECTOR_BUILD = ("corrector.layout", "corrector.build_psi",
                   "corrector.choose_r")

_S, _N = "s", "count"
PER_LAYER_UNITS = {
    "measures.cdf_points": _N, "measures.cdf_calls": _N, "measures.cdf_s": _S,
    "measures.cdf_points_per_s": "1/s",
    "fourier.build_lambda_s": _S, "fourier.self_s": _S,
    "fourier.cdf_points": _N, "fourier.members": _N, "fourier.density": "ratio",
    "msets.proposition_scan_s": _S, "msets.self_s": _S,
    "msets.mset_mass_calls": _N, "msets.intervals": _N,
    "msets.intervals_per_s": "1/s",
    "corrector.kernel_sup_s": _S, "corrector.kernel_nodes": _N,
    "corrector.running_integral_sup_s": _S, "corrector.layout_s": _S,
    "piecewise.eval_calls": _N, "piecewise.eval_points": _N,
    "piecewise.eval_s": _S, "piecewise.extrema_s": _S,
    "assembly.theorem_demo_s": _S, "assembly.claim_run_s": _S,
    "assembly.self_s": _S, "assembly.f_calls": _N, "assembly.cells": _N,
    "assembly.kappa_tried": _N, "assembly.r_tried": _N,
    "assembly.r_useful_ratio": "ratio", "assembly.uncertified": _N,
    "cli.main_s": _S, "cli.self_s": _S, "cli.report_bytes": "B",
    "mem.largest_array_bytes": "B",
    "trace.overhead_s": _S, "trace.coverage": "ratio", "cpu_per_wall": "ratio",
    "criterion2.tail_sup": "ratio", "criterion6.bhat_ratio": "ratio",
}


def _bound(fn, hook):
    """Adapt `hook(rec, arguments)` to receive `fn`'s arguments by name."""
    sig = inspect.signature(fn)

    def work(rec, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(rec, bound.arguments)

    return work


def _size_of_x(rec, args, kwargs):
    rec[WORK] = int(np.size(args[1]))


def _lambda_work(rec, a):
    rec[WORK] = int(a["N_max"]) + 1


def _mset_work(rec, a):
    spec = a["spec"]
    rec[WORK] = int(spec.n)
    # claim_run's union-level M-set has tau = 1 - 4/nu > 1/2 (the kappa
    # search); its complement M-set has tau = 1/nu < 1/2 (the r search)
    rec[TAG] = "union" if spec.tau > 0.5 else "complement"


def _kernel_work(rec, a):
    rec[TAG] = int(a["x_grid"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._cont_depth = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every target; the caller must call `uninstall` afterwards."""
        lam = ("fourier.build_lambda", _lambda_work, self._members)
        mset = ("msets.mset_mass", _mset_work, None)
        targets = {
            ("menshov.cli", "main"): ("cli.main", None, None),
            ("menshov.fourier", "build_lambda"): lam,
            ("menshov.assembly", "build_lambda"): lam,
            ("menshov.msets", "proposition_scan"):
                ("msets.proposition_scan", None, None),
            ("menshov.msets", "mset_mass"): mset,
            ("menshov.assembly", "mset_mass"): mset,
            ("menshov.assembly", "claim_run"):
                ("assembly.claim_run", None, self._claim),
            ("menshov.assembly", "running_integral_sup"):
                ("corrector.running_integral_sup", None, None),
            ("menshov.corrector", "kernel_sup"):
                ("corrector.kernel_sup", _kernel_work, None),
            ("menshov.measures:Measure", "interval_mass"):
                ("measures.interval_mass", None, None),
            ("menshov.piecewise:PiecewiseLinearFn", "running_integral_extrema"):
                ("piecewise.extrema", None, None),
        }
        for module in ("menshov.assembly", "menshov.corrector"):
            for attr, name in zip(("layout", "build_psi", "choose_r"),
                                  CORRECTOR_BUILD):
                targets[(module, attr)] = (name, None, None)
        for (owner, attr), (name, work, after) in targets.items():
            orig = self._lookup(owner, attr, name)
            if orig is not None:
                if work is not None:
                    work = _bound(orig, work)
                self._patch(owner, attr, self._span(name, orig, work, after))

        orig = self._lookup("menshov.assembly", "theorem_demo",
                            "assembly.theorem_demo")
        if orig is not None:
            self._patch("menshov.assembly", "theorem_demo",
                        self._span("assembly.theorem_demo",
                                   self._count_f(orig)))
        orig = self._lookup("menshov.measures:Measure", "cont", "measures.cont")
        if orig is not None:
            self._patch("menshov.measures:Measure", "cont",
                        self._outermost_cont(orig))
        orig = self._lookup("menshov.piecewise:PiecewiseLinearFn", "__call__",
                            "piecewise.eval")
        if orig is not None:
            self._patch("menshov.piecewise:PiecewiseLinearFn", "__call__",
                        self._piecewise_eval(orig))

    def uninstall(self):
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    @staticmethod
    def _resolve(owner: str):
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj

    def _lookup(self, owner, attr, name):
        """The callable to wrap, or None with `name` listed as absent."""
        try:
            fn = vars(self._resolve(owner)).get(attr)
        except (ImportError, AttributeError):
            fn = None
        if callable(fn):
            return fn
        if name not in self.absent:
            self.absent.append(name)
        return None

    def _patch(self, owner, attr, wrapper):
        obj = self._resolve(owner)
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, work=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            if work is not None:
                work(rec, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, result)
            return result

        return wrapper

    @staticmethod
    def _members(rec, index_set):
        rec[TAG] = len(index_set)

    def _claim(self, rec, claim):
        self.counts["cells"] += len(claim.cells)
        self.counts["uncertified"] += (
            sum(not c.cell_certified for c in claim.cells)
            + (not claim.certified))

    def _count_f(self, theorem_demo):
        counts = self.counts

        @functools.wraps(theorem_demo)
        def wrapper(f, *args, **kwargs):
            def counted(*a, **k):
                counts["f_calls"] += 1
                return f(*a, **k)
            return theorem_demo(counted, *args, **kwargs)

        return wrapper

    def _outermost_cont(self, cont):
        """Span only the outermost `Measure.cont` call: a normalized
        measure's CDF calls its parent's, and each point counts once."""
        spanned = self._span("measures.cont", cont, _size_of_x)

        @functools.wraps(cont)
        def wrapper(measure, x):
            if self._cont_depth:
                return cont(measure, x)
            self._cont_depth += 1
            try:
                return spanned(measure, x)
            finally:
                self._cont_depth -= 1

        return wrapper

    def _piecewise_eval(self, call):
        spanned = self._span("piecewise.eval", call, _size_of_x)
        counts = self.counts

        @functools.wraps(call)
        def wrapper(fn, x):
            if isinstance(x, (float, int)):
                counts["scalar_evals"] += 1
                return call(fn, x)
            return spanned(fn, x)

        return wrapper


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer times and counts of one traced iteration of `wall` seconds."""
    spans, counts = tracer.spans, tracer.counts
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    total, self_t, calls, work = Counter(), Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        total[s[NAME]] += dur[i]
        self_t[s[NAME]] += dur[i] - child[i]
        calls[s[NAME]] += 1
        work[s[NAME]] += s[WORK]

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return p
            p = spans[p][PARENT]
        return None

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    fourier_points = kernel_nodes = largest = 0
    members = kappa_tried = r_tried = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "measures.cont":
            largest = max(largest, 8 * s[WORK])
            if ancestor(i, "fourier.build_lambda") is not None:
                fourier_points += s[WORK]
        elif name == "piecewise.eval":
            k = ancestor(i, "corrector.kernel_sup")
            if k is not None:
                kernel_nodes += s[WORK]
                # the nodes x x_grid float64 kernel matrix
                largest = max(largest, 8 * s[WORK] * spans[k][TAG])
        elif name == "fourier.build_lambda":
            members += s[TAG]
        elif (name == "msets.mset_mass" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "assembly.claim_run"):
            if s[TAG] == "union":
                kappa_tried += 1
            else:
                r_tried += 1

    top = sum(d for d, s in zip(dur, spans) if s[PARENT] < 0)
    return {
        "measures.cdf_points": work["measures.cont"],
        "measures.cdf_calls": calls["measures.cont"],
        "measures.cdf_s": total["measures.cont"],
        "measures.cdf_points_per_s": rate(work["measures.cont"],
                                          total["measures.cont"]),
        "fourier.build_lambda_s": total["fourier.build_lambda"],
        "fourier.self_s": self_t["fourier.build_lambda"],
        "fourier.cdf_points": fourier_points,
        "fourier.members": members,
        "fourier.density": rate(members, work["fourier.build_lambda"]),
        "msets.proposition_scan_s": total["msets.proposition_scan"],
        "msets.self_s": (self_t["msets.proposition_scan"]
                         + self_t["msets.mset_mass"]),
        "msets.mset_mass_calls": calls["msets.mset_mass"],
        "msets.intervals": work["msets.mset_mass"],
        "msets.intervals_per_s": rate(work["msets.mset_mass"],
                                      total["msets.mset_mass"]),
        "corrector.kernel_sup_s": total["corrector.kernel_sup"],
        "corrector.kernel_nodes": kernel_nodes,
        "corrector.running_integral_sup_s":
            total["corrector.running_integral_sup"],
        "corrector.layout_s": sum(total[n] for n in CORRECTOR_BUILD),
        "piecewise.eval_calls": calls["piecewise.eval"] + counts["scalar_evals"],
        "piecewise.eval_points": (work["piecewise.eval"]
                                  + counts["scalar_evals"]),
        "piecewise.eval_s": total["piecewise.eval"],
        "piecewise.extrema_s": total["piecewise.extrema"],
        "assembly.theorem_demo_s": total["assembly.theorem_demo"],
        "assembly.claim_run_s": total["assembly.claim_run"],
        "assembly.self_s": (self_t["assembly.theorem_demo"]
                            + self_t["assembly.claim_run"]),
        "assembly.f_calls": counts["f_calls"],
        "assembly.cells": counts["cells"],
        "assembly.kappa_tried": kappa_tried,
        "assembly.r_tried": r_tried,
        "assembly.r_useful_ratio": rate(counts["cells"], r_tried),
        "assembly.uncertified": counts["uncertified"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_t["cli.main"],
        "trace.coverage": rate(top, wall),
        "mem.largest_array_bytes": largest,
    }
