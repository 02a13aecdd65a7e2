"""Outside-in layer trace: wrappers installed on primearcs names.

Each wrapper records a span (name, start, end, parent span, job) and
adds the call's work counts.  A name is patched where it is looked up:
``powk_extended`` is called through the globals of expsums, search,
circle and meansquare, so each of those gets the same wrapper; methods
are patched on their class.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from primearcs import circle, expsums, meansquare, numutil, primes, search


def _size(x) -> int:
    return int(np.size(x))


def _pairs(args, result) -> dict:
    n = _size(args[0])
    return {"pairs": n * (n - 1) // 2}


def _panel_phases(args, result) -> dict:
    factor, centers, offs = args[:3]
    nf = len(factor.freqs)
    return {"phases": _size(centers) * nf + nf * _size(offs)}


# (owners, attribute, layer name, counter of (args, result) -> {count: n}).
# Layers are called with positional arguments throughout primearcs.
LAYERS = [
    ((primes,), "build_table", "primes.build_table", None),
    ((primes,), "save_table", "primes.save_table", None),
    ((primes,), "load_table", "primes.load_table", None),
    ((primes.PrimeTable,), "theta_many", "primes.theta_many", None),
    ((primes.PrimeTable,), "psi_minus_theta_many",
     "primes.psi_minus_theta_many", None),
    ((numutil, expsums, search, circle, meansquare), "powk_extended",
     "numutil.powk_extended", lambda a, r: {"elements": _size(a[0])}),
    ((numutil, expsums), "e_of", "numutil.e_of",
     lambda a, r: {"phases": _size(a[0])}),
    ((numutil, expsums), "fsum_complex", "numutil.fsum_complex", None),
    ((numutil, circle, meansquare), "exp_pair_integral",
     "numutil.exp_pair_integral", _pairs),
    ((expsums, circle), "eval_S_range", "expsums.eval_S_range", None),
    ((expsums,), "eval_U_range", "expsums.eval_U_range", None),
    ((expsums,), "eval_T_range", "expsums.eval_T_range", None),
    ((expsums, circle), "eval_T_grid", "expsums.eval_T_grid", None),
    ((expsums,), "_t_grid_pass", "expsums._t_grid_pass",
     lambda a, r: {"panel_evals": _size(a[3]) * int(a[4])}),
    ((expsums, circle), "fejer_K", "expsums.fejer_K", None),
    ((circle.ExpSumFactor,), "eval_panels", "circle.ExpSumFactor.eval_panels",
     _panel_phases),
    ((circle,), "_product_on_interval", "circle._product_on_interval", None),
    ((circle,), "major_arc_split", "circle.major_arc_split", None),
    ((circle,), "minor_arc_l2", "circle.minor_arc_l2", None),
    ((circle,), "trivial_tails", "circle.trivial_tails", None),
    ((meansquare,), "_piecewise_square", "meansquare._piecewise_square", None),
    ((meansquare,), "_breakpoints", "meansquare._breakpoints", None),
    ((meansquare,), "_l2_grid", "meansquare._l2_grid", None),
    ((meansquare,), "_l2_grid_refined", "meansquare._l2_grid_refined", None),
    ((search,), "find_solutions", "search.find_solutions",
     lambda a, r: {"solutions": r.count}),
    ((search,), "_residual_arrays", "search._residual_arrays",
     lambda a, r: {"residuals": _size(a[3])}),
    ((search,), "_table_is_prime", "search._table_is_prime", None),
]

# Layers counted without a span of their own, so their time stays in the
# caller's self time (eval_T_grid, _l2_grid, find_solutions).
COUNT_ONLY = {"expsums._t_grid_pass", "meansquare._l2_grid_refined",
              "search._table_is_prime"}

# Metrics reported from a traced round: self time of every spanned layer
# plus these work counts.
COUNTS = [
    "primes.theta_many.calls",
    "numutil.powk_extended.calls", "numutil.powk_extended.elements",
    "numutil.e_of.phases",
    "numutil.exp_pair_integral.pairs",
    "expsums.eval_S_range.calls",
    "expsums._t_grid_pass.panel_evals",
    "circle.ExpSumFactor.eval_panels.calls",
    "circle.ExpSumFactor.eval_panels.phases",
    "meansquare._piecewise_square.pieces",
    "meansquare._l2_grid_refined.calls",
    "search._residual_arrays.calls", "search._residual_arrays.residuals",
    "search._table_is_prime.calls",
]
SELF_TIMES = [name for _, _, name, _ in LAYERS if name not in COUNT_ONLY]
# Layers of the set-up, whose self times come from the traced set-up.
SETUP_LAYERS = {"primes.build_table", "primes.save_table", "primes.load_table"}


class Tracer:
    """Spans and work counts of one traced round."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spanned = name not in COUNT_ONLY
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if name == "meansquare._piecewise_square":
                args = (self._counting_pieces(args[0]),) + args[1:]
            if spanned:
                # inline span: this wrapper runs ~10^5 times per round
                span = [name, 0.0, None, stack[-1] if stack else None, self.job]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_pieces(self, step_fn):
        """_piecewise_square evaluates step_fn once, at the midpoints of
        all its pieces."""
        def counted(x):
            self.counts["meansquare._piecewise_square.pieces"] += _size(x)
            return step_fn(x)
        return counted

    @contextmanager
    def job_span(self, job: str):
        self.job = job
        with self.span("job"):
            yield
        self.job = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Patch every layer for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for owners, attr, name, counter in LAYERS:
                for owner in owners:
                    original = owner.__dict__.get(attr)
                    if original is None:
                        self.missing.append(f"{owner.__name__}.{attr}")
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Per-layer self time: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

