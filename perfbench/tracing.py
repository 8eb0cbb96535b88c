"""Spans and exact counters recorded from outside the package.

`install(tracer)` wraps the public entry points of each layer (and every
module-level name that refers to them), swaps the spectral-oracle and
series-operator classes for counting subclasses, and `count_markov`
replaces a graph's cached Markov matrix with a counting CSR matrix.
Nothing under `src/` is edited; every wrapper is undone by the function
`install` returns.

A span is (id, name, start, end, parent, job, matvec columns counted
while it was open).  Spans stay in memory and are written out when the
run ends.  Spans opened in worker threads with no open span of their own
take their parent and job from the owner that handed work to the pool
(`Tracer.adopt`), never from thread-local state of another thread.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

import numpy as np
import scipy.sparse as sp

LAYERS = ("graphs", "operators", "calculus", "quadratic", "tentspace", "hardy", "riesz")

# (module, public name) wrapped in a span named "<module>.<name>"
ENTRY_POINTS = (
    ("graphs", "ball"),
    ("graphs", "geometry_report"),
    ("operators", "apply_P"),
    ("calculus", "resolvent_apply"),
    ("calculus", "gaffney_fit"),
    ("quadratic", "quad_norm"),
    ("quadratic", "tent_functional"),
    ("tentspace", "atomic_decompose"),
    ("hardy", "molecular_decompose"),
    ("hardy", "make_molecule_from_tent_atom"),
    ("hardy", "validate_molecule"),
    ("hardy", "bmo_norm"),
    ("riesz", "riesz_h1_experiment"),
    ("riesz", "riesz"),
)

COUNTERS = (
    "matvec_calls",
    "matvec_cols",
    "oracle_builds",
    "oracle_apply_calls",
    "series_apply_calls",
    "series_terms",
    "atoms",
    "l_max_sum",
    "l_max_calls",
    "active_levels",
)


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans = []          # closed spans: (id, name, start, end, parent, job, cols)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None          # job id of the main thread's current job
        self._adopted = None     # (parent id, job) handed to pool threads
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def count_matvec(self, cols):
        with self._lock:
            self.counts["matvec_calls"] += 1
            self.counts["matvec_cols"] += cols

    def open(self, name):
        stack = self._stack()
        if stack:
            parent, job = stack[-1][0], stack[-1][4]
        elif threading.current_thread() is threading.main_thread() or self._adopted is None:
            parent, job = None, self.job
        else:
            parent, job = self._adopted
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            cols = self.counts["matvec_cols"]
        stack.append((sid, name, time.perf_counter(), parent, job, cols))
        return sid

    def close(self, sid):
        end = time.perf_counter()
        stack = self._stack()
        top = stack.pop()
        if top[0] != sid:
            raise RuntimeError(f"span {top[1]} closed out of order")
        _, name, start, parent, job, cols0 = top
        self.spans.append((sid, name, start, end, parent, job,
                           self.counts["matvec_cols"] - cols0))

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def adopt(self, parent, job):
        """Hand (parent, job) to spans that worker threads open."""
        self._adopted = None if parent is None else (parent, job)


class CountingCSR(sp.csr_matrix):
    """csr_matrix that counts products with dense operands; a block of k
    columns counts as one call and k columns."""

    _tracer = None

    def _matmul_vector(self, other):
        if self._tracer is not None:
            self._tracer.count_matvec(1)
        return super()._matmul_vector(other)

    def _matmul_multivector(self, other):
        if self._tracer is not None:
            self._tracer.count_matvec(other.shape[1])
        return super()._matmul_multivector(other)


def counting_matrix(W, tracer):
    C = CountingCSR((W.data, W.indices, W.indptr), shape=W.shape)
    C._tracer = tracer
    return C


def count_markov(g, tracer):
    """Replace the graph's cached Markov matrix with a counting copy that
    shares its arrays."""
    from graphhardy import operators
    g._markov = counting_matrix(operators.markov_matrix(g), tracer)


def _module(name):
    return sys.modules[f"graphhardy.{name}"]


def _replace_everywhere(original, replacement, undo):
    """Point every graphhardy module attribute that is `original` at
    `replacement`, the package namespace and `from x import` aliases
    included."""
    for modname, mod in list(sys.modules.items()):
        if modname != "graphhardy" and not modname.startswith("graphhardy."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _wrap(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(args, out)
        return out
    return traced


def _wrap_pool_owner(tracer, name, fn):
    """Span for a function that fans work out to a thread pool; the pool's
    spans are parented on it explicitly."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        tracer.adopt(sid, tracer.job)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.adopt(None, None)
            tracer.close(sid)
    return traced


def _top_level(values):
    """Index of the last level holding a nonzero entry, plus one."""
    nz = np.flatnonzero(np.any(values != 0.0, axis=0))
    return int(nz[-1]) + 1 if nz.size else 0


def install(tracer):
    """Instrument the imported package; returns a function undoing it."""
    import graphhardy  # noqa: F401  (loads every module)
    from graphhardy import calculus, graphs

    undo = []

    def after_decompose(args, out):
        F = args[1]
        tracer.add("atoms", len(out.coefficients))
        tracer.add("l_max_sum", F.l_max)
        tracer.add("l_max_calls")

    def after_synthesis(args, out):
        tracer.add("active_levels", _top_level(args[0].values.values))

    hooks = {
        "tentspace.atomic_decompose": after_decompose,
        "hardy.make_molecule_from_tent_atom": after_synthesis,
    }
    for mod, attr in ENTRY_POINTS:
        name = f"{mod}.{attr}"
        original = getattr(_module(mod), attr)
        if name == "riesz.riesz_h1_experiment":
            wrapped = _wrap_pool_owner(tracer, name, original)
        else:
            wrapped = _wrap(tracer, name, original, hooks.get(name))
        _replace_everywhere(original, wrapped, undo)

    base_oracle = calculus.SpectralOracle

    class CountingOracle(base_oracle):
        def __init__(self, g):
            with tracer.span("calculus.oracle_build"):
                super().__init__(g)
            tracer.add("oracle_builds")

        def apply(self, phi, f):
            tracer.add("oracle_apply_calls")
            with tracer.span("calculus.oracle_apply"):
                return super().apply(phi, f)

    base_series = calculus.SeriesOperator

    class CountingSeries(base_series):
        def apply(self, f):
            tracer.add("series_apply_calls")
            tracer.add("series_terms", self.truncation)
            with tracer.span("calculus.series_apply"):
                return super().apply(f)

    _replace_everywhere(base_oracle, CountingOracle, undo)
    _replace_everywhere(base_series, CountingSeries, undo)

    dist_prop = graphs.WeightedGraph.__dict__["dist"]

    def traced_dist(g):
        if g._dist is not None:
            return g._dist
        with tracer.span("graphs.dist"):
            return dist_prop.fget(g)

    graphs.WeightedGraph.dist = property(traced_dist, doc=dist_prop.__doc__)

    def uninstall():
        graphs.WeightedGraph.dist = dist_prop
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return uninstall
