"""The Markov operator P, its walks P^l f, and the first-order calculus
d, d*, gradient on a weighted graph.

Conventions fixed here and used everywhere:

* p(x, y) = mu_xy / (m(x) m(y)),   P f(x) = sum_y p(x, y) f(y) m(y)
* Delta = I - P
* d f(x, y) = f(x) - f(y)          (the 1-form differential)
* d* F(x) = sum_y p(x, y) F(x, y) m(y)
* ||F(x, .)||_{T_x}^2 = (1/2) sum_y p(x, y) m(y) |F(x, y)|^2

and every L^p norm carries the vertex measure m.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .graphs import ROW_BLOCK_ENTRIES, WeightedGraph

# Most levels (P^l f, or T_k(X) f) that a walk holds in its one reused
# chunk (`_chain_blocks`); the chunk also stays within ROW_BLOCK_ENTRIES
# entries, so its memory grows with neither the horizon nor the width of
# a block.
LEVEL_CHUNK = 64

# Most stored entries in one of a graph's kernel chains (`_chain`): a
# chain of W copies that fits the cache makes the walk of a small graph
# one kernel call per chunk of levels, while a large graph's chain is a
# single copy, so its walk costs what a call per level costs.
CHAIN_ENTRIES = 1 << 14


def thread_cap() -> int:
    """The cores this process may run on, up to 4.  The package runs on
    the calling thread and reads no thread count; the benchmark records
    this one in its run metadata (`riesz.thread_cap`)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


def _count(g: WeightedGraph, calls: int, cols: int):
    """Add products to g's counts."""
    g.matvec_calls += calls
    g.matvec_cols += cols


# -- vertex functions ---------------------------------------------------

def per_row(w, f):
    """The vector w shaped to scale the rows of f: f itself when f is a
    vector, each column when f is an (n, k) block."""
    return np.reshape(w, (-1,) + (1,) * (np.ndim(f) - 1))


def lp_norm(g: WeightedGraph, f, p=2):
    """m-weighted L^p norm of a vertex function; the (k,) norms of the
    columns of an (n, k) block."""
    f = np.asarray(f, dtype=float)
    if p == np.inf:
        norm = np.abs(f).max(axis=0, initial=0.0)
    else:
        norm = np.sum(np.abs(f) ** p * per_row(g.m, f), axis=0) ** (1.0 / p)
    return float(norm) if f.ndim == 1 else norm


def inner(g: WeightedGraph, f, h) -> float:
    """m-weighted inner product <f, h>."""
    return float(np.sum(np.asarray(f) * np.asarray(h) * g.m))


def mean_project(g: WeightedGraph, f):
    """Remove the m-mean, i.e. project onto the orthogonal of ker Delta;
    an (n, k) block is projected column by column."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 2:
        return f - (g.m @ f) / g.total_volume()
    return f - inner(g, f, np.ones(g.n)) / g.total_volume()


def random_mean_zero(g: WeightedGraph, rng):
    f = rng.standard_normal(g.n)
    mean = (g.m @ f) / g.total_volume()
    return f - mean


# -- the Markov operator -------------------------------------------------

def markov_matrix(g: WeightedGraph) -> sp.csr_matrix:
    """Sparse matrix W with P f = W f, i.e. W[x, y] = p(x, y) m(y)."""
    if g._markov is None:
        inv_m = sp.diags(1.0 / g.m)
        g._markov = (inv_m @ g.adjacency).tocsr()
    return g._markov


def markov_step(g: WeightedGraph, x):
    """P x, a new array, for a vector or an (n, k) block x: the one
    product of P with a dense operand.

    scipy's own CSR kernel runs on the arrays of `markov_matrix(g)` with
    the dispatch of `W @ x` (a vector or a single column through
    csr_matvec, a wider block through csr_matvecs on its C-ordered
    copy), so the result is bit-identical to `markov_matrix(g) @ x`.
    Each call adds one to `g.matvec_calls` and its column count to
    `g.matvec_cols`."""
    x = _operand(g, x)
    return _kernel_step(g, markov_matrix(g), x, np.zeros(x.shape))


def _operand(g: WeightedGraph, x):
    """x as a float vector or (n, k) block on g's vertices; any other shape
    raises ValueError, since the kernel indexes raw buffers."""
    x = np.asarray(x, dtype=float)
    if x.shape[:1] != (g.n,) or x.ndim > 2:
        raise ValueError(f"P acts on {g.n} vertices, not on shape {x.shape}")
    return x


def _kernel_step(g: WeightedGraph, W, x, out):
    """`markov_step` added into out, a C-contiguous float array of x's
    shape that must not share memory with x (the kernel adds into it, so
    a zero-filled out receives the product itself), with W =
    markov_matrix(g)."""
    n = g.n
    csr = W.indptr, W.indices, W.data
    if x.ndim == 1:
        cols = 1
        _sparsetools.csr_matvec(n, n, *csr, x, out)
    else:
        cols = x.shape[1]
        if cols == 1:
            _sparsetools.csr_matvec(n, n, *csr, x.ravel(), out.reshape(-1))
        else:
            _sparsetools.csr_matvecs(n, n, cols, *csr, x.ravel(), out.reshape(-1))
    _count(g, 1, cols)
    return out


def spectral_interval(g: WeightedGraph):
    """(lo, hi), an interval holding the spectrum of P, from (LB) at no
    cost.  By Gershgorin every eigenvalue lies within sum_{y != x} W_xy
    of some W_xx (W = markov_matrix(g)), so none lies below
    min_x (2 W_xx - sum_y W_xy) = min_x (2 p(x, x) m(x) - 1) >= -1, and
    none of the stochastic P lies above 1.  Both ends are widened by
    (max_degree + 1) ulps of 1, the rounding of a row sum of W, so a lazy
    graph (p(x, x) m(x) = 1/2) gets lo + hi = 1 exactly."""
    W = markov_matrix(g)
    widen = (g.max_degree + 1) * float(np.finfo(float).eps)
    gershgorin = 2.0 * W.diagonal() - np.add.reduceat(W.data, W.indptr[:-1])
    return max(-1.0, float(gershgorin.min())) - widen, 1.0 + widen


def _chain(g: WeightedGraph, kind):
    """(steps, indptr, indices, data) of the kernel chain of one of g's
    walks, built once per graph and kind and cached on it: `steps` copies
    of a step matrix S, copy j reading column block j of a buffer and
    adding into row block j + lag of it (`_kernel`), blocks of n entries.

    kind "walk" is the level walk, S = W = markov_matrix(g) (lag 1),
    which the Horner scan walks too.  An interval (lo, hi) is the
    Chebyshev recurrence T_{k+1} = 2 X T_k - T_{k-1} in the affine image
    X = (2P - (hi + lo) I)/(hi - lo) of P that maps [lo, hi] onto
    [-1, 1]: S = [-I | 2X] (lag 2), 2X being 2W with (hi + lo) taken off
    its diagonal and scaled by 2/(hi - lo), exact zeros dropped, and the
    -I entry last in every row.  Every S keeps W's in-row entry order
    (the rows are tiled, never sorted), so on [-1, 1] each step of the
    recurrence is made as `markov_step` makes it, doubled.  steps is the
    largest count up to LEVEL_CHUNK whose chain holds at most
    CHAIN_ENTRIES entries, and at least one."""
    if kind not in g._chains:
        n, W = g.n, markov_matrix(g)
        indptr, indices, data = W.indptr, W.indices, W.data
        if kind != "walk":
            lo, hi = kind
            rows = np.repeat(np.arange(n), np.diff(indptr))
            x = np.arange(n, dtype=indices.dtype)
            two_x = 2.0 * data
            on_diag = indices == rows
            two_x[on_diag] -= hi + lo
            no_diag = np.full(n, -(hi + lo))  # the diagonal of a row without a loop
            no_diag[rows[on_diag]] = 0.0
            scale = 2.0 / (hi - lo)
            rows, cols, vals = (np.concatenate(p) for p in (
                (rows, x, x), (n + indices, n + x, x),
                (scale * two_x, scale * no_diag, np.full(n, -1.0))))
            keep = vals != 0.0
            order = np.argsort(rows[keep], kind="stable")  # each row in its given order
            indices, data = cols[keep][order].astype(W.indices.dtype), vals[keep][order]
            counts = np.bincount(rows[keep], minlength=n)
            indptr = np.concatenate(([0], np.cumsum(counts))).astype(W.indptr.dtype)
        entries = len(data)
        steps = max(1, min(LEVEL_CHUNK, CHAIN_ENTRIES // max(entries, 1)))
        copies = np.arange(steps, dtype=indptr.dtype)[:, None]
        g._chains[kind] = (
            steps,
            np.append(indptr[:-1] + copies * entries, steps * entries).astype(indptr.dtype),
            (indices + copies * n).ravel(),
            np.tile(data, steps),
        )
    return g._chains[kind]


def _lag(kind) -> int:
    """Blocks from the first block a step of a chain of this kind reads to
    the block it writes: one for the walk, two for an interval's."""
    return 1 if kind == "walk" else 2


def _kernel(g: WeightedGraph, buf, cols: int, kind="walk"):
    """scipy's CSR kernel bound to g's chain of the given kind (`_chain`)
    and to buf, the flat C-contiguous float buffer of one walk of
    `cols`-column operands: a function run(first, steps) that makes
    `steps` chained products in place on buf, reading from level `first`
    on and adding each product into the level `_lag` ahead of the first
    level it reads (a zero-filled row, or a pre-filled one for the Horner
    scan), one kernel call per chain length of steps with argument tuples
    made once per (first, steps), and adds them to the graph's counts.

    The kernel is called with its output ahead of its input, two views of
    buf.  That is well defined: scipy's kernel computes its rows in order
    (y[i] = y[i] + sum of the row's entries times x, read and written
    through plain pointers), and `_sparsetools` hands C-contiguous
    float64 operands over without a copy, so level j + lag reads the
    levels that the same call has just written, entry by entry as one
    `markov_step` reads them.  Only rows up to the last step's output are
    passed, and never more steps than the chain holds: the kernel checks
    no bounds."""
    chain, *csr = _chain(g, kind)
    n, lag = g.n, _lag(kind)
    width = (chain + lag - 1) * n  # columns one call reads
    if cols == 1:
        kernel, head = _sparsetools.csr_matvec, (width,)
    else:
        kernel, head = _sparsetools.csr_matvecs, (width, cols)
    calls = {}

    def run(first, steps):
        if (first, steps) not in calls:
            calls[first, steps] = [
                (min(chain, steps - j) * n, *head, *csr,
                 buf[(first + j) * n * cols:], buf[(first + j + lag) * n * cols:])
                for j in range(0, steps, chain)]
        for args in calls[first, steps]:
            kernel(*args)
        _count(g, steps, steps * cols)

    return run


def cone_gather(table, index, ones, out):
    """out[i] += sum_j table[index[i, j]] for a (b, c) integer index into
    the rows of a C-contiguous (N,) or (N, k) float table, summed in the
    order of j; out is a zero-filled C-contiguous float array of shape
    (b,) + table.shape[1:].

    It is one CSR product whose data are all ones: row i holds the
    columns index[i], so scipy's kernel gathers and adds each row without
    a (b, c[, k]) temporary.  index must be a C-contiguous int32 array,
    or intp when N >= 2^31; ones is a float array of at least b c ones,
    so one buffer serves every block of a sum."""
    b, c = index.shape
    indptr = np.arange(0, b * c + 1, c, dtype=index.dtype)
    csr = indptr, index.reshape(-1), ones[:b * c]
    N = table.shape[0]
    if table.ndim == 1 or table.shape[1] == 1:
        _sparsetools.csr_matvec(b, N, *csr, table.reshape(-1), out.reshape(-1))
    else:
        _sparsetools.csr_matvecs(b, N, table.shape[1], *csr, table.reshape(-1),
                                 out.reshape(-1))
    return out


def apply_P(g: WeightedGraph, f, k: int = 1):
    """P^k f by k sparse applications; accepts (n,) or (n, batch)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = np.asarray(f, dtype=float)
    for _ in range(k):
        out = markov_step(g, out)
    return out


def delta_steps(g: WeightedGraph, X, k: int):
    """Delta^k X in place: k exact steps X -= P X, one product each, on a
    float vector or block X; returns X."""
    for _ in range(k):
        X -= apply_P(g, X)
    return X


def _zero_fill(run, lo, block, start):
    """The default pass of `_chain_blocks`: block[start:] zero-filled,
    then made by one chained kernel call."""
    block[start:].fill(0.0)
    run(start, len(block) - start)


def _chain_blocks(g: WeightedGraph, u, N: int, kind="walk", fill=_zero_fill):
    """The chunked walk of `level_blocks`, `chebyshev_blocks` and
    `horner`: levels 0..N of a walk from u (a float vector or (n, k)
    block) on g's chain of the given kind, yielded as (lo, block),
    block[i] level lo + i, in one reused, level-major chunk of at most
    min(LEVEL_CHUNK, ROW_BLOCK_ENTRIES // u.size) levels.  The buffer
    holds the `_lag` levels before the chunk (zeros before level 0).
    Each pass puts u in level 0 (on the first pass) and makes
    block[start:] (start = 1 on the first pass, else 0) through
    fill(run, lo, block, start), by `_kernel` calls run(i, steps), which
    add into block[i], ..., block[i + steps - 1] from the levels before
    them.  The hook sets those rows before they are added into: zeros
    and one call by default (`_zero_fill`), zeros for the Chebyshev
    walk, which also halves T_1 and projects a deflated level, and the
    U columns for the Horner scan, which pre-fills its rows.  The last
    levels are copied to the front of the buffer before block is
    yielded, so the consumer may overwrite block; the next pass
    overwrites it."""
    lag = _lag(kind)
    size = max(1, min(LEVEL_CHUNK, N + 1, ROW_BLOCK_ENTRIES // max(u.size, 1)))
    buf = np.zeros((size + lag,) + u.shape)
    run = _kernel(g, buf.reshape(-1), u.shape[1] if u.ndim == 2 else 1, kind)
    for lo in range(0, N + 1, size):
        block = buf[lag:lag + min(size, N + 1 - lo)]
        start = 0 if lo else 1  # the first level the pass makes
        if not lo:
            block[0] = u
        fill(run, lo, block, start)
        buf[:lag] = buf[len(block):len(block) + lag]
        yield lo, block


def level_blocks(g: WeightedGraph, f, L: int):
    """Walk P^0 f, P^1 f, ..., P^L f with exactly L sparse products and
    yield them as (lo, block): block[i] = P^(lo + i) f for a vector or an
    (n, k) block f, each level a contiguous row of one reused,
    level-major chunk (`_chain_blocks`).  Nothing is yielded when L < 0.

    Each pass adds every level into its zero-filled row from the row
    before it, which the same chained kernel call (`_kernel`) has just
    written, so every level is bit-identical to repeated `markov_step`.
    block is overwritten by the next pass; the consumer may overwrite it
    (the walk resumes from its own copy of the last level)."""
    if L < 0:
        return
    yield from _chain_blocks(g, _operand(g, f), L)


def heat_sweep(g: WeightedGraph, f, s_values):
    """P^s f for every integer time s as an (n, S) block (an (n, S, k)
    block for an (n, k) f) from one walk of the power sequence; no times
    give an (n, 0) block.  Consecutive times (a profile's levels, a bz1
    table) are copied a slice of each chunk at a time, any others
    through an index."""
    steps = np.array([int(s) for s in s_values], dtype=int)
    if np.any(steps != np.asarray(s_values, dtype=float)):
        raise ValueError("heat families need integer times s")
    if np.any(steps < 0):
        raise ValueError("s must be >= 0")
    out = np.empty((g.n, len(steps)) + np.shape(f)[1:])
    first = steps[0] if len(steps) and np.all(np.diff(steps) == 1) else None
    for lo, rows in level_blocks(g, f, int(steps.max(initial=-1))):
        if first is None:
            hit = np.flatnonzero((steps >= lo) & (steps < lo + len(rows)))
            out[:, hit] = np.moveaxis(rows[steps[hit] - lo], 0, 1)
        elif lo + len(rows) > first:
            a, b = max(lo, first), min(lo + len(rows), first + len(steps))
            out[:, a - first:b - first] = np.moveaxis(rows[a - lo:b - lo], 0, 1)
    return out


def horner(g: WeightedGraph, U: np.ndarray) -> np.ndarray:
    """sum_{k < K} P^k U[:, k] for an (n, K) array U, by the Horner scan
    acc <- U[:, k] + P acc from k = K - 2 down to 0, starting from
    acc = U[:, K - 1]: exactly max(K - 1, 0) sparse products (none, and
    the plain sum of U's columns, when K < 2).

    The scan is the level walk from U[:, K - 1] (`_chain_blocks`) with
    level j pre-filled: before each pass's kernel call, its fill hook
    copies the pass's columns U[:, K - 1 - j], in scan order, into the
    chunk's contiguous rows.  scipy's kernel adds each product into its
    output row (y[i] += ...), so level j is U[:, K - 1 - j] + P acc,
    U[:, k] added first, and the scan is bit-identical to the loop
    acc <- `_kernel_step` of acc into a copy of U[:, k]."""
    K = U.shape[1]
    if K < 2:
        return U.sum(axis=1)

    def fill(run, lo, block, start):
        block[start:] = U[:, K - lo - len(block):K - lo - start][:, ::-1].T
        run(start, len(block) - start)

    *_, (_, block) = _chain_blocks(g, _operand(g, U[:, K - 1]), K - 1, fill=fill)
    return block[-1].copy()


def chebyshev_blocks(g: WeightedGraph, f, N: int, interval=(-1.0, 1.0), deflate=False):
    """Walk T_0(X) f, T_1(X) f, ..., T_N(X) f, the Chebyshev polynomials
    of the first kind in X, with exactly N sparse products, and yield them
    as (lo, block): block[i] = T_(lo + i)(X) f for a vector or an (n, k)
    block f, in one reused, level-major chunk (`_chain_blocks`).  Nothing
    is yielded when N < 0.

    X = (2P - (hi + lo) I)/(hi - lo), the affine image of P that maps
    interval = (lo, hi) onto [-1, 1]; on (-1, 1) X is P.  Each pass is
    the chained recurrence T_{k+1} = 2 X T_k - T_{k-1} (`_chain`), its
    output two levels ahead of its first input; T_1 = X T_0 is the first
    step from a zero T_{-1}, halved.  On (-1, 1) every level is
    bit-identical to the three-term loop of `markov_step`: 2W and the
    halving scale exactly.

    With deflate, X acts on mean-zero functions: f is mean-projected on
    entry and each level after its product, so the rounding of each
    product along the constants is dropped instead of growing with k (a
    rank-one projection cannot sit in the sparse chain, so the deflated
    walk makes one kernel call per level).  A deflated vector is walked
    as its one-column block, so both take their means by the same
    reductions and give the same bits.  block is overwritten by the next
    pass; the walk resumes from its own copy of the last two levels."""
    if N < 0:
        return
    u = _operand(g, f)
    if deflate:
        u = mean_project(g, u.reshape(g.n, -1))

    def fill(run, lo, block, start):
        def walk(first, steps):
            if not deflate:
                return run(first, steps)
            for i in range(first, first + steps):
                run(i, 1)
                block[i] -= (g.m @ block[i]) / g.total_volume()

        block[start:].fill(0.0)
        if lo <= 1 < lo + len(block):  # T_1, halved
            walk(1 - lo, 1)
            block[1 - lo] *= 0.5
            start = 2 - lo
        walk(start, len(block) - start)

    for lo, block in _chain_blocks(g, u, N, tuple(interval), fill):
        yield lo, block.reshape((len(block),) + np.shape(f))


def gradient(g: WeightedGraph, f):
    """Length of the gradient,
    grad f(x) = ((1/2) sum_y p(x,y) |f(y)-f(x)|^2 m(y))^(1/2);
    accepts (n,) or (n, batch)."""
    f = np.asarray(f, dtype=float)
    A = g.adjacency
    m = per_row(g.m, f)
    quad = A @ (f * f) - 2.0 * f * (A @ f) + f * f * m
    return np.sqrt(np.maximum(quad, 0.0) / (2.0 * m))


# -- 1-forms --------------------------------------------------------------

@dataclass
class EdgeFunction:
    """Antisymmetric function on directed edges, stored in CSR slot order;
    (nnz, k) data holds k forms, one per column."""

    graph: WeightedGraph
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim > 2 or self.data.shape[:1] != (self.graph.adjacency.nnz,):
            raise ValueError("edge data must align with the adjacency slots")

    def __sub__(self, other):
        return EdgeFunction(self.graph, self.data - other.data)


def differential(g: WeightedGraph, f) -> EdgeFunction:
    """d f(x, y) = f(x) - f(y) on every directed edge; an (n, k) block
    gives k forms."""
    f = np.asarray(f, dtype=float)
    return EdgeFunction(g, f[g.edge_rows] - f[g.edge_cols])


def divergence(g: WeightedGraph, F: EdgeFunction):
    """d* F(x) = sum_y p(x, y) F(x, y) m(y) = (1/m(x)) sum_y mu_xy F(x, y);
    k forms give an (n, k) block."""
    weighted = per_row(g.adjacency.data, F.data) * F.data
    sums = np.add.reduceat(weighted, g.adjacency.indptr[:-1])
    sums[np.diff(g.adjacency.indptr) == 0] = 0.0
    return sums / per_row(g.m, sums)


def tx_norms(g: WeightedGraph, F: EdgeFunction):
    """x -> ||F(x, .)||_{T_x}; k forms give an (n, k) block."""
    quad = np.square(F.data)
    quad *= per_row(g.adjacency.data, F.data)
    sums = np.add.reduceat(quad, g.adjacency.indptr[:-1])
    sums[np.diff(g.adjacency.indptr) == 0] = 0.0
    return np.sqrt(sums / per_row(2.0 * g.m, sums))


def lp_norm_forms(g: WeightedGraph, F: EdgeFunction, p=2) -> float:
    return lp_norm(g, tx_norms(g, F), p)


# -- CSV serialization ----------------------------------------------------

def load_vertex_csv(g: WeightedGraph, path):
    """A vertex function from a `vertex,value` CSV file, zero where it
    lists no value; a malformed row, a value that is not finite, an
    unknown label or a vertex listed twice raises ValueError naming the
    line."""
    label_index = g.label_index
    out, seen = np.zeros(g.n), set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.lower().startswith("vertex"):
            raise ValueError("expected a `vertex,value` header")
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                key, val = line.split(",")
                label, value = int(key), float(val)
            except ValueError:
                raise ValueError(f"{path}, line {number}: expected `vertex,value`, "
                                 f"not {line.strip()!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}, line {number}: {value} is not finite")
            if label not in label_index or label in seen:
                why = "is listed twice" if label in seen else "is no vertex label"
                raise ValueError(f"{path}, line {number}: {label} {why}")
            seen.add(label)
            out[label_index[label]] = value
    return out
