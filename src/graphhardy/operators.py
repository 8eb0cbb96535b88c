"""The Markov operator P, its kernel iterates, and the first-order
calculus d, d*, gradient on a weighted graph.

Conventions fixed here and used everywhere:

* p(x, y) = mu_xy / (m(x) m(y)),   P f(x) = sum_y p(x, y) f(y) m(y)
* Delta = I - P
* d f(x, y) = f(x) - f(y)          (the 1-form differential)
* d* F(x) = sum_y p(x, y) F(x, y) m(y)
* ||F(x, .)||_{T_x}^2 = (1/2) sum_y p(x, y) m(y) |F(x, y)|^2

and every L^p norm carries the vertex measure m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .graphs import ROW_BLOCK_ENTRIES, WeightedGraph

# Kernel matrices densify once l exceeds the diameter; keep a cap so a
# runaway l cannot exhaust memory on large graphs.
KERNEL_L_CAP = 4096

# Most levels P^l f that `level_blocks` holds in its one reused chunk; the
# chunk also stays within ROW_BLOCK_ENTRIES entries, so its memory grows
# with neither the horizon nor the width of a block.
LEVEL_CHUNK = 64


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


def random_mean_zero(g: WeightedGraph, rng, size=None):
    shape = (g.n,) if size is None else (g.n, size)
    f = rng.standard_normal(shape)
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
    """`markov_step` added into out, a zero-filled C-contiguous float
    array of x's shape that must not share memory with x (the kernel
    adds into it), with W = markov_matrix(g)."""
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
    g.matvec_calls += 1
    g.matvec_cols += cols
    return out


def _kernel(W, cols: int):
    """`_kernel_step`'s kernel for operands of `cols` columns, bound to W
    once for a walk: a function (x, out) of flat C-contiguous float
    buffers that adds W x into out.  It counts nothing; the walks add
    their products to the graph's counts once per pass."""
    csr = W.indptr, W.indices, W.data
    if cols == 1:
        return functools.partial(_sparsetools.csr_matvec, *W.shape, *csr)
    return functools.partial(_sparsetools.csr_matvecs, *W.shape, cols, *csr)


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


def level_blocks(g: WeightedGraph, f, L: int):
    """Walk P^0 f, P^1 f, ..., P^L f with exactly L sparse products and
    yield them as (lo, block): block[i] = P^(lo + i) f for a vector or an
    (n, k) block f, each level a contiguous row of one reused,
    level-major chunk of at most min(LEVEL_CHUNK, ROW_BLOCK_ENTRIES //
    (n k)) levels.  Nothing is yielded when L < 0.

    The chunk is zero-filled once per pass and the kernel adds each level
    into its row, so every level is bit-identical to repeated
    `markov_step`; the CSR arrays are bound once per walk and the
    products are counted once per pass.  block is overwritten by the
    next pass: the consumer uses it (it may overwrite it, the walk
    resumes from its own copy of the last level) before asking for the
    next."""
    if L < 0:
        return
    u = _operand(g, f)
    size = max(1, min(LEVEL_CHUNK, L + 1, ROW_BLOCK_ENTRIES // max(u.size, 1)))
    chunk = np.empty((size,) + u.shape)
    rows = list(chunk.reshape(size, u.size))  # flat row views, made once
    last = np.empty(u.size)
    cols = u.shape[1] if u.ndim == 2 else 1
    product = _kernel(markov_matrix(g), cols)
    for lo in range(0, L + 1, size):
        block = chunk[:min(size, L + 1 - lo)]
        block.fill(0.0)
        prev, first = last, 0
        if not lo:
            rows[0][...] = u.reshape(-1)
            prev, first = rows[0], 1
        for row in rows[first:len(block)]:
            product(prev, row)
            prev = row
        g.matvec_calls += len(block) - first
        g.matvec_cols += (len(block) - first) * cols
        last[...] = prev
        yield lo, block


def powers(g: WeightedGraph, f, L: int):
    """Yield P^0 f, P^1 f, ..., P^L f with exactly L sparse products, and
    nothing when L < 0; accepts (n,) or (n, batch).  Every term is a new
    array the caller may keep."""
    for _, rows in level_blocks(g, f, L):
        for row in rows:
            yield row.copy()


def heat_sweep(g: WeightedGraph, f, s_values):
    """P^s f for every integer time s as an (n, S) block (an (n, S, k)
    block for an (n, k) f) from one walk of the power sequence."""
    steps = np.array([int(s) for s in s_values], dtype=int)
    if np.any(steps != np.asarray(s_values, dtype=float)):
        raise ValueError("heat families need integer times s")
    if steps.min() < 0:
        raise ValueError("s must be >= 0")
    out = np.empty((g.n, len(steps)) + np.shape(f)[1:])
    for lo, rows in level_blocks(g, f, int(steps.max())):
        hit = np.flatnonzero((steps >= lo) & (steps < lo + len(rows)))
        out[:, hit] = np.moveaxis(rows[steps[hit] - lo], 0, 1)
    return out


def weighted_powers(g: WeightedGraph, f, weights) -> np.ndarray:
    """The (n, L + 1) array whose column l is weights[l] P^l f, L =
    len(weights) - 1, with exactly L sparse products; an (n, k) block f
    gives an (n, L + 1, k) array.  Each chunk of the walk is weighted in
    place and written into its columns with one transposed copy."""
    weights = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    out = np.empty((g.n, len(weights)) + f.shape[1:])
    for lo, rows in level_blocks(g, f, len(weights) - 1):
        hi = lo + len(rows)
        rows *= np.reshape(weights[lo:hi], (-1,) + (1,) * f.ndim)
        out[:, lo:hi] = np.moveaxis(rows, 0, 1)
    return out


def horner(g: WeightedGraph, U: np.ndarray) -> np.ndarray:
    """sum_{k < K} P^k U[:, k] for an (n, K) array U, by the Horner scan
    acc <- P acc + U[:, k] from k = K - 2 down to 0, starting from
    acc = U[:, K - 1]: exactly max(K - 1, 0) sparse products (zero when
    K = 0).

    Each step is one kernel call with [W | I] (W = markov_matrix(g);
    the (n, 2n) matrix is built once per graph) on the contiguous pair
    [acc; U[:, k]]: the identity entry comes last in every row, so the
    kernel adds U[:, k] after the product and the scan is bit-identical
    to the two-buffer loop acc <- W acc + U[:, k].  One level-major
    buffer holds the pairs: at most LEVEL_CHUNK columns are copied into
    it per pass, in scan order, each after the row that receives the
    product before it, and those rows are zero-filled once per pass."""
    n, K = g.n, U.shape[1]
    if K == 0:
        return np.zeros(n)
    if g._scan_matrix is None:
        W = markov_matrix(g)
        indptr = W.indptr + np.arange(n + 1, dtype=W.indptr.dtype)
        indices = np.insert(W.indices, W.indptr[1:], np.arange(n, 2 * n))
        data = np.insert(W.data, W.indptr[1:], 1.0)
        g._scan_matrix = sp.csr_matrix((data, indices, indptr), shape=(n, 2 * n))
    size = max(1, min(LEVEL_CHUNK, K - 1, ROW_BLOCK_ENTRIES // (2 * n)))
    # rows: acc, U[:, k], W acc + U[:, k], U[:, k - 1], ... : step j
    # reads rows 2j and 2j + 1 and writes row 2j + 2
    buf = np.empty((2 * size + 1, n))
    flat = buf.reshape(-1)
    pairs = [flat[2 * j * n:(2 * j + 2) * n] for j in range(size)]
    outs = list(buf[2::2])
    product = _kernel(g._scan_matrix, 1)
    buf[0] = U[:, K - 1]
    for hi in range(K - 1, 0, -size):
        lo = max(hi - size, 0)
        steps = hi - lo
        buf[1:2 * steps:2] = U[:, lo:hi][:, ::-1].T
        buf[2:2 * steps + 1:2] = 0.0
        for j in range(steps):
            product(pairs[j], outs[j])
        g.matvec_calls += steps
        g.matvec_cols += steps
        buf[0] = buf[2 * steps]
    return buf[0].copy()


def chebyshev(g: WeightedGraph, f, N: int, radius=None):
    """Yield T_0(X) f, T_1(X) f, ..., T_N(X) f, the Chebyshev polynomials
    of the first kind in X, with exactly N sparse products
    (T_{k+1} = 2 X T_k - T_{k-1}), and nothing when N < 0; accepts (n,)
    or (n, batch).

    X is P when radius is None.  Given a radius r, X = (P - Pi)/r on the
    mean-zero part of f, Pi the m-mean projection: f is mean-projected on
    entry and every product after it, so the rounding of each product
    along the constants is dropped instead of growing like T_k(1/r)."""
    if N < 0:
        return
    deflate = radius is not None
    u = prev = mean_project(g, f) if deflate else np.asarray(f, dtype=float)
    yield u
    for k in range(N):
        nxt = markov_step(g, u)
        if deflate:
            nxt -= (g.m @ nxt) / g.total_volume()
        scale = (2.0 if k else 1.0) / (radius if deflate else 1.0)
        if scale != 1.0:
            nxt *= scale
        if k:
            nxt -= prev
        prev, u = u, nxt
        yield u


def laplacian(g: WeightedGraph, f):
    return np.asarray(f, dtype=float) - apply_P(g, f)


def gradient(g: WeightedGraph, f):
    """Length of the gradient,
    grad f(x) = ((1/2) sum_y p(x,y) |f(y)-f(x)|^2 m(y))^(1/2);
    accepts (n,) or (n, batch)."""
    f = np.asarray(f, dtype=float)
    A = g.adjacency
    m = per_row(g.m, f)
    quad = A @ (f * f) - 2.0 * f * (A @ f) + f * f * m
    return np.sqrt(np.maximum(quad, 0.0) / (2.0 * m))


# -- kernel iterates -----------------------------------------------------

@dataclass
class KernelMatrix:
    """Entries p_l(x, y); symmetric, supported within distance l."""

    graph: WeightedGraph
    l: int
    matrix: sp.csr_matrix = field(repr=False)

    def entry(self, x, y) -> float:
        return float(self.matrix[x, y])

    def row_mass(self):
        """sum_y p_l(x, y) m(y) for every x; all ones by stochasticity."""
        return np.asarray(self.matrix @ self.graph.m).ravel()

    def validate(self) -> bool:
        """Symmetry, nonnegativity, unit mass, support within distance l,
        each to 1e-12."""
        M, tol = self.matrix, 1e-12
        if abs(M - M.T).max() > tol or np.abs(self.row_mass() - 1.0).max() > tol:
            return False
        if M.nnz and M.data.min() < -tol:
            return False
        stored = M.tocoo()
        far = self.graph.dist[stored.row, stored.col] > self.l
        return bool(np.all(stored.data[far] == 0.0))


def kernel(g: WeightedGraph, l: int) -> KernelMatrix:
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > KERNEL_L_CAP:
        raise ValueError(f"l = {l} exceeds the kernel cap {KERNEL_L_CAP}")
    K = sp.diags(1.0 / g.m).tocsr()
    W = markov_matrix(g)
    for _ in range(l):
        K = (W @ K).tocsr()
    return KernelMatrix(g, l, K)


def kernel_compose(a: KernelMatrix, b: KernelMatrix) -> KernelMatrix:
    """(p_k * p_l)(x, y) = sum_z p_k(x, z) p_l(z, y) m(z)."""
    g = a.graph
    M = (a.matrix @ sp.diags(g.m) @ b.matrix).tocsr()
    return KernelMatrix(g, a.l + b.l, M)


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

    def antisymmetry_defect(self) -> float:
        return float(np.abs(self.data + self.data[self.graph.rev_edges]).max(initial=0.0))

    def value(self, x, y) -> float:
        g = self.graph
        row = slice(g.adjacency.indptr[x], g.adjacency.indptr[x + 1])
        cols = g.adjacency.indices[row]
        hit = np.where(cols == y)[0]
        if len(hit) == 0:
            raise KeyError(f"({x}, {y}) is not an edge")
        return float(self.data[row][hit[0]])

    def __add__(self, other):
        return EdgeFunction(self.graph, self.data + other.data)

    def __sub__(self, other):
        return EdgeFunction(self.graph, self.data - other.data)

    def __mul__(self, scalar):
        return EdgeFunction(self.graph, self.data * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return EdgeFunction(self.graph, self.data / scalar)


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
    label_index = {int(l): i for i, l in enumerate(g.labels)}
    out = np.zeros(g.n)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.lower().startswith("vertex"):
            raise ValueError("expected a `vertex,value` header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, val = line.split(",")
            out[label_index[int(key)]] = float(val)
    return out
