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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import WeightedGraph

# Kernel matrices densify once l exceeds the diameter; keep a cap so a
# runaway l cannot exhaust memory on large graphs.
KERNEL_L_CAP = 4096


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


def apply_P(g: WeightedGraph, f, k: int = 1):
    """P^k f by k sparse applications; accepts (n,) or (n, batch)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    W = markov_matrix(g)
    out = np.asarray(f, dtype=float)
    for _ in range(k):
        out = W @ out
    return out


def powers(g: WeightedGraph, f, L: int):
    """Yield P^0 f, P^1 f, ..., P^L f with exactly L sparse products, and
    nothing when L < 0; accepts (n,) or (n, batch).

    The one home of the power sequence: outside this module only the
    Horner scan of synthesis steps the Markov matrix itself."""
    if L < 0:
        return
    W = markov_matrix(g)
    u = np.asarray(f, dtype=float)
    yield u
    for _ in range(L):
        u = W @ u
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

    def validate(self, tol=1e-12) -> bool:
        """Symmetry, nonnegativity, unit mass, support within distance l."""
        M = self.matrix
        if abs(M - M.T).max() > tol or np.abs(self.row_mass() - 1.0).max() > tol:
            return False
        if M.nnz and M.data.min() < -tol:
            return False
        dense = M.toarray()
        return bool(np.all(dense[self.graph.dist > self.l] == 0.0))


def kernel(g: WeightedGraph, l: int, l_cap: int = KERNEL_L_CAP) -> KernelMatrix:
    if l < 0:
        raise ValueError("l must be >= 0")
    if l > l_cap:
        raise ValueError(f"l = {l} exceeds the kernel cap {l_cap}")
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


def zero_form(g: WeightedGraph) -> EdgeFunction:
    return EdgeFunction(g, np.zeros(g.adjacency.nnz))


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
    """x -> ||F(x, .)||_{T_x}."""
    quad = g.adjacency.data * F.data ** 2
    sums = np.add.reduceat(quad, g.adjacency.indptr[:-1])
    sums[np.diff(g.adjacency.indptr) == 0] = 0.0
    return np.sqrt(sums / (2.0 * g.m))


def lp_norm_forms(g: WeightedGraph, F: EdgeFunction, p=2) -> float:
    return lp_norm(g, tx_norms(g, F), p)


def inner_forms(g: WeightedGraph, F: EdgeFunction, G: EdgeFunction) -> float:
    """L^2(T_Gamma) inner product, (1/2) sum_{x,y} p(x,y) F G m(x) m(y)."""
    return float(0.5 * np.sum(g.adjacency.data * F.data * G.data))


# -- CSV serialization ----------------------------------------------------

def save_vertex_csv(g: WeightedGraph, f, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex,value\n")
        for i, v in enumerate(np.asarray(f, dtype=float)):
            fh.write(f"{int(g.labels[i])},{float(v)!r}\n")


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


def save_edge_csv(g: WeightedGraph, F: EdgeFunction, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for e in range(g.adjacency.nnz):
            x = int(g.labels[g.edge_rows[e]])
            y = int(g.labels[g.edge_cols[e]])
            fh.write(f"{x},{y},{float(F.data[e])!r}\n")
