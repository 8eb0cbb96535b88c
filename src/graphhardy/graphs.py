"""Weighted graphs, the path metric, balls/annuli and covering algorithms.

A graph is a symmetric weight matrix mu_xy >= 0; the vertex measure is
m(x) = sum_y mu_xy (a self loop counts once).  Every L^p quantity in the
package is weighted by m.  Balls use the strict convention
B(x, r) = {y : d(x, y) < r}.  The path metric counts hops: the dense
metric `dist` holds them exactly as uint8 (diameter below 255) or uint16,
filled a block of rows at a time by breadth-first searches, so no float
n x n array is ever formed.  The sparse ball matrices of `ball_matrices`
are grown from the adjacency one radius at a time, and `distance_to`
searches breadth-first from one set; neither builds `dist`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DisconnectedGraph, NegativeWeight, ZeroMeasureVertex

# `dist` and the tables built from it are filled a block of rows at a
# time, about this many entries per block, so none of them needs an
# n x n temporary.
ROW_BLOCK_ENTRIES = 1 << 18


def row_blocks(rows, n):
    """Consecutive slices of `rows` holding about ROW_BLOCK_ENTRIES / n
    rows of an n-column table each."""
    step = max(1, ROW_BLOCK_ENTRIES // n)
    return [rows[lo:lo + step] for lo in range(0, len(rows), step)]


def _narrowest(top):
    """The narrowest unsigned integer type whose largest value exceeds
    `top`."""
    return next(t for t in (np.uint8, np.uint16, np.uint32) if top < np.iinfo(t).max)


def _hop_counts(adjacency) -> np.ndarray:
    """All-pairs hop counts of a connected graph as an n x n unsigned
    integer array, filled one block of rows at a time by breadth-first
    searches.

    The type is picked before the build from the eccentricity of vertex
    0: ecc(0) <= diameter <= 2 ecc(0), so the narrowest type above ecc(0)
    holds the diameter whenever it also lies above 2 ecc(0).  Otherwise a
    block that reaches the type's largest value widens the array (an
    integer copy, never a float one)."""
    n = adjacency.shape[0]
    ecc = dijkstra(adjacency, indices=0, unweighted=True).max()
    out = np.empty((n, n), _narrowest(ecc))
    for rows in row_blocks(np.arange(n), n):
        block = dijkstra(adjacency, indices=rows, unweighted=True)
        top = block.max()
        if top >= np.iinfo(out.dtype).max:
            out = out.astype(_narrowest(top))
        out[rows] = block
    return out


class WeightedGraph:
    """Connected weighted graph with cached metric structure.

    Parameters
    ----------
    adjacency:
        Symmetric nonnegative sparse matrix of edge weights mu_xy.
        Diagonal entries are self loops.
    labels:
        Optional original vertex ids (for file round trips).
    meta:
        Optional generator metadata (used by the CLI to resolve
        coordinates on structured fixtures).
    """

    def __init__(self, adjacency, labels=None, meta=None):
        A = sp.csr_matrix(adjacency, dtype=float)
        A.eliminate_zeros()
        A.sum_duplicates()
        A.sort_indices()
        if A.shape[0] != A.shape[1]:
            raise ValueError("adjacency must be square")
        if (A != A.T).nnz != 0:
            raise ValueError("adjacency must be symmetric")
        if A.nnz and A.data.min() < 0:
            raise NegativeWeight("negative edge weight")
        self.n = A.shape[0]
        self.adjacency = A
        self.m = np.asarray(A.sum(axis=1)).ravel()
        if np.any(self.m <= 0):
            bad = int(np.where(self.m <= 0)[0][0])
            raise ZeroMeasureVertex(f"vertex {bad} has m(x) = 0")
        ncomp, _ = connected_components(A, directed=False)
        if ncomp != 1:
            raise DisconnectedGraph(f"{ncomp} connected components")
        self.labels = np.arange(self.n) if labels is None else np.asarray(labels)
        self.meta = dict(meta or {})
        # degree counts every neighbour with mu_xy > 0, the vertex itself
        # included when it carries a loop
        self.degrees = np.diff(A.indptr)
        self.max_degree = int(self.degrees.max())
        self._dist = None
        self._diameter = None
        self._ball_volumes = None
        self._rev_edges = None
        self._oracle = None
        self._geometry = None
        self._markov = None
        self._aperiodic = None
        # products with the Markov matrix made on this graph, counted by
        # `operators.markov_step`: calls, and columns (an (n, k) block is
        # one call of k columns)
        self.matvec_calls = 0
        self.matvec_cols = 0

    # -- metric -------------------------------------------------------

    @property
    def dist(self):
        """Dense all-pairs hop counts d(x, y), exact, as uint8 when the
        diameter is below 255 and uint16 otherwise (`_hop_counts`).  Cast
        before arithmetic that can leave that range, such as squaring."""
        if self._dist is None:
            self._dist = _hop_counts(self.adjacency)
        return self._dist

    @property
    def diameter(self):
        """Largest distance, reduced from `dist` once (the graph is
        immutable)."""
        if self._diameter is None:
            self._diameter = int(self.dist.max())
        return self._diameter

    @property
    def ball_volumes(self):
        """V[x, r] = m({y : d(x, y) <= r}), the volume of B(x, r + 1), for
        r = 0..diameter (the last column is the total volume), built once
        from shell masses with one bincount per block of rows.  Two
        threads building it at once only repeat the same work."""
        if self._ball_volumes is None:
            width = self.diameter + 1
            V = np.empty((self.n, width))
            for rows in row_blocks(np.arange(self.n), self.n):
                b = len(rows)
                cells = self.dist[rows].astype(np.intp)
                cells += np.arange(b)[:, None] * width
                shells = np.bincount(cells.ravel(), weights=np.tile(self.m, b),
                                     minlength=b * width)
                V[rows] = np.cumsum(shells.reshape(b, width), axis=1)
            self._ball_volumes = V
        return self._ball_volumes

    @property
    def aperiodic(self):
        """Whether the walk is aperiodic.  A connected reversible walk has
        period 1 or 2: a loop makes it 1, and without loops it is 2 exactly
        when every edge joins vertices of opposite distance parity from
        vertex 0 (the graph is bipartite)."""
        if self._aperiodic is None:
            if self.adjacency.diagonal().any():
                self._aperiodic = True
            else:
                parity = self.dist[0].astype(np.intp) % 2
                self._aperiodic = bool(np.any(parity[self.edge_rows] == parity[self.edge_cols]))
        return self._aperiodic

    def total_volume(self):
        return float(self.m.sum())

    def volume(self, mask):
        return float(self.m[mask].sum())

    # -- directed-edge bookkeeping (used by 1-forms) --------------------

    @property
    def rev_edges(self):
        """Permutation sending the CSR slot of (x, y) to the slot of (y, x)."""
        if self._rev_edges is None:
            A = self.adjacency
            coo = A.tocoo()
            order = np.lexsort((coo.col, coo.row))
            assert np.all(order == np.arange(A.nnz))
            rev_order = np.lexsort((coo.row, coo.col))
            self._rev_edges = rev_order
        return self._rev_edges

    @property
    def edge_rows(self):
        if getattr(self, "_edge_rows", None) is None:
            self._edge_rows = np.repeat(
                np.arange(self.n), np.diff(self.adjacency.indptr)
            )
        return self._edge_rows

    @property
    def edge_cols(self):
        return self.adjacency.indices

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={self.adjacency.nnz})"


def build_graph(edges, meta=None) -> WeightedGraph:
    """Build a connected graph from (x, y, mu) triples.

    Each undirected pair may be supplied once or consistently twice;
    conflicting duplicates are rejected.  Vertex ids are arbitrary
    nonnegative integers and are compacted internally.
    """
    seen = {}
    for x, y, mu in edges:
        if mu < 0:
            raise NegativeWeight(f"edge ({x},{y}) weight {mu} < 0")
        key = (x, y) if x <= y else (y, x)
        if key in seen and not np.isclose(seen[key], mu, rtol=0, atol=0):
            raise ValueError(f"inconsistent duplicate weight for edge {key}")
        seen[key] = float(mu)
    ids = sorted({v for key in seen for v in key})
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    rows, cols, vals = [], [], []
    for (x, y), mu in seen.items():
        if mu == 0.0:
            continue
        i, j = index[x], index[y]
        rows.append(i)
        cols.append(j)
        vals.append(mu)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(mu)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return WeightedGraph(A, labels=np.array(ids), meta=meta)


# -- graph file I/O ----------------------------------------------------

def read_graph(path) -> WeightedGraph:
    """Read `x y mu` lines (# comments allowed) or the JSON variant."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        edges = [(int(x), int(y), float(mu)) for x, y, mu in payload["edges"]]
        return build_graph(edges)
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        x, y, mu = line.split()
        edges.append((int(x), int(y), float(mu)))
    return build_graph(edges)


def write_graph(g: WeightedGraph, path, fmt="text"):
    coo = sp.triu(g.adjacency).tocoo()
    triples = [
        (int(g.labels[i]), int(g.labels[j]), float(v))
        for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            json.dump({"edges": [[x, y, mu] for x, y, mu in triples]}, fh)
        else:
            fh.write("# x y mu\n")
            for x, y, mu in triples:
                fh.write(f"{x} {y} {mu}\n")


# -- balls and annuli --------------------------------------------------

@dataclass
class Ball:
    """Strict ball B(x, r) = {y : d(x, y) < r} with its measure."""

    graph: WeightedGraph
    center: int
    radius: float
    mask: np.ndarray = field(repr=False)
    volume: float

    @property
    def members(self):
        return np.where(self.mask)[0]

    def scaled(self, lam) -> "Ball":
        return ball(self.graph, self.center, lam * self.radius)

    def __contains__(self, vertex):
        return bool(self.mask[vertex])


def ball(g: WeightedGraph, x: int, r) -> Ball:
    if r < 1:
        raise ValueError("ball radius must be >= 1")
    mask = g.dist[x] < r
    return Ball(g, x, r, mask, g.volume(mask))


def distance_to(g: WeightedGraph, F) -> np.ndarray:
    """d(y, F) for every vertex y, as floats, by one breadth-first search
    from all of the non-empty set F on the adjacency, so the n x n metric
    is never built."""
    return dijkstra(g.adjacency, indices=F, unweighted=True, min_only=True)


def set_distance(g: WeightedGraph, E, F) -> int:
    """d(E, F) = min d(x, y) over x in E and y in F (0 when they meet)."""
    E = np.asarray(E, dtype=int)
    F = np.asarray(F, dtype=int)
    if not (E.size and F.size):
        raise ValueError("E and F must be non-empty")
    return int(distance_to(g, F)[E].min())


def ball_matrices(g: WeightedGraph, r_max: int):
    """Yield B_1, ..., B_{r_max}: sparse 0/1 matrices whose row x is the
    indicator of the strict ball B(x, r), so (B_r @ (u m))(x) is the
    mass of u m on B(x, r).

    Distances are hop counts, so B_1 = I and B_{r+1} is the pattern of
    B_r (I + A), one sparse product per radius; `dist` is never read.
    Once a step leaves the pattern unchanged the balls are saturated and
    the last matrix is yielded again without further products."""
    B = sp.identity(g.n, format="csr")
    step = B + g.adjacency
    step.data[:] = 1.0
    saturated = False
    for r in range(1, r_max + 1):
        yield B
        if r < r_max and not saturated:
            grown = B @ step
            saturated = grown.nnz == B.nnz
            if not saturated:
                grown.data[:] = 1.0
                grown.sort_indices()
                B = grown


@dataclass
class Annulus:
    """C_j(B) = 2^{j+1} B \\ 2^j B for j >= 2, and C_1(B) = 4B."""

    base: Ball
    j: int
    mask: np.ndarray = field(repr=False)

    @property
    def members(self):
        return np.where(self.mask)[0]

    @property
    def volume(self):
        return self.base.graph.volume(self.mask)


def annulus(b: Ball, j: int) -> Annulus:
    if j < 1:
        raise ValueError("annulus index must be >= 1")
    if j == 1:
        mask = b.scaled(4).mask
    else:
        mask = b.scaled(2 ** (j + 1)).mask & ~b.scaled(2 ** j).mask
    return Annulus(b, j, mask)


def annuli(b: Ball, j_max: int):
    return [annulus(b, j) for j in range(1, j_max + 1)]


def annuli_covering_range(b: Ball):
    """All annuli up to the first index where 2^{j+1} B saturates."""
    out = []
    j = 1
    while True:
        out.append(annulus(b, j))
        if 2 ** (j + 1) * b.radius > b.graph.diameter:
            break
        j += 1
    return out


# -- covering algorithms -----------------------------------------------

def vitali_cover(g: WeightedGraph, b: Ball, alpha) -> list:
    """Greedy maximal family of disjoint radius-r balls inside alpha*B.

    Scanning centers in ascending vertex order guarantees maximality,
    hence the tripled balls cover alpha*B.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    r = b.radius
    big = b.scaled(alpha)
    taken = np.zeros(g.n, dtype=bool)
    out = []
    for x in range(g.n):
        cand = g.dist[x] < r
        if not np.all(big.mask[cand]):
            continue
        if np.any(taken & cand):
            continue
        taken |= cand
        out.append(Ball(g, x, r, cand, g.volume(cand)))
    return out


# -- geometry diagnostics ----------------------------------------------

@dataclass
class GeometryReport:
    doubling_constant: float
    d0_estimate: float
    eps_LB: float
    M0: int
    n: int
    diameter: int

    def to_json(self):
        return json.dumps(vars(self), indent=2, default=vars)


def cached_geometry(g: WeightedGraph) -> "GeometryReport":
    if g._geometry is None:
        g._geometry = geometry_report(g)
    return g._geometry


def geometry_report(g: WeightedGraph) -> GeometryReport:
    """Measure the volume-doubling constant, growth exponent and the
    walk's diagonal lower bound.

    The doubling constant is sup over (x, r) of V(x, 2r)/V(x, r); the
    exponent is an OLS fit of log mean-ratio against log lambda for
    lambda in {2, 4, 8} over all feasible (x, r) with lambda * r <= diam.
    Every vertex is a centre, and the volumes are the rows of
    `ball_volumes`.  p(x, x) = mu_xx / m(x)^2.
    """
    p_xx = g.adjacency.diagonal() / (g.m * g.m)
    eps_lb = float(np.min(p_xx * g.m))

    diam = g.diameter
    radii = np.arange(1, max(diam, 1) + 2)
    # V[x, r-1] = volume of B(x, r); last column saturates at Gamma
    vols = g.ball_volumes[:, np.minimum(radii - 1, diam)]
    doubling = 1.0
    for r in range(1, max(diam, 1) + 1):
        ratio = vols[:, min(2 * r, len(radii)) - 1] / vols[:, r - 1]
        doubling = max(doubling, float(ratio.max()))

    lams, logs = [], []
    for lam in (2, 4, 8):
        # radius 1 balls are single vertices and badly bias the growth fit
        feasible = [r for r in radii if lam * r <= diam and r >= 2]
        if not feasible:
            continue
        ratios = [vols[:, lam * r - 1] / vols[:, r - 1] for r in feasible]
        lams.append(np.log(lam))
        logs.append(np.log(np.mean(np.concatenate(ratios))))
    if len(lams) >= 2:
        slope = np.polyfit(lams, logs, 1)[0]
        d0 = float(max(slope, 0.0))
    elif len(lams) == 1:
        d0 = float(max(logs[0] / lams[0], 0.0))
    else:
        d0 = 0.0

    return GeometryReport(
        doubling_constant=doubling,
        d0_estimate=d0,
        eps_LB=eps_lb,
        M0=g.max_degree,
        n=g.n,
        diameter=diam,
    )
