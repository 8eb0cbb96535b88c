"""Weighted graphs, the path metric, balls and annuli.

A graph is a symmetric weight matrix mu_xy >= 0; the vertex measure is
m(x) = sum_y mu_xy (a self loop counts once).  Every L^p quantity in the
package is weighted by m.  Balls use the strict convention
B(x, r) = {y : d(x, y) < r}.  The path metric counts hops: the dense
metric `dist` holds them exactly as uint8 (diameter below 255) or uint16,
so no float n x n array is ever formed.  It is built by one level sweep
of all n breadth-first searches at once, 64 searches to a machine word:
about diameter x max_degree x n^2/64 word operations, so long
one-dimensional graphs (diameter near n) pay more than n separate
searches would.  Balls (`Ball`), annuli (`annulus_rings`) and tent
depths (`level_set_depths`) are read from `dist` and `ball_volumes`.  The
sparse ball matrices of `ball_matrices` are grown from the adjacency one
radius at a time, and neither they nor the connectivity check build
`dist`: a graph is connected when one breadth-first search from vertex 0
(`_search`) reaches every vertex.  The set distance (`distance_to`,
`set_distance`) reads rows of `dist` when the graph holds it and runs
that search from the set otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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


def _search(adjacency, sources):
    """Hop count from the non-empty vertex set `sources` to every vertex,
    -1 where none is reached, by one breadth-first search that reads the
    CSR arrays through memoryviews (no copy).  It takes one interpreter
    step per vertex and per stored entry whatever the diameter: about
    4 ms on a lazy path or cycle of 16,384 vertices and 0.6 ms on
    `lazy_torus_2d(48)` (2-core x86 VM).  It is a Python loop because a
    level-at-a-time numpy search pays about 10 us of call overhead per
    level, 160 ms on that path."""
    indptr, indices = memoryview(adjacency.indptr), memoryview(adjacency.indices)
    depth = [-1] * adjacency.shape[0]
    queue = []
    for x in np.asarray(sources).tolist():
        if depth[x] < 0:
            depth[x] = 0
            queue.append(x)
    # the queue grows while it is read, one level after another
    for x in queue:
        d = depth[x] + 1
        for y in indices[indptr[x]:indptr[x + 1]]:
            if depth[y] < 0:
                depth[y] = d
                queue.append(y)
    return np.array(depth, np.intp)


def _hop_counts(adjacency):
    """All-pairs hop counts of a connected graph and its diameter, as an
    (n x n unsigned integer array, int) pair, by one level sweep of every
    breadth-first search at once (the bit-parallel search of Akiba, Iwata
    and Yoshida, SIGMOD 2013).

    Bit y of row x of an (n, ceil(n/64)) uint64 array marks y as on the
    frontier of the search from x.  A search advances by OR-ing the
    frontiers of its neighbours, one `np.take` per neighbour slot (the
    lists are padded with the vertex itself), and keeps the bits it has
    not nxt before; level r ORs them into the binary digits of r, one
    bit plane per digit.  The planes are unpacked into the narrowest type
    above the diameter, one `row_blocks` block at a time.  The sweep costs
    about diameter x max_degree x n^2/64 word operations, so on long
    one-dimensional graphs (a lazy path of 2048 vertices, diameter 2047)
    it is slower than n separate searches would be."""
    n = adjacency.shape[0]
    degrees = np.diff(adjacency.indptr)
    ids = np.arange(n)
    slots = np.tile(ids, (int(degrees.max()), 1))
    owner = np.repeat(ids, degrees)
    slots[np.arange(adjacency.nnz) - adjacency.indptr[owner], owner] = adjacency.indices
    frontier = np.zeros((n, -(-n // 64)), np.uint64)
    # set through bytes, so vertex y is bit y % 8 of byte y // 8 of a row
    # whatever the byte order of the words
    frontier.view(np.uint8)[ids, ids >> 3] = np.left_shift(1, ids & 7).astype(np.uint8)
    unreached = ~frontier
    nxt = np.empty_like(frontier)
    gathered = np.empty_like(frontier)
    planes = []
    diameter = 0
    while True:
        np.take(frontier, slots[0], axis=0, out=nxt)
        for column in slots[1:]:
            np.take(frontier, column, axis=0, out=gathered)
            nxt |= gathered
        nxt &= unreached
        if not nxt.any():
            break
        unreached ^= nxt
        diameter += 1
        if diameter >> len(planes):
            planes.append(np.zeros_like(frontier))
        for k, plane in enumerate(planes):
            if diameter >> k & 1:
                plane |= nxt
        frontier, nxt = nxt, frontier
    # freed before `out` is made, so the peak is the planes and `out`
    del frontier, nxt, unreached, gathered
    out = np.zeros((n, n), _narrowest(diameter))
    for rows in row_blocks(range(n), n):
        block = out[rows.start:rows.stop]
        for k, plane in enumerate(planes):
            bits = np.unpackbits(plane[rows.start:rows.stop].view(np.uint8), axis=1,
                                 count=n, bitorder="little")
            block |= np.left_shift(bits, k, dtype=out.dtype)
    return out, diameter


class WeightedGraph:
    """Connected weighted graph with cached metric structure.

    Parameters
    ----------
    adjacency:
        Symmetric nonnegative sparse matrix of finite edge weights mu_xy.
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
        if not np.isfinite(A.data).all():
            raise ValueError(f"edge weight {A.data[~np.isfinite(A.data)][0]} is not finite")
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
        if self.n == 0:
            raise DisconnectedGraph("the graph has no vertices")
        unreached = np.flatnonzero(_search(A, [0]) < 0)
        if unreached.size:
            raise DisconnectedGraph(f"vertex {unreached[0]} is not reachable from vertex 0")
        self.labels = np.arange(self.n) if labels is None else np.asarray(labels)
        self.meta = dict(meta or {})
        # degree counts every neighbour with mu_xy > 0, the vertex itself
        # included when it carries a loop
        self.degrees = np.diff(A.indptr)
        self.max_degree = int(self.degrees.max())
        self._dist = None
        self._diameter = None
        self._ball_volumes = None
        self._oracle = None
        self._spectra = {}  # spectrum records by source, `calculus.spectrum`
        self._geometry = None
        self._markov = None
        self._chains = {}  # kernel chains of the walks, `operators._chain`
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
        diameter is below 255 and uint16 otherwise, from the bitset level
        sweep of `_hop_counts` (about diameter x max_degree x n^2/64 word
        operations; see there for where that loses to n searches).  Cast
        before arithmetic that can leave that range, such as squaring."""
        if self._dist is None:
            self._dist, self._diameter = _hop_counts(self.adjacency)
        return self._dist

    @property
    def diameter(self):
        """Largest distance: the last level of the sweep that builds
        `dist`."""
        if self._diameter is None:
            self.dist
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
        vertex 0 (the graph is bipartite), read from `distance_to`."""
        if self._aperiodic is None:
            if self.adjacency.diagonal().any():
                self._aperiodic = True
            else:
                parity = distance_to(self, [0]) % 2
                self._aperiodic = bool(np.any(parity[self.edge_rows] == parity[self.edge_cols]))
        return self._aperiodic

    @property
    def label_index(self):
        """Vertex index by label, the id of graph files, CSVs and the CLI."""
        return {int(l): i for i, l in enumerate(self.labels)}

    def total_volume(self):
        return float(self.m.sum())

    # -- directed-edge bookkeeping (used by 1-forms) --------------------

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
    """Read `x y mu` lines (# comments allowed) or the JSON variant, an
    `edges` list of such triples; ValueError names a malformed row."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        rows = json.loads(text).get("edges")
        if not isinstance(rows, list):
            raise ValueError(f"{path}: a JSON graph needs an `edges` list")
        rows = [(f"edge {number}", row, row) for number, row in enumerate(rows)]
    else:
        rows = [(f"line {number}", line.strip(), line.split())
                for number, line in enumerate(text.splitlines(), start=1)
                if line.strip() and not line.strip().startswith("#")]
    edges = []
    for where, shown, row in rows:
        try:
            x, y, mu = row
            edges.append((int(x), int(y), float(mu)))
        except (TypeError, ValueError):
            raise ValueError(f"{path}, {where}: expected `x y mu`, not {shown!r}") from None
    return build_graph(edges)


# -- balls and annuli --------------------------------------------------

@dataclass
class Ball:
    """Strict ball B(x, r) = {y : d(x, y) < r}: its volume is read from
    `ball_volumes`, and its mask from the centre's `dist` row, made on
    first access and kept."""

    graph: WeightedGraph
    center: int
    radius: float

    @property
    def volume(self) -> float:
        g = self.graph
        return float(g.ball_volumes[self.center, min(math.ceil(self.radius), g.diameter + 1) - 1])

    @cached_property
    def mask(self) -> np.ndarray:
        return self.graph.dist[self.center] < self.radius


def ball(g: WeightedGraph, x: int, r) -> Ball:
    if r < 1:
        raise ValueError("ball radius must be >= 1")
    return Ball(g, x, r)


def vertex_indices(g: WeightedGraph, V, name) -> np.ndarray:
    """The vertex indices V as an integer array; ValueError names the first
    outside [0, n), which numpy would otherwise wrap (a negative index) or
    refuse with an IndexError."""
    V = np.asarray(list(V), dtype=int)
    outside = V[(V < 0) | (V >= g.n)]
    if outside.size:
        raise ValueError(f"{name} holds vertex {outside[0]}, outside [0, {g.n})")
    return V


def distance_to(g: WeightedGraph, F) -> np.ndarray:
    """d(y, F) for every vertex y, as integers, for the non-empty set F:
    the least of the `dist` rows of F, a `row_blocks` block at a time,
    when the graph holds its metric, and otherwise one breadth-first
    search from all of F (`_search`), so the metric is never built.
    The rows keep the search out of `gaffney_fit` on a graph with
    `dist`: searching there made its jobs 12-15% slower on
    `lazy_torus_2d(32)` and `lazy_torus_2d(48)` (20 alternating benchmark
    runs each)."""
    if g._dist is None:
        return _search(g.adjacency, F)
    out = np.full(g.n, np.iinfo(g._dist.dtype).max, g._dist.dtype)
    for rows in row_blocks(np.asarray(F), g.n):
        np.minimum(out, g._dist[rows].min(axis=0), out=out)
    return out.astype(np.intp)


def set_distance(g: WeightedGraph, E, F) -> int:
    """d(E, F) = min d(x, y) over x in E and y in F (0 when they meet)."""
    E = vertex_indices(g, E, "E")
    F = vertex_indices(g, F, "F")
    if not (E.size and F.size):
        raise ValueError("E and F must be non-empty")
    return int(distance_to(g, F)[E].min())


def level_set_depths(g: WeightedGraph, values, thresholds) -> np.ndarray:
    """(len(thresholds), n) array of d(y, {values <= t}) at [i, y] for
    t = thresholds[i], as floats, +inf where no value is <= t: the depth
    of every vertex in each level set {values > t}.  Sorted by value, each
    complement is a prefix of the vertices, so one running minimum of the
    `dist` rows over that order (`np.minimum.accumulate`), a `row_blocks`
    block at a time, gives the distance to every prefix."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    counts = np.searchsorted(values[order], thresholds, side="right")
    out = np.full((len(counts), g.n), np.inf)
    live = np.flatnonzero(counts)
    if not live.size:
        return out
    prefix = order[:counts.max()]
    for rows in row_blocks(range(g.n), prefix.size):
        block = g.dist[rows.start:rows.stop, prefix]
        np.minimum.accumulate(block, axis=1, out=block)
        out[live, rows.start:rows.stop] = block[:, counts[live] - 1].T
    return out


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


def annulus_rings(g: WeightedGraph, balls):
    """The annuli C_j(B), j = 1..J_B, of every ball B of `balls`, J_B the
    first j where 2^{j+1} B is the whole graph, read from g.dist and
    g.ball_volumes: (ring, J, volumes) with ring[i, y] = j - 1 for the
    annulus C_j of balls[i] holding y, J[i] = J_B, and volumes[i, j - 1]
    = V(2^j B) (the total volume for j past J[i])."""
    centers = np.array([B.center for B in balls], dtype=np.intp)
    R = np.array([float(B.radius) for B in balls])
    J = np.ones(len(balls), dtype=np.intp)
    while (grow := 2.0 ** (J + 1) * R <= g.diameter).any():
        J += grow
    d = g.dist[centers]
    ring = np.zeros(d.shape, dtype=np.intp)
    for j in range(2, J.max() + 1):
        ring += d >= 2.0 ** j * R[:, None]
    j = np.arange(1, J.max() + 1)
    reach = np.minimum(np.ceil(2.0 ** j * R[:, None]) - 1, g.diameter).astype(np.intp)
    return ring, J, g.ball_volumes[centers[:, None], reach]


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
        return json.dumps(vars(self), default=vars)


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
