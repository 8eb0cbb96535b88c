import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from oracles import (annulus, annulus_cover, ball_matrix_dense, ball_volume_mask,
                     cover_overlap_bound, geometry_report_masks, graphs as random_graphs,
                     vitali_cover, write_graph)

from graphhardy import graphs, zoo
from graphhardy.errors import DisconnectedGraph, NegativeWeight, ZeroMeasureVertex
from graphhardy.graphs import (
    WeightedGraph,
    ball,
    ball_matrices,
    build_graph,
    geometry_report,
    read_graph,
    set_distance,
)

hypothesis = pytest.importorskip("hypothesis")


def test_build_k2l_measure(k2l):
    np.testing.assert_allclose(k2l.m, [2.0, 2.0])
    assert k2l.diameter == 1


def test_build_single_loop_vertex():
    g = build_graph([(7, 7, 1.0)])
    assert g.n == 1
    np.testing.assert_allclose(g.m, [1.0])
    assert g.diameter == 0


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph([(0, 0, 1.0), (1, 1, 1.0)])


def test_build_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        build_graph([(0, 1, -1.0)])


def test_build_rejects_zero_measure():
    with pytest.raises(ZeroMeasureVertex):
        build_graph([(0, 1, 0.0)])


@pytest.mark.parametrize("mu", ["inf", "nan"])
def test_a_non_finite_weight_is_refused_by_name(tmp_path, mu):
    # an infinite weight would pass on to NaN measures and NaN reports,
    # and a NaN one fail the symmetry check (NaN != NaN): both are
    # refused as not finite, from a matrix and from a graph file
    A = np.array([[1.0, float(mu)], [float(mu), 1.0]])
    with pytest.raises(ValueError, match=f"edge weight {mu} is not finite"):
        WeightedGraph(A)
    p = tmp_path / "g.txt"
    p.write_text(f"0 1 {mu}\n0 0 1.0\n1 1 1.0\n")
    with pytest.raises(ValueError, match=f"edge weight {mu} is not finite"):
        read_graph(p)


def test_build_consistent_duplicates_ok():
    g = build_graph([(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0), (1, 1, 1.0)])
    np.testing.assert_allclose(g.m, [3.0, 3.0])
    with pytest.raises(ValueError):
        build_graph([(0, 1, 2.0), (1, 0, 3.0)])


def test_metric_symmetry_triangle(cycle16, path9, torus8):
    for g in (cycle16, path9, torus8):
        D = g.dist.astype(np.int64)
        np.testing.assert_array_equal(D, D.T)
        for k in range(g.n):
            assert np.all(D <= D[:, [k]] + D[[k], :] + 1e-9)


def middle_rooted_path(n):
    """lazy_path(n) renumbered so that vertex 0 is the middle vertex: its
    eccentricity is half the diameter."""
    perm = np.roll(np.arange(n), -(n // 2))
    A = zoo.lazy_path(n).adjacency
    return WeightedGraph(A[perm][:, perm])


def random_tree(n, seed):
    """A random recursive tree on n vertices with loops on a random
    third of them, so the degrees are irregular."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(v)), v, 1.0) for v in range(1, n)]
    loops = rng.choice(n, n // 3, replace=False)
    return build_graph(edges + [(int(x), int(x), 1.0) for x in loops])


METRIC_GRAPHS = {
    "k2l": (zoo.k2l, np.uint8),
    "tree4": (lambda: zoo.binary_tree(4), np.uint8),
    "jittered_cycle16": (lambda: zoo.random_weights(zoo.lazy_cycle(16), 2), np.uint8),
    "torus6": (lambda: zoo.lazy_torus_2d(6), np.uint8),
    "loopfree_cycle4": (lambda: build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                             (3, 0, 1.0)]), np.uint8),
    # diameter 254, the largest uint8 holds
    "path255": (lambda: zoo.lazy_path(255), np.uint8),
    "path256": (lambda: zoo.lazy_path(256), np.uint16),
    "cycle600": (lambda: zoo.lazy_cycle(600), np.uint16),
    # vertex 0 is the middle one: its row tops out at 150, yet the
    # diameter 299 needs uint16
    "middle_path300": (lambda: middle_rooted_path(300), np.uint16),
    # the frontiers fill exactly one 64-bit word, then spill one bit into
    # a second
    "cycle64": (lambda: zoo.lazy_cycle(64), np.uint8),
    "cycle65": (lambda: zoo.lazy_cycle(65), np.uint8),
    # irregular degrees over four words
    "tree200": (lambda: random_tree(200, 5), np.uint8),
}


def _ball_volumes_from(g, D):
    """V[x, r] = m({y : D[x, y] <= r}) from shell masses, on a float metric."""
    width = int(D.max()) + 1
    shells = np.zeros((g.n, width))
    for x in range(g.n):
        shells[x] = np.bincount(D[x].astype(np.intp), weights=g.m, minlength=width)
    return np.cumsum(shells, axis=1)


@pytest.mark.parametrize("block_rows", [7, None])
@pytest.mark.parametrize("name", sorted(METRIC_GRAPHS))
def test_dist_is_narrow_exact_hop_counts(name, block_rows, monkeypatch):
    # the bitset sweep, unpacked a block of rows at a time, holds value
    # for value the float metric of scipy's all-pairs search, in the
    # narrowest type for the diameter; the diameter it records and the
    # ball volumes read from the metric agree
    build, dtype = METRIC_GRAPHS[name]
    g = build()
    if block_rows:
        monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", block_rows * g.n)
    want = shortest_path(g.adjacency, method="D", unweighted=True)
    assert g.dist.dtype == dtype
    assert g.dist.shape == (g.n, g.n)
    assert np.array_equal(g.dist.astype(float), want)
    assert g.diameter == int(want.max())
    assert (g.diameter < 255) == (dtype == np.uint8)
    np.testing.assert_array_equal(g.ball_volumes, _ball_volumes_from(g, want))


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(random_graphs())
def test_dist_is_scipy_hop_counts(g):
    want = shortest_path(g.adjacency, method="D", unweighted=True)
    assert g.dist.dtype == np.uint8
    assert np.array_equal(g.dist.astype(float), want)
    assert g.diameter == int(want.max())


def test_ball_examples(k2l):
    b1 = ball(k2l, 0, 1)
    assert list(np.flatnonzero(b1.mask)) == [0]
    assert b1.volume == 2.0
    b2 = ball(k2l, 0, 2)
    assert list(np.flatnonzero(b2.mask)) == [0, 1]
    assert b2.volume == 4.0


def test_ball_radius_one_is_center(cycle16):
    for x in (0, 3, 11):
        b = ball(cycle16, x, 1)
        assert list(np.flatnonzero(b.mask)) == [x]
        assert b.volume == cycle16.m[x]


def test_ball_volume_monotone(cycle16):
    vols = [ball(cycle16, 0, r).volume for r in range(1, cycle16.diameter + 2)]
    diffs = np.diff(vols)
    assert np.all(diffs[:-1] > 0) or np.all(diffs >= 0)
    # strictly increasing until the ball saturates
    total = cycle16.total_volume()
    for r in range(1, cycle16.diameter + 1):
        if vols[r - 1] < total:
            assert vols[r] > vols[r - 1]


@pytest.mark.parametrize("block_rows", [3, None])
@pytest.mark.parametrize("build", [
    zoo.k2l,
    lambda: zoo.lazy_torus_2d(6),
    lambda: zoo.random_weights(zoo.lazy_cycle(16), 2),
    lambda: zoo.binary_tree(4),
    lambda: zoo.lazy_path(12),
], ids=["k2l", "torus6", "jittered_cycle16", "tree4", "path12"])
def test_ball_volumes_match_balls(build, block_rows, monkeypatch):
    # V[x, r] is the mask sum of the strict ball B(x, r + 1), built in row
    # blocks (3 rows each, or the default size)
    g = build()
    if block_rows:
        monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", block_rows * g.n)
    V = g.ball_volumes
    assert V.shape == (g.n, g.diameter + 1)
    want = [[ball_volume_mask(g, x, r + 1) for r in range(g.diameter + 1)]
            for x in range(g.n)]
    np.testing.assert_allclose(V, want, rtol=1e-15, atol=0)
    np.testing.assert_allclose(V[:, -1], g.total_volume(), rtol=1e-14)


@pytest.mark.parametrize("build, exact", [
    (zoo.k2l, True),
    (lambda: zoo.lazy_cycle(16), True),
    (lambda: zoo.lazy_path(12), True),
    (lambda: zoo.lazy_torus_2d(6), True),
    (lambda: zoo.binary_tree(4), True),
    (lambda: zoo.random_weights(zoo.lazy_cycle(16), 2), False),
    (lambda: zoo.random_weights(zoo.lazy_torus_2d(16), 3), False),
], ids=["k2l", "cycle16", "path12", "torus6", "tree4", "jittered_cycle16",
        "jittered_torus16"])
def test_ball_volume_is_the_mask_sum(build, exact):
    # a ball's volume, read from `ball_volumes`, is the sum of m over its
    # mask at integer and fractional radii from 1 past the diameter:
    # equal on unit weights, within 1e-15 once the weights are jittered
    g = build()
    radii = np.arange(2, 2 * (g.diameter + 2) + 1) / 2
    got = np.array([[ball(g, x, r).volume for r in radii] for x in range(g.n)])
    want = np.array([[ball_volume_mask(g, x, r) for r in radii] for x in range(g.n)])
    if exact:
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_ball_is_centre_and_radius(cycle16):
    # a ball holds its centre and radius only: the mask is made from the
    # centre's `dist` row on first access and kept, the volume is read
    # from the table, and the graph has no volume of a mask
    B = ball(cycle16, 3, 2.5)
    assert [f.name for f in dataclasses.fields(B)] == ["graph", "center", "radius"]
    assert "mask" not in vars(B)
    assert B.mask is B.mask
    np.testing.assert_array_equal(np.flatnonzero(B.mask), [1, 2, 3, 4, 5])
    assert B.volume == cycle16.ball_volumes[3, 2] == 5 * cycle16.m[0]
    assert not hasattr(cycle16, "volume")


@pytest.mark.parametrize("build", [
    zoo.k2l,
    lambda: zoo.binary_tree(4),
    lambda: zoo.lazy_path(12),
    lambda: zoo.random_weights(zoo.lazy_cycle(16), 2),
    lambda: zoo.lazy_torus_2d(6),
    lambda: build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
    lambda: zoo.lazy_torus_2d(32),
], ids=["k2l", "tree4", "path12", "jittered_cycle16", "torus6", "loopfree_cycle4",
        "torus32"])
def test_ball_matrices_match_dense_scan(build):
    # grown hop by hop, every radius has the CSR arrays of the dense scan
    # of dist < r, past saturation too, where the full matrix is yielded
    # again without being rebuilt
    g = build()
    r_max = g.diameter + 3
    grown = list(ball_matrices(g, r_max))
    assert len(grown) == r_max
    for r, B in enumerate(grown, start=1):
        want = ball_matrix_dense(g, r)
        assert type(B) is type(want) and B.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(B, name), getattr(want, name)
            assert got.dtype == ref.dtype, (r, name)
            np.testing.assert_array_equal(got, ref, err_msg=f"r = {r}, {name}")
    assert grown[g.diameter].nnz == g.n * g.n
    assert all(B is grown[g.diameter] for B in grown[g.diameter + 1:])


@pytest.mark.parametrize("build", [
    zoo.k2l,
    lambda: zoo.binary_tree(4),
    lambda: zoo.lazy_path(12),
    lambda: zoo.random_weights(zoo.lazy_cycle(16), 2),
    lambda: zoo.random_weights(zoo.lazy_torus_2d(6), 5),
    lambda: build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
], ids=["k2l", "tree4", "path12", "jittered_cycle16", "jittered_torus6",
        "loopfree_cycle4"])
def test_set_distance_matches_the_metric(build):
    # the breadth-first search from F gives the integer the dense metric
    # gives, 0 when the sets meet, without building the metric
    g = build()
    rng = np.random.default_rng(3)
    pairs = [([0], [g.n - 1]), ([g.n - 1], [0]), ([0], [0]), (range(g.n), [1])]
    for _ in range(20):
        E = rng.choice(g.n, size=rng.integers(1, min(g.n, 3) + 1), replace=False)
        F = rng.choice(g.n, size=rng.integers(1, min(g.n, 3) + 1), replace=False)
        pairs.append((E, F))
    got = [set_distance(g, E, F) for E, F in pairs]
    assert g._dist is None
    want = [int(g.dist[np.ix_(list(E), list(F))].min()) for E, F in pairs]
    assert got == want
    assert got[2] == got[3] == 0
    assert all(type(d) is int for d in got)


def test_set_distance_needs_both_sets(cycle16):
    for E, F in (([], [0]), ([0], [])):
        with pytest.raises(ValueError):
            set_distance(cycle16, E, F)


def test_annuli_k2l(k2l):
    b = ball(k2l, 0, 1)
    rings = [annulus(b, j) for j in (1, 2)]
    assert set(np.flatnonzero(rings[0])) == {0, 1}
    assert not rings[1].any()


def test_annuli_cycle8(cycle8):
    b = ball(cycle8, 0, 1)
    c1 = annulus(b, 1)
    expected = {y for y in range(8) if cycle8.dist[0, y] < 4}
    assert set(np.flatnonzero(c1)) == expected
    assert len(expected) == 7


def test_annuli_empty_beyond_diameter(cycle16):
    b = ball(cycle16, 0, cycle16.diameter + 1)
    for j in range(2, 5):
        assert not annulus(b, j).any()


def _check_vitali(g, b, alpha):
    fam = vitali_cover(g, b, alpha)
    taken = np.zeros(g.n, dtype=bool)
    big = ball(g, b.center, alpha * b.radius)
    for B in fam:
        assert np.all(big.mask[B.mask])
        assert not np.any(taken & B.mask)
        taken |= B.mask
    covered = np.zeros(g.n, dtype=bool)
    for B in fam:
        covered |= g.dist[B.center] < 3 * B.radius
    assert np.all(covered[big.mask])
    return fam


def test_vitali_path(path9):
    _check_vitali(path9, ball(path9, 4, 1), 4.0)


def test_vitali_alpha_one(cycle16):
    fam = _check_vitali(cycle16, ball(cycle16, 0, 2), 1.0)
    assert len(fam) >= 1


def test_vitali_k2l(k2l):
    fam = _check_vitali(k2l, ball(k2l, 0, 1), 2.0)
    assert len(fam) <= 2


def _check_annulus_cover(g, b, j):
    fam = annulus_cover(g, b, j)
    ring = annulus(b, j)
    if not ring.any():
        assert fam == []
        return fam
    covered = np.zeros(g.n, dtype=bool)
    mult = np.zeros(g.n)
    allowed = annulus(b, j).copy()
    if j >= 2:
        allowed |= annulus(b, j - 1)
    allowed |= annulus(b, j + 1)
    for B in fam:
        assert B.radius == b.radius
        covered |= B.mask
        mult += B.mask
        assert np.all(allowed[B.mask])
    assert np.all(covered[ring])
    doubling = geometry_report(g).doubling_constant
    assert mult.max() <= cover_overlap_bound(g, int(b.radius), doubling)
    return fam


def test_annulus_cover_small_radius(cycle16):
    b = ball(cycle16, 0, 2)
    fam = _check_annulus_cover(cycle16, b, 1)
    assert {B.center for B in fam} == set(np.flatnonzero(annulus(b, 1)))


def test_annulus_cover_cycle32(cycle32):
    _check_annulus_cover(cycle32, ball(cycle32, 0, 4), 1)
    _check_annulus_cover(cycle32, ball(cycle32, 0, 3), 2)


def test_annulus_cover_empty(cycle16):
    b = ball(cycle16, 0, cycle16.diameter + 1)
    assert annulus_cover(cycle16, b, 3) == []


def test_geometry_k2l(k2l):
    rep = geometry_report(k2l)
    assert rep.eps_LB == pytest.approx(0.5)
    assert rep.M0 == 2


def test_geometry_lazy_cycle(cycle16):
    rep = geometry_report(cycle16)
    assert rep.eps_LB == pytest.approx(0.5)
    assert 0.8 <= rep.d0_estimate <= 1.3


def test_geometry_torus32_growth_exponent():
    g = zoo.lazy_torus_2d(32)
    rep = geometry_report(g)
    assert abs(rep.d0_estimate - 2.0) <= 0.2


def test_graph_file_roundtrip(tmp_path, cycle8):
    p_text = tmp_path / "g.txt"
    p_json = tmp_path / "g.json"
    write_graph(cycle8, p_text)
    write_graph(cycle8, p_json, fmt="json")
    for p in (p_text, p_json):
        g2 = read_graph(p)
        assert g2.n == cycle8.n
        assert (g2.adjacency != cycle8.adjacency).nnz == 0
    payload = json.loads(p_json.read_text())
    assert "edges" in payload


def test_graph_file_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n0 1 1.0\n0 0 1.0\n1 1 1.0\n")
    g = read_graph(p)
    assert g.n == 2
    np.testing.assert_allclose(g.m, [2.0, 2.0])


def test_graph_file_names_a_bad_row(tmp_path):
    # a malformed row is refused with its line (its entry in JSON), and
    # a JSON object without an edge list with the file
    p = tmp_path / "g.txt"
    for text, where in (("10 20\n", "line 1: expected `x y mu`, not '10 20'"),
                        ("# c\n0 1 1.0\n\n1 2 x\n", "line 4:"),
                        ("0 1 1.0 2\n", "line 1:")):
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}, {where}")):
            read_graph(p)
    p = tmp_path / "g.json"
    for edges in ([[0, 1, 1.0], [1, 2]], [[0, 1, 1.0], "1 2 1.0"]):
        p.write_text(json.dumps({"edges": edges}))
        with pytest.raises(ValueError, match=re.escape(f"{p}, edge 1:")):
            read_graph(p)
    for payload in ({"nodes": []}, {"edges": 3}):
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{p}: a JSON graph needs an `edges`")):
            read_graph(p)


def test_annuli_union_covers_graph(cycle16, torus8):
    for g in (cycle16, torus8):
        b = ball(g, 0, 2)
        _, J, _ = graphs.annulus_rings(g, [b])
        union = np.zeros(g.n, dtype=bool)
        for j in range(1, J[0] + 1):
            union |= annulus(b, j)
        assert np.all(union)


@pytest.mark.parametrize("g, exact", [
    (zoo.lazy_cycle(16), True),
    (zoo.lazy_torus_2d(8), True),
    (zoo.binary_tree(4), True),
    (zoo.random_weights(zoo.lazy_torus_2d(8), 3), False),
    # above 2,000 vertices every centre is still read
    (zoo.random_weights(zoo.lazy_torus_2d(48), 3), False),
])
def test_geometry_report_matches_ball_masks(g, exact):
    # the report reads its volume table off `ball_volumes`; the reference
    # builds it from one dense ball mask per radius.  Same doubling
    # constant and growth exponent: bit for bit on unweighted fixtures, to
    # rounding once the weights are jittered (the volumes differ in the
    # last bit there)
    rep = geometry_report(g)
    doubling, d0 = geometry_report_masks(g)
    if exact:
        assert (rep.doubling_constant, rep.d0_estimate) == (doubling, d0)
    else:
        assert rep.doubling_constant == pytest.approx(doubling, rel=1e-12)
        assert rep.d0_estimate == pytest.approx(d0, rel=1e-12, abs=1e-14)


def test_aperiodic():
    # period 2 exactly for a loop-free bipartite graph; one loop or one
    # odd cycle makes the walk aperiodic; the parity comes from one search,
    # so the metric is not built
    square = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    g = build_graph(square)
    assert not g.aperiodic
    assert g._dist is None
    assert build_graph(square + [(2, 2, 0.5)]).aperiodic
    assert build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).aperiodic
    assert not build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).aperiodic
    assert build_graph([(7, 7, 1.0)]).aperiodic
    for g in (zoo.k2l(), zoo.lazy_cycle(8), zoo.lazy_torus_2d(4)):
        assert g.aperiodic
