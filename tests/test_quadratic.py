import math
import os
import tracemalloc

import numpy as np
import pytest

from oracles import (
    bz1,
    cone_members,
    cone_members_tilde,
    naive_g_littlewood,
    naive_lusin,
    naive_lusin_tilde,
    naive_tent_functional,
    counting_markov,
)

from graphhardy import calculus, graphs, operators, zoo
from graphhardy.calculus import spectral
from graphhardy.errors import KernelComponent, PeriodicWalk
from graphhardy.hardy import heat_profile
from graphhardy.operators import (
    EdgeFunction,
    cone_gather,
    differential,
    lp_norm,
    mean_project,
    random_mean_zero,
)
from graphhardy.quadratic import (
    SHARED_PROFILE_MIN,
    SpaceTimeFunction,
    _profile_groups,
    default_l_max,
    g_littlewood,
    lusin,
    lusin_tilde,
    quad_norm,
    quad_norm_forms,
    tent_functional,
)


def test_lusin_k2l_hand_values(k2l, f0):
    L = lusin(k2l, f0, 1.0, 8)
    np.testing.assert_allclose(L, [1.0, 1.0], atol=1e-13)
    assert lp_norm(k2l, L, 1) == pytest.approx(4.0, abs=1e-12)


def test_lusin_refuses_a_negative_horizon(cycle16):
    f = np.ones(cycle16.n)
    with pytest.raises(ValueError, match="l_max must be >= 0, not -1"):
        lusin(cycle16, f, 1.0, -1)
    with pytest.raises(ValueError, match="l_max must be >= 0"):
        quad_norm(cycle16, f, 1.0, -1)


def test_lusin_kills_constants(cycle16):
    c = np.full(cycle16.n, 2.0)
    assert lp_norm(cycle16, lusin(cycle16, c, 1.0, 32), np.inf) < 1e-13


def test_lusin_matches_naive(cycle16, rng):
    for beta in (1.0, 0.5):
        for _ in range(3):
            f = random_mean_zero(cycle16, rng)
            fast = lusin(cycle16, f, beta, 40)
            slow = naive_lusin(cycle16, f, beta, 40)
            np.testing.assert_allclose(fast, slow, atol=1e-12)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("l_max", [0, 1, 3, 4, 8, 15, 16, 17, 40])
def test_lusin_radius_sums_at_every_horizon(cycle16, l_max, chunked, monkeypatch):
    # the levels are summed per cone radius [rho^2, (rho+1)^2) one walk
    # chunk at a time, so horizons on, just past and just short of a
    # square must all match the level-by-level oracle, also when the
    # chunks (5 levels of the block, 15 of a vector) cut the radii; each
    # column of a block matches its single-vector run
    if chunked:
        monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", 5 * 3 * cycle16.n)
    F = mean_project(cycle16, np.random.default_rng(l_max).standard_normal((cycle16.n, 3)))
    for beta in (1.0, 0.5):
        L = lusin(cycle16, F, beta, l_max)
        G = g_littlewood(cycle16, F, beta, l_max)
        for j in range(3):
            col = lusin(cycle16, F[:, j], beta, l_max)
            np.testing.assert_allclose(col, naive_lusin(cycle16, F[:, j], beta, l_max),
                                       atol=1e-12)
            np.testing.assert_allclose(L[:, j], col, rtol=1e-14, atol=1e-14 * col.max())
            np.testing.assert_allclose(G[:, j], naive_g_littlewood(cycle16, F[:, j], beta, l_max),
                                       atol=1e-12)


@pytest.mark.parametrize("k", [1, 3])
def test_cone_gather_reads_a_uint16_metric(k):
    # the diameter 256 puts the hop counts in uint16; the gather-product
    # sums T[y * width + d(x, y)] over y as the indexed sum does, with an
    # int32 index and with an intp one
    g = zoo.lazy_cycle(512)
    assert g.dist.dtype == np.uint16 and g.diameter == 256
    width = g.diameter + 1
    rng = np.random.default_rng(k)
    T = rng.standard_normal((g.n * width,) if k == 1 else (g.n * width, k))
    rows = rng.choice(g.n, 40, replace=False)
    index = np.add(g.dist[rows], np.arange(g.n, dtype=np.int32) * width, dtype=np.int32)
    want = T[index].sum(axis=1)
    for idx in (index, index.astype(np.intp)):
        got = cone_gather(T, idx, np.ones(idx.size), np.zeros(want.shape))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lusin_homogeneity(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    np.testing.assert_allclose(
        lusin(cycle16, -3.5 * f, 1.0, 24), 3.5 * lusin(cycle16, f, 1.0, 24), atol=1e-12
    )


def test_lusin_tilde_k2l(k2l, f0):
    Lt = lusin_tilde(k2l, f0, 1.0, 4)
    np.testing.assert_allclose(Lt, [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-13)


def test_lusin_tilde_kills_constants(cycle16):
    c = np.ones(cycle16.n)
    assert lp_norm(cycle16, lusin_tilde(cycle16, c, 1.0, 6), np.inf) < 1e-13


def test_lusin_tilde_matches_naive(cycle16, rng):
    for _ in range(3):
        f = random_mean_zero(cycle16, rng)
        fast = lusin_tilde(cycle16, f, 1.0, 6)
        slow = naive_lusin_tilde(cycle16, f, 1.0, 6)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_lusin_tilde_walks_k_squared_products(cycle16, rng):
    # P^{k^2} f for k = 0..K is read from one heat sweep of K^2 products
    f = random_mean_zero(cycle16, rng)
    for k_max in (0, 1, 2, 6, 9):
        count = counting_markov(cycle16)
        lusin_tilde(cycle16, f, 1.0, k_max)
        assert count.products == k_max ** 2


@pytest.mark.parametrize("name", ["cycle16", "torus8"])
def test_lusin_tilde_matches_naive_on_both_paths(name, path, request):
    # Delta f from the oracle or from its exact Chebyshev column, then the
    # sweep's levels against the naive loop's repeated steps
    g = request.getfixturevalue(name)
    f = random_mean_zero(g, np.random.default_rng(8))
    f /= lp_norm(g, f, 2)
    np.testing.assert_allclose(lusin_tilde(g, f, 1.0),
                               naive_lusin_tilde(g, f, 1.0, g.diameter + 1), rtol=0, atol=1e-12)


def test_lusin_tilde_comparable_to_lusin(cycle16, rng):
    # equivalent-space claim: the L^1 norms stay within a fixed band
    ratios = []
    for _ in range(10):
        f = random_mean_zero(cycle16, rng)
        a = lp_norm(cycle16, lusin(cycle16, f, 1.0), 1)
        b = lp_norm(cycle16, lusin_tilde(cycle16, f, 1.0), 1)
        ratios.append(b / a)
    assert max(ratios) / min(ratios) < 10.0


def test_g_littlewood_k2l(k2l, f0):
    G = g_littlewood(k2l, f0, 1.0, 8)
    np.testing.assert_allclose(G, [1.0, 1.0], atol=1e-13)


def test_g_littlewood_matches_naive(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    np.testing.assert_allclose(
        g_littlewood(cycle16, f, 1.0, 50),
        naive_g_littlewood(cycle16, f, 1.0, 50),
        atol=1e-12,
    )


def test_g_littlewood_l2_bounded(cycle16, rng):
    # ||G_1 f||_2 <= C ||f||_2 across seeds
    worst = 0.0
    for _ in range(20):
        f = random_mean_zero(cycle16, rng)
        worst = max(worst, lp_norm(cycle16, g_littlewood(cycle16, f, 1.0), 2)
                    / lp_norm(cycle16, f, 2))
    assert worst < 2.0


def test_tent_functional_k2l(k2l):
    vals = np.zeros((2, 1))
    vals[0, 0] = 1.0
    F = SpaceTimeFunction(k2l, vals)
    A = tent_functional(k2l, F)
    np.testing.assert_allclose(A, [1.0, 0.0], atol=1e-14)


def test_tent_functional_zero(cycle16):
    F = SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 5)))
    assert lp_norm(cycle16, tent_functional(cycle16, F), np.inf) == 0.0


def test_tent_functional_matches_naive(cycle16, rng):
    vals = rng.standard_normal((cycle16.n, 12))
    F = SpaceTimeFunction(cycle16, vals)
    np.testing.assert_allclose(
        tent_functional(cycle16, F), naive_tent_functional(cycle16, F), atol=1e-12
    )


# Graphs whose centres take the shared-profile tail tables, the per-radius
# masked sums, or both, with the number of rows each path takes.
CONE_GRAPHS = {
    "torus6": (lambda: zoo.lazy_torus_2d(6), (36, 0)),
    "jittered_cycle16": (lambda: zoo.random_weights(zoo.lazy_cycle(16), 2), (0, 16)),
    "tree4": (lambda: zoo.binary_tree(4), (28, 3)),
    # mirror-image centres share a profile in pairs only
    "path12": (lambda: zoo.lazy_path(12), (0, 12)),
}
# l_max below the diameter, and far above diam^2 (cone radii past the
# diameter fold into the whole graph)
HORIZONS = {"short": lambda d: d - 1, "long": lambda d: 3 * d * d + 7}


@pytest.fixture(scope="module", params=sorted(CONE_GRAPHS))
def cone_graph(request):
    build, rows = CONE_GRAPHS[request.param]
    return build(), rows


def test_cone_graphs_take_their_paths(cone_graph):
    g, (shared, rare) = cone_graph
    sizes = [len(rows) for rows in _profile_groups(g.ball_volumes)]
    assert sum(k for k in sizes if k >= SHARED_PROFILE_MIN) == shared
    assert sum(k for k in sizes if k < SHARED_PROFILE_MIN) == rare


@pytest.mark.parametrize("horizon", sorted(HORIZONS))
def test_lusin_matches_naive_across_profiles(cone_graph, horizon):
    g, _ = cone_graph
    l_max = HORIZONS[horizon](g.diameter)
    f = random_mean_zero(g, np.random.default_rng(3))
    for beta in (1.0, 0.5):
        np.testing.assert_allclose(lusin(g, f, beta, l_max),
                                   naive_lusin(g, f, beta, l_max), atol=1e-12)


@pytest.mark.parametrize("horizon", sorted(HORIZONS))
def test_lusin_tilde_matches_naive_across_profiles(cone_graph, horizon):
    # the linear cone has radius k, so "long" runs k far past the diameter
    g, _ = cone_graph
    k_max = g.diameter - 1 if horizon == "short" else 3 * g.diameter + 2
    f = random_mean_zero(g, np.random.default_rng(4))
    np.testing.assert_allclose(lusin_tilde(g, f, 1.0, k_max),
                               naive_lusin_tilde(g, f, 1.0, k_max), atol=1e-12)


@pytest.mark.parametrize("horizon", sorted(HORIZONS))
def test_tent_functional_matches_naive_across_profiles(cone_graph, horizon):
    g, _ = cone_graph
    l_max = HORIZONS[horizon](g.diameter)
    vals = np.random.default_rng(5).standard_normal((g.n, l_max + 1))
    F = SpaceTimeFunction(g, vals)
    np.testing.assert_allclose(tent_functional(g, F),
                               naive_tent_functional(g, F), atol=1e-12)


def test_cone_sums_in_small_row_blocks(monkeypatch):
    # both paths split their centres into row blocks of two
    g = zoo.binary_tree(4)
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 2 * g.n)
    f = random_mean_zero(g, np.random.default_rng(7))
    np.testing.assert_allclose(lusin(g, f, 1.0, 70), naive_lusin(g, f, 1.0, 70),
                               atol=1e-12)


def test_lusin_streams_its_weights():
    # the cone weights are summed per radius while P^l f is walked, so a
    # long horizon allocates less than one (n, l_max + 1) array
    g = zoo.lazy_torus_2d(16)
    f = random_mean_zero(g, np.random.default_rng(6))
    lusin(g, f, 1.0, 8)  # fills the metric, volume and oracle caches
    l_max = 2000
    tracemalloc.start()
    try:
        lusin(g, f, 1.0, l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * (l_max + 1) * 8


def test_metric_and_quad_norm_allocate_no_float_metric():
    # the hop counts are built by a bitset sweep whose bit planes are
    # unpacked a block of rows at a time, so the metric alone peaks below
    # two n x n byte arrays, and neither it nor a quad_norm that reads it
    # holds a float n x n array
    g = zoo.lazy_torus_2d(48)
    f = random_mean_zero(g, np.random.default_rng(8))
    tracemalloc.start()
    try:
        g.dist
        metric_peak = tracemalloc.get_traced_memory()[1]
        quad_norm(g, f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.dist.dtype == np.uint8
    assert metric_peak < g.n * g.n * 2
    assert peak < g.n * g.n * 4


def test_quad_norm_forms_k2l(k2l, f0):
    F = differential(k2l, f0)
    assert quad_norm_forms(k2l, F, 1.0, 8) == pytest.approx(4.0, abs=1e-11)
    zero = EdgeFunction(k2l, np.zeros(k2l.adjacency.nnz))
    assert quad_norm_forms(k2l, zero, 1.0, 8) == 0.0


def test_quad_norm_forms_matches_function_version(cycle16, rng):
    # for F = dg the form norm equals the function norm of Delta^{1/2} g
    h = random_mean_zero(cycle16, rng)
    F = differential(cycle16, h)
    lhs = quad_norm_forms(cycle16, F, 1.0)
    o = spectral(cycle16)
    half = o.apply(lambda lam: np.sqrt(np.maximum(1 - lam, 0)), h)
    rhs = quad_norm(cycle16, half, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_quad_norm_forms_rejects_bad_antisymmetry(cycle16):
    F = EdgeFunction(cycle16, np.ones(cycle16.adjacency.nnz))
    with pytest.raises(KernelComponent):
        quad_norm_forms(cycle16, F, 1.0)


def _offdiag_exponent(g, s, M, make_op, eta_weight):
    # measured || L_1 (A f) ||_{L2(E)} against (1 + d^2/s)^{-order}
    F = [0]
    f = np.zeros(g.n)
    f[0] = 1.0
    f /= lp_norm(g, f, 2)
    u = make_op(f)
    L = lusin(g, u, eta_weight, default_l_max(g))
    ds, vals = [], []
    for d in range(2, g.diameter + 1, 1):
        E = np.where(g.dist[0] == d)[0]
        v = math.sqrt(float(np.sum(L[E] ** 2 * g.m[E])))
        if v > 0:
            ds.append(1.0 + d * d / s)
            vals.append(v)
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    return -slope


def test_offdiagonal_decay_bz1(torus12):
    # order >= M - 0.25 for the iterate family
    M, s = 1, 1
    exp = _offdiag_exponent(
        torus12, s, M, lambda f: bz1(torus12, f, (s,) * M), 1.0
    )
    assert exp >= M - 0.25


def test_offdiagonal_decay_resolvent(torus12):
    # order >= M + 1/2 - 0.25 for the resolvent family with L_{1/2}
    M, s = 1, 1

    def op(f):
        sym = lambda lam: (s * (1 - lam) / (1 + s * (1 - lam))) ** (M + 0.5)
        return spectral(torus12).apply(sym, f)

    F = [0]
    f = np.zeros(torus12.n)
    f[0] = 1.0
    f /= lp_norm(torus12, f, 2)
    u = op(f)
    L = lusin(torus12, u, 0.5, default_l_max(torus12))
    ds, vals = [], []
    for d in range(2, torus12.diameter + 1):
        E = np.where(torus12.dist[0] == d)[0]
        v = math.sqrt(float(np.sum(L[E] ** 2 * torus12.m[E])))
        if v > 0:
            ds.append(1.0 + d * d / s)
            vals.append(v)
    slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
    assert -slope >= M + 0.5 - 0.25


def test_series_path_matches_oracle_path(cycle32, rng, monkeypatch):
    # above the oracle cap Delta^beta runs through the truncated series;
    # at beta = 1 that series is exact, so both paths agree to rounding
    f = random_mean_zero(cycle32, rng)

    def run():
        return (heat_profile(cycle32, f, 1.0).values,
                lusin(cycle32, f, 1.0), g_littlewood(cycle32, f, 1.0))

    oracle = run()
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    assert not calculus.has_oracle(cycle32)
    for want, got in zip(oracle, run()):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_cone_membership(cycle16):
    pairs = cone_members(cycle16, 3, 6)
    assert (3, 0) in pairs
    for y, l in pairs:
        assert cycle16.dist[3, y] ** 2 <= l
    tpairs = cone_members_tilde(cycle16, 3, 4)
    assert (3, 0) in tpairs
    for y, k in tpairs:
        assert cycle16.dist[3, y] <= k


@pytest.mark.parametrize("path", ["oracle", "series"], indirect=True)
@pytest.mark.parametrize("horizon", sorted(HORIZONS))
def test_block_quad_norm_equals_columns(cone_graph, horizon, path):
    # an (n, k) block walks the power sequence once and gathers its k
    # columns from each tail table (or the masked sums); each column is
    # the vector call
    g, _ = cone_graph
    l_max = HORIZONS[horizon](g.diameter)
    F = mean_project(g, np.random.default_rng(6).standard_normal((g.n, 4)))
    F[:, 1] = 0.0
    L = lusin(g, F, 1.0, l_max)
    Q = quad_norm(g, F, 1.0, l_max)
    assert L.shape == F.shape and Q.shape == (4,)
    for j in range(4):
        col = lusin(g, F[:, j], 1.0, l_max)
        np.testing.assert_allclose(L[:, j], col, rtol=1e-12, atol=1e-14 * col.max(initial=0.0))
        assert Q[j] == pytest.approx(quad_norm(g, F[:, j], 1.0, l_max), rel=1e-12)
    assert Q[1] == 0.0


@pytest.mark.parametrize("path", ["oracle", "series"], indirect=True)
@pytest.mark.parametrize("horizon", sorted(HORIZONS))
@pytest.mark.parametrize("rows", [None, 2])
def test_square_functions_equal_on_any_worker_count(monkeypatch, cone_graph,
                                                    horizon, path, rows):
    # the square functions run on the calling thread, so the cores the
    # process may use change no bit: the same results when 1, 2 or 3 are
    # reported.  rows=2 takes row blocks of two centres: a row block of
    # centres that share a profile reads the block's one tail table with
    # no arithmetic of its own, so those centres get the bits of one
    # block of every centre.  A rare centre's masked sum is a BLAS
    # product, which rounds by the shape of its block, so it agrees to a
    # few ulps
    g, _ = cone_graph
    l_max = HORIZONS[horizon](g.diameter)
    rng = np.random.default_rng(9)
    F = mean_project(g, rng.standard_normal((g.n, 5)))
    F[:, 3] = 0.0
    vals = rng.standard_normal((g.n, l_max + 1))
    shared = [x for block in _profile_groups(g.ball_volumes)
              if len(block) >= SHARED_PROFILE_MIN for x in block]

    def sums():
        return [lusin(g, F, 1.0, l_max), lusin(g, F[:, :2], 0.5, l_max),
                lusin(g, F[:, 0], 1.0, l_max),
                tent_functional(g, SpaceTimeFunction(g, vals)), quad_norm(g, F, 1.0, l_max)]

    whole = sums()
    assert len(graphs.row_blocks(range(g.n), g.n)) == 1
    if rows:
        monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", rows * g.n)
    results = []
    for count in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=count: set(range(c)),
                            raising=False)
        assert operators.thread_cap() == count
        results.append(sums())
    for other in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], other))
    blocks = results[0]
    for a, b in zip(whole[:4], blocks[:4]):
        assert np.array_equal(a[shared], b[shared])
    if len(shared) == g.n or not rows:
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocks))
    for a, b in zip(whole, blocks):
        np.testing.assert_allclose(b, a, rtol=1e-13, atol=0.0)


def test_a_block_counts_one_walk_of_its_columns():
    # a block of three columns takes the Delta step and one walk of
    # l_max products, each of three columns
    g = zoo.lazy_torus_2d(32)
    F = mean_project(g, np.random.default_rng(11).standard_normal((g.n, 3)))
    L = default_l_max(g)
    calls, cols = g.matvec_calls, g.matvec_cols
    lusin(g, F, 1.0)
    assert (g.matvec_calls - calls, g.matvec_cols - cols) == (1 + L, 3 + 3 * L)


def test_periodic_walk_is_refused():
    # on the loop-free 4-cycle P^l f oscillates for ever, and the cone sum
    # used to return a horizon-dependent 18.54 for this input
    g = graphs.build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    f = np.zeros(g.n)
    f[0] = 1.0
    f = mean_project(g, f)
    for fn in (lusin, quad_norm):
        with pytest.raises(PeriodicWalk):
            fn(g, f, 1.0)
