import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    cone_members,
    cone_members_tilde,
    naive_g_littlewood,
    naive_lusin,
    naive_lusin_tilde,
    naive_tent_functional,
)

from graphhardy import calculus, graphs, zoo
from graphhardy.calculus import BZ1Kind, a_s, spectral
from graphhardy.errors import KernelComponent
from graphhardy.hardy import heat_profile
from graphhardy.operators import (
    EdgeFunction,
    differential,
    lp_norm,
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
        torus12, s, M, lambda f: a_s(torus12, f, BZ1Kind(s, (s,) * M)), 1.0
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


def test_lusin_tail_bound_controls_truncation(cycle16, rng):
    from graphhardy.quadratic import lusin_tail_bound

    f = random_mean_zero(cycle16, rng)
    full = lusin(cycle16, f, 1.0, 400)
    for l_max in (4, 16, 64):
        short = lusin(cycle16, f, 1.0, l_max)
        tail = lusin_tail_bound(cycle16, f, 1.0, l_max)
        gap = np.max(np.abs(full - short))
        assert gap <= tail + 1e-12
    # long horizons leave a negligible tail
    assert lusin_tail_bound(cycle16, f, 1.0, 1200) < 1e-8


def test_series_path_matches_oracle_path(cycle32, rng, monkeypatch):
    # above the oracle cap Delta^beta runs through the truncated series;
    # at beta = 1 that series is exact, so both paths agree to rounding
    f = random_mean_zero(cycle32, rng)
    l_max = default_l_max(cycle32)

    def run():
        return (heat_profile(cycle32, f, 1.0, l_max).values,
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


@pytest.mark.parametrize("path", ["oracle", "series"])
@pytest.mark.parametrize("horizon", sorted(HORIZONS))
def test_block_quad_norm_equals_columns(cone_graph, horizon, path, monkeypatch):
    # an (n, k) block walks the power sequence once and gathers its k
    # columns from each tail table (or the masked sums); each column is
    # the vector call
    if path == "series":
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g, _ = cone_graph
    l_max = HORIZONS[horizon](g.diameter)
    F = random_mean_zero(g, np.random.default_rng(6), size=4)
    F[:, 1] = 0.0
    L = lusin(g, F, 1.0, l_max)
    Q = quad_norm(g, F, 1.0, l_max)
    assert L.shape == F.shape and Q.shape == (4,)
    for j in range(4):
        col = lusin(g, F[:, j], 1.0, l_max)
        np.testing.assert_allclose(L[:, j], col, rtol=1e-12, atol=1e-14 * col.max(initial=0.0))
        assert Q[j] == pytest.approx(quad_norm(g, F[:, j], 1.0, l_max), rel=1e-12)
    assert Q[1] == 0.0
