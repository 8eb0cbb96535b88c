import math

import numpy as np
import pytest
from oracles import (binomial_series, bz1, bz1_walks, cesaro_mean, delta_power_exact,
                     exp_decay_bound, exp_decay_constants, family_per_s,
                     gradient_gaffney_constant, laplacian, reproducing_check,
                     resolvent_exact, resolvent_frac_coefficients, taylor_delta_power)

from graphhardy import calculus, zoo
from graphhardy.calculus import (
    FAMILIES,
    DeltaPower,
    Resolvent,
    binomial_coefficients,
    bz1_block,
    bz2_apply,
    delta_power_apply,
    gaffney_fit,
    require_mean_zero,
    resolvent_apply,
    series,
    spectral,
)
from graphhardy.errors import (
    KernelComponent,
    NonConvergent,
    OverlappingSets,
    PeriodicWalk,
)
from graphhardy.graphs import build_graph, geometry_report
from graphhardy.operators import (
    apply_P,
    gradient,
    heat_sweep,
    inner,
    lp_norm,
    mean_project,
    random_mean_zero,
    spectral_interval,
)
from graphhardy.zoo import binary_tree, lazy_cycle, lazy_torus_2d


def test_oracle_reproduces_P(cycle16):
    o = spectral(cycle16)
    for i in range(cycle16.n):
        ei = np.eye(cycle16.n)[i]
        np.testing.assert_allclose(
            o.apply(lambda lam: lam, ei), apply_P(cycle16, ei), atol=1e-10
        )


def test_oracle_spectrum_range(cycle16, torus8, k2l):
    for g in (k2l, cycle16, torus8):
        o = spectral(g)
        assert o.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        assert o.eigenvalues[0] > -1.0  # (LB) keeps -1 off the spectrum
        assert np.all(np.diff(o.eigenvalues) >= -1e-12)


def test_spectral_apply_k2l(k2l, f0):
    o = spectral(k2l)
    np.testing.assert_allclose(
        o.apply(lambda lam: lam, [1.0, 0.0]), [0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        o.apply(lambda lam: np.sqrt(1 - lam), f0), f0, atol=1e-12
    )


def test_spectral_singular_needs_mean_zero(k2l, cycle16):
    with pytest.raises(KernelComponent):
        delta_power_apply(k2l, np.array([1.0, 1.0]), -0.5)
    # each column of a block is judged against its own size: a small
    # constant column beside a large mean-zero one still raises
    F = np.column_stack((random_mean_zero(cycle16, np.random.default_rng(0)),
                         np.full(cycle16.n, 1e-9)))
    with pytest.raises(KernelComponent):
        delta_power_apply(cycle16, F, -0.5)
    np.testing.assert_allclose(delta_power_exact(cycle16, F[:, :1], -0.5)[:, 0],
                               delta_power_exact(cycle16, F[:, 0], -0.5), rtol=1e-12)


@pytest.mark.parametrize("name", ["lazy_torus_32", "lazy_cycle_64", "lazy_torus_16"])
def test_negative_power_applies_what_require_mean_zero_passes(name, monkeypatch):
    # a constant part at half require_mean_zero's threshold passes the
    # check; the oracle sends it to 0 as the deflated series does, so
    # the two agree within the series' tail bound (the cap is raised so
    # that lazy_torus_32 takes the oracle)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 2048)
    g = zoo.by_name(name)
    f = random_mean_zero(g, np.random.default_rng(0))
    f += 0.5 * calculus.KERNEL_REL_TOL * lp_norm(g, f, 2) / math.sqrt(g.total_volume())
    require_mean_zero(g, f)
    got = delta_power_apply(g, f, -0.5)
    op = series(g, DeltaPower(-0.5), None, 1e-10)
    assert lp_norm(g, got - op.apply(f), 2) <= op.tail_bound * lp_norm(g, f, 2)


def test_every_symbol_is_finite_on_the_interval():
    # the symbols phi_apply hands the oracle are finite on all of [-1, 1],
    # lam = 1 included: Delta^beta, beta < 0, is 0 on the constants
    lam = np.linspace(-1.0, 1.0, 2001)
    with np.errstate(all="raise"):
        for beta in (-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            vals = DeltaPower(beta)(lam, None)
            assert np.isfinite(vals).all(), beta
            assert vals[-1] == (1.0 if beta == 0 else 0.0), beta
        for s in (1, 7.5, 512):
            for power in (-1.5, -0.5, 0.5, 1.5):
                assert np.isfinite(Resolvent(power)(lam, s)).all(), (s, power)
            for M in (1, 2, 3):
                assert np.isfinite(calculus.Bz2(M)(lam, s)).all(), (s, M)


def test_binomial_coefficients_sqrt():
    np.testing.assert_allclose(
        binomial_coefficients(0.5, 4), [1.0, -0.5, -0.125, -1.0 / 16]
    )


def test_delta_power_integer_is_exact(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    op = series(cycle16, DeltaPower(1.0), None, 1e-12)
    assert op.truncation == 1
    assert op.tail_bound == 0.0
    np.testing.assert_allclose(op.apply(f), laplacian(cycle16, f), atol=1e-13)


def test_delta_power_half_matches_oracle(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    approx = series(cycle16, DeltaPower(0.5), None, 1e-9).apply(f)
    exact = delta_power_exact(cycle16, f, 0.5)
    assert lp_norm(cycle16, approx - exact, 2) <= 1e-8


def test_series_tail_bound_honest(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    f /= lp_norm(cycle16, f, 2)
    for tol in (1e-4, 1e-7, 1e-10):
        op = series(cycle16, DeltaPower(0.5), None, tol)
        err = lp_norm(cycle16, op.apply(f) - delta_power_exact(cycle16, f, 0.5), 2)
        assert err <= op.tail_bound + 1e-9
    # larger truncation never drifts away from the oracle
    errs = []
    for tol in (1e-4, 1e-8, 1e-12):
        op = series(cycle16, DeltaPower(0.5), None, tol)
        errs.append(lp_norm(cycle16, op.apply(f) - delta_power_exact(cycle16, f, 0.5), 2))
    assert errs[0] >= errs[1] >= errs[2] - 1e-15


def test_inv_sqrt_series_matches_oracle(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    op = series(cycle16, DeltaPower(-0.5), None, 1e-10)
    exact = delta_power_exact(cycle16, f, -0.5)
    assert lp_norm(cycle16, op.apply(f) - exact, 2) <= op.tail_bound + 1e-9


def test_resolvent_constant_fixed(cycle16):
    ones = np.ones(cycle16.n)
    np.testing.assert_allclose(series(cycle16, Resolvent(2.0), 4, 1e-12).apply(ones), ones,
                               atol=1e-11)


def test_resolvent_k2l(k2l, f0):
    np.testing.assert_allclose(series(k2l, Resolvent(1.0), 1, 1e-12).apply(f0), f0 / 2,
                               atol=1e-12)


def test_resolvent_self_check(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    for s in (1, 3, 8):
        u = series(cycle16, Resolvent(1.0), s, 1e-13).apply(f)
        back = u + s * laplacian(cycle16, u)
        assert lp_norm(cycle16, back - f, 2) <= 1e-10


def test_resolvent_frac_series(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    for s, power in ((2, 1.5), (8, 2.5)):
        op = series(cycle16, Resolvent(power), s, 1e-11)
        exact = resolvent_exact(cycle16, f, s, power)
        err = lp_norm(cycle16, op.apply(f) - exact, 2)
        assert err <= (op.tail_bound + 1e-9) * lp_norm(cycle16, f, 2)


@pytest.mark.parametrize("power", [0.5, 1.5])
@pytest.mark.parametrize("s", [1, 40, 512])
def test_resolvent_frac_series_matches_loop(cycle16, s, power):
    # the two Taylor references agree: the vectorized binomial_series
    # (the power series Delta^beta was summed with before Chebyshev
    # columns) keeps the term-by-term truncation of the weighted
    # (1 - z)^{-power} series and stays within a few dozen roundings of
    # the loop's coefficients
    want, tail = resolvent_frac_coefficients(s, power, 1e-12)
    q, pref = s / (1.0 + s), (1.0 + s) ** (-power)
    a, got_tail = binomial_series(-power, q, 1e-12, pref)
    assert len(a) == len(want)
    np.testing.assert_allclose(pref * a * q ** np.arange(len(a)), want, rtol=2e-14, atol=0)
    assert got_tail == pytest.approx(tail, rel=2e-14, abs=0)


def test_a_s_kills_constants(cycle16):
    ones = np.ones(cycle16.n)
    assert lp_norm(cycle16, bz1(cycle16, ones, (2, 3)), 2) < 1e-12
    assert lp_norm(cycle16, bz2_apply(cycle16, ones, 3, 2), 2) < 1e-12


def test_a_s_k2l(k2l, f0):
    np.testing.assert_allclose(bz1(k2l, f0, (1,)), f0, atol=1e-14)
    np.testing.assert_allclose(cesaro_mean(k2l, f0, 2), f0 / 2, atol=1e-14)


BZ1_GRAPHS = {
    "cycle16": lambda: zoo.lazy_cycle(16),
    "path9": lambda: zoo.lazy_path(9),
    "torus8": lambda: zoo.lazy_torus_2d(8),
    "tree4": lambda: zoo.binary_tree(4),
    "cycle12_random": lambda: zoo.random_weights(zoo.lazy_cycle(12), 3),
}


@pytest.mark.parametrize("name", sorted(BZ1_GRAPHS))
def test_bz1_block_of_a_sweep_is_the_nested_walks(name):
    # the one bz1 combines the stored powers P^k x of one walk by
    # inclusion-exclusion: at M = 1 its column is x - P^s x bit for bit
    # (the Riesz suite of the CLI and the benchmark), and at M = 2 and 3
    # it is the nested walks x <- x - P^t x to rounding
    g = BZ1_GRAPHS[name]()
    x = np.random.default_rng(7).standard_normal(g.n)
    table = heat_sweep(g, x, range(3 * 16 + 1))
    singles = [(s,) for s in (1, 4, 16)]
    got = bz1_block(table, singles)
    for j, (s,) in enumerate(singles):
        want = x - apply_P(g, x, s)
        assert got[:, j].tobytes() == want.tobytes(), s
    for tuples in ([(1, 1), (4, 4), (16, 16), (2, 5)], [(3, 3, 3), (16, 16, 16), (5, 1, 9)]):
        got = bz1_block(table, tuples)
        for j, times in enumerate(tuples):
            want = bz1_walks(g, x, times)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-14 * np.max(np.abs(want)), times


def test_bz2_matches_delta_resolvent_form(cycle16, rng):
    # [I - (I+sD)^{-1}]^M equals (sD)^M (I+sD)^{-M}
    f = rng.standard_normal(cycle16.n)
    for s, M in ((2, 1), (5, 2)):
        lhs = bz2_apply(cycle16, f, s, M)
        rhs = f.copy()
        for _ in range(M):
            rhs = s * laplacian(cycle16, rhs)
        rhs = resolvent_exact(cycle16, rhs, s, float(M))
        assert lp_norm(cycle16, lhs - rhs, 2) <= 1e-9


def test_reproducing_k2l(k2l, f0):
    assert reproducing_check(k2l, f0, 1.0, 0) <= 1e-13


def test_reproducing_needs_mean_zero(cycle16):
    with pytest.raises(KernelComponent):
        reproducing_check(cycle16, np.ones(cycle16.n), 1.0, 4)


def test_reproducing_monotone(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    errs = [reproducing_check(cycle16, f, 0.5, N) for N in (0, 4, 16, 64, 256)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_reproducing_gap_prediction(cycle16, rng):
    # partial-sum error at the spectral gap predicts the horizon
    f = random_mean_zero(cycle16, rng)
    lam = calculus.spectrum(cycle16).lambda_star
    coeffs = -binomial_coefficients(-1.0, 4000)[1:]
    # for beta = 1/2 the scalar error at lambda is computable directly
    N = 600
    err = reproducing_check(cycle16, f, 0.5, N)
    assert err <= 1e-6 * lp_norm(cycle16, f, 2)
    assert lam < 1.0


def test_delta_power_apply_uses_oracle_when_affordable(torus8, rng):
    f = rng.standard_normal(torus8.n)
    for beta in (0.5, 1.0, 1.5):
        np.testing.assert_array_equal(
            delta_power_apply(torus8, f, beta), delta_power_exact(torus8, f, beta)
        )


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_delta_power_apply_refuses_a_non_finite_beta(monkeypatch, torus8, rng, beta):
    # Delta^beta has one entry point, which names beta on both paths; a
    # NaN beta used to give a NaN result
    f = random_mean_zero(torus8, rng)
    for cap in (calculus.ORACLE_MAX_N, 0):
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", cap)
        with pytest.raises(ValueError, match=f"beta must be finite, not {beta!r}"):
            delta_power_apply(torus8, f, beta)


def test_finite_propagation(cycle32):
    f = np.zeros(cycle32.n)
    f[0] = 1.0
    for l in (1, 3, 7):
        u = apply_P(cycle32, f, l)
        assert np.all(u[cycle32.dist[0] > l] == 0.0)
        assert np.any(u[cycle32.dist[0] == l] != 0.0)


def test_gaffney_cycle():
    g = lazy_cycle(64)
    fit = gaffney_fit(g, "heat", [32], [0], [8, 16, 32, 64, 128, 256, 512])
    assert fit.c > 0
    assert fit.eta == 1.0
    # finite propagation zeros are exact
    fit0 = gaffney_fit(g, "heat", [32], [0], [4, 16, 31])
    assert fit0.ratios == [0.0, 0.0, 0.0]


def test_gaffney_reads_s_range_once(cycle32):
    fit = gaffney_fit(cycle32, "heat", [16], [0], (s for s in [4, 8, 16]))
    ref = gaffney_fit(cycle32, "heat", [16], [0], [4, 8, 16])
    assert fit.s_values == [4.0, 8.0, 16.0]
    assert fit.ratios == ref.ratios and fit.n_points == ref.n_points == 1
    fit = gaffney_fit(cycle32, "heat", [16], [0], (s for s in [20, 40, 80]))
    assert fit.s_values == [20.0, 40.0, 80.0] and fit.n_points == 3
    assert fit.c > 0


@pytest.mark.parametrize("family", ["heat", "resolvent"])
def test_gaffney_leaves_the_metric_unbuilt(family):
    # d(E, F) is a search from F on the adjacency: a cold call builds no n x n
    # metric, and reads the distance the metric gives
    g = lazy_torus_2d(12)
    fit = gaffney_fit(g, family, [6 * 12 + 6], [0, 1], [4, 8, 16])
    assert g._dist is None
    assert fit.d_EF == float(g.dist[6 * 12 + 6, [0, 1]].min()) == 11.0


def test_gaffney_resolvent_torus(torus12):
    E = [6 * 12 + 6]
    fit = gaffney_fit(torus12, "resolvent", E, [0], [1, 2, 4, 8, 16, 32])
    assert fit.c > 0
    assert fit.eta == 0.5


@pytest.mark.parametrize("path", ["oracle", "series"], indirect=True)
@pytest.mark.parametrize("family", ["resolvent", "resolvent_diff", "grad_resolvent"])
def test_gaffney_resolvent_scales_as_given(path, family, cycle16):
    # s = 2.5 is measured at 2.5, not at int(2.5) = 2
    g = cycle16
    fit = gaffney_fit(g, family, [8], [0], [2.5, 4.0])
    assert fit.s_values == [2.5, 4.0]
    f = np.zeros(g.n)
    f[0] = 1.0
    f /= lp_norm(g, f, 2)
    for s, ratio in zip(fit.s_values, fit.ratios):
        u = family_per_s(g, family, f, s, 1)
        assert ratio == pytest.approx(math.sqrt(u[8] ** 2 * g.m[8]), rel=1e-10)
    truncated = gaffney_fit(g, family, [8], [0], [2, 4]).ratios[0]
    assert fit.ratios[0] > 2 * truncated
    if family == "resolvent":
        assert fit.ratios[0] == pytest.approx(7.66e-5, rel=1e-3)


@pytest.mark.parametrize("family", ["heat", "delta_heat", "grad_heat"])
def test_gaffney_heat_needs_integer_times(family, cycle16):
    with pytest.raises(ValueError):
        gaffney_fit(cycle16, family, [8], [0], [2.5, 4])
    assert gaffney_fit(cycle16, family, [8], [0], [2.0, 4]).s_values == [2.0, 4.0]


@pytest.mark.parametrize("family", ["resolvent", "resolvent_diff", "grad_resolvent"])
def test_gaffney_fit_drops_ratios_below_accuracy(family):
    # at s = 1, 2, 4 the true ratios are below 1e-20 and what is measured
    # is rounding: kept in the curve, left out of the fit
    g = lazy_torus_2d(32)
    s_values = [1, 2, 4, 8, 16, 32, 64]
    fit = gaffney_fit(g, family, [16 * 32 + 16], [0], s_values)
    floor = np.broadcast_to(FAMILIES[family][2](np.asarray(s_values, dtype=float), 1), 7)
    ratios = np.asarray(fit.ratios)
    assert len(ratios) == 7 and np.all(ratios[:3] <= floor[:3])
    assert fit.n_points == int(np.sum(ratios > floor)) >= 3
    assert fit.c > 0 and fit.residual_rms < 0.2
    if family == "grad_resolvent":
        np.testing.assert_allclose(floor, 1e-12 * 2 * math.sqrt(2) * np.power(s_values, 1.5))
    else:
        assert np.all(floor == 1e-12)


def test_gaffney_overlap_rejected(cycle16):
    with pytest.raises(OverlappingSets):
        gaffney_fit(cycle16, "heat", [0, 1], [1, 2], [4])


@pytest.mark.parametrize("E,F,named", [
    ([-8], [0], "E holds vertex -8"),
    ([8], [0], "E holds vertex 8"),
    ([0], [8], "F holds vertex 8"),
    ([3], [2, -1], "F holds vertex -1"),
])
def test_gaffney_refuses_a_vertex_outside_the_graph(E, F, named):
    # -8 would wrap onto vertex 0 of lazy_cycle_8, which is F, and pass the
    # overlap check into a zero-norm fit; 8 would fail deep in numpy or scipy
    with pytest.raises(ValueError, match=named):
        gaffney_fit(lazy_cycle(8), "heat", E, F, [1, 2, 4])


def test_exp_decay_values():
    assert exp_decay_bound(2.0, 5.0, 0) == pytest.approx((1 / 6) ** 2)
    assert exp_decay_bound(0.0, 1.0, 10) == pytest.approx(2.0 ** -10)
    assert exp_decay_bound(3.0, 0.0, 5) == 0.0


def test_exp_decay_bound_sweep():
    for m in (0.0, 1.0, 2.0):
        C, c = exp_decay_constants(m)
        for t in np.linspace(0.0, 100.0, 41):
            for k in (0, 1, 2, 5, 10, 50, 100, 400, 1000):
                val = exp_decay_bound(m, float(t), k)
                assert val <= C * math.exp(-c * k / (1.0 + t)) + 1e-15


def test_analyticity_proxy(cycle16, torus8, rng):
    # ||(I-P) P^k f||_2 <= C ||f||_2 / (k+1), one constant across fixtures
    worst = 0.0
    for g in (cycle16, torus8):
        for _ in range(3):
            f = rng.standard_normal(g.n)
            u = f
            for k in range(0, 64):
                val = lp_norm(g, laplacian(g, u), 2) * (k + 1) / lp_norm(g, f, 2)
                worst = max(worst, val)
                u = apply_P(g, u)
    assert worst < 3.0


def test_gradient_gaffney_constant_formula():
    c = gradient_gaffney_constant(0.5)
    assert 8 * c * math.exp(8 * c) == pytest.approx(0.5, rel=1e-8)


def test_gradient_gaffney_weighted_bound(cycle32, torus8):
    # || grad P^k f exp((c/2) d^2(., F)/(k+1)) ||_2 <= C ||f||_2 / sqrt(k+1)
    worst = 0.0
    for g in (cycle32, torus8):
        eps = geometry_report(g).eps_LB
        c = gradient_gaffney_constant(eps)
        F = [0]
        f = np.zeros(g.n)
        f[0] = 1.0
        f /= lp_norm(g, f, 2)
        u = f
        for k in range(0, 40):
            w = np.exp(0.5 * c * g.dist[0].astype(np.int64) ** 2 / (k + 1.0))
            val = lp_norm(g, gradient(g, u) * w, 2) * math.sqrt(k + 1.0)
            worst = max(worst, val)
            u = apply_P(g, u)
    assert worst < 4.0


def test_require_mean_zero_guard(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    out = require_mean_zero(cycle16, f)
    np.testing.assert_allclose(out, f, atol=1e-12)
    with pytest.raises(KernelComponent):
        require_mean_zero(cycle16, f + 1.0)


def test_energy_identity_half_power(cycle16, rng):
    # ||grad f||_2^2 = <Delta f, f> = ||Delta^{1/2} f||_2^2
    f = rng.standard_normal(cycle16.n)
    e1 = lp_norm(cycle16, gradient(cycle16, f), 2) ** 2
    e2 = inner(cycle16, laplacian(cycle16, f), f)
    half = delta_power_exact(cycle16, f, 0.5)
    e3 = lp_norm(cycle16, half, 2) ** 2
    assert e1 == pytest.approx(e2, rel=1e-10)
    assert e2 == pytest.approx(e3, rel=1e-10)


def test_resolvent_frac_power_below_one(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    op = series(cycle16, Resolvent(0.5), 4, 1e-11)
    exact = resolvent_exact(cycle16, f, 4, 0.5)
    err = lp_norm(cycle16, op.apply(f) - exact, 2)
    assert err <= (op.tail_bound + 1e-9) * lp_norm(cycle16, f, 2)


def test_gaffney_remaining_families(torus12):
    E = [6 * 12 + 6]
    for family, eta in (("delta_heat", 1.0), ("resolvent_diff", 0.5),
                        ("grad_resolvent", 0.5)):
        fit = gaffney_fit(torus12, family, E, [0], [2, 4, 8, 16, 32], M=1)
        assert fit.eta == eta
        assert fit.c > 0, family


def test_delta_power_half_indicator(cycle16):
    # mean-removed normalized vertex indicator against the oracle
    f = np.zeros(cycle16.n)
    f[0] = 1.0 / cycle16.m[0]
    f = mean_project(cycle16, f)
    approx = series(cycle16, DeltaPower(0.5), None, 1e-9).apply(f)
    exact = delta_power_exact(cycle16, f, 0.5)
    assert lp_norm(cycle16, approx - exact, 2) <= 1e-8


def test_lambda_star_range_and_periodicity(monkeypatch):
    # the walk on a bipartite graph without loops is periodic: both
    # sources of the spectrum record refuse it, and so does every
    # fractional Delta^beta read from it
    square = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    for cap in (calculus.ORACLE_MAX_N, 0):
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", cap)
        with pytest.raises(PeriodicWalk):
            calculus.spectrum(square)
        for beta in (0.5, -0.5):
            with pytest.raises(PeriodicWalk):
                series(square, DeltaPower(beta), None, 1e-8)


def test_lambda_star_below_the_certified_lower_end():
    # loops of 8 against 2 of edge weight put the spectrum in [0.6, 1]:
    # the deflated walk's interval starts at the certified lower end and
    # ends at the record's radius above it
    g = lazy_cycle(16, loop_weight=8.0)
    assert spectral_interval(g)[0] > 0.59
    for beta in (0.5, -0.5):
        op = series(g, DeltaPower(beta), None, 1e-8)
        assert op.interval[0] == spectral_interval(g)[0] < op.interval[1]


@pytest.mark.parametrize("cap", [calculus.ORACLE_MAX_N, 0])
def test_an_eigenvalue_at_the_gershgorin_end(cap, monkeypatch):
    # two vertices with loops of 8: the one mean-zero eigenvalue, 7/9,
    # lies exactly at Gershgorin's lower end, and the deflated interval
    # [lo, lambda_star] stays a proper one on both sources; eigh reads
    # it one ulp below fl(7/9), and the oracle's record still bounds it
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", cap)
    g = build_graph([(0, 1, 1.0), (0, 0, 8.0), (1, 1, 8.0)])
    rec = calculus.spectrum(g)
    assert rec.lo < rec.lambda_star
    assert 7.0 / 9.0 <= rec.lambda_star <= 7.0 / 9.0 + 1e-8
    for beta in (0.5, -0.5):
        lo, hi = series(g, DeltaPower(beta), None, 1e-8).interval
        assert lo == rec.lo < hi == max(rec.lambda_star, calculus.MIN_RADIUS)


@pytest.mark.parametrize("beta,q,tol", [
    (beta, q, 1e-8) for beta in (0.5, 1.5, -0.5, -1.5, -2.5) for q in (0.5, 0.9, 0.99)
] + [(9.5, 0.5, 30.0)])
def test_binomial_series_tail_is_certified(beta, q, tol):
    # the Taylor reference's declared tail dominates its true weighted
    # tail: below beta = -1 the coefficients grow, and for k + 1 < beta
    # the ratios |b_{j+1}/b_j| can exceed 1, so neither the geometric
    # ratio q alone nor an early stop would be certified
    b, tail = binomial_series(beta, q, tol)
    N = len(b) - 1
    full = binomial_coefficients(beta, 40 * N + 2000)
    np.testing.assert_array_equal(b, full[:N + 1])
    weights = np.abs(full) * q ** np.arange(len(full))
    assert weights[N + 1:].sum() <= tail <= tol


def test_negative_powers_of_delta(cycle16, rng, monkeypatch):
    # one symbol and one series for every real beta; below -1 the
    # coefficients of (1 - z)^beta grow, and the tail bound still holds
    f = random_mean_zero(cycle16, rng)
    norm = lp_norm(cycle16, f, 2)
    for beta in (-0.5, -1.0, -1.5, -2.5):
        exact = delta_power_exact(cycle16, f, beta)
        np.testing.assert_array_equal(delta_power_apply(cycle16, f, beta), exact)
        op = series(cycle16, DeltaPower(beta), None, 1e-10)
        err = lp_norm(cycle16, op.apply(mean_project(cycle16, f)) - exact, 2)
        assert err <= (op.tail_bound + 1e-9) * norm, beta
        # the deflated walk projects its input on entry
        assert lp_norm(cycle16, op.apply(f) - exact, 2) <= (op.tail_bound + 1e-9) * norm
    np.testing.assert_array_equal(delta_power_apply(cycle16, f, -0.5),
                                  delta_power_exact(cycle16, f, -0.5))
    for beta in (-0.5, -2.0):
        with pytest.raises(KernelComponent):
            delta_power_apply(cycle16, np.ones(cycle16.n), beta)
    # the input is checked before a path is chosen
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    for beta in (-0.5, -2.0):
        with pytest.raises(KernelComponent):
            delta_power_apply(cycle16, np.ones(cycle16.n), beta)


@pytest.mark.parametrize("beta", [-2.5, -0.5, 0.5])
def test_rounding_sized_constant_part(beta, monkeypatch):
    # an input whose constant part is 1e-12 of its norm, the rounding a
    # caller's projection leaves: the oracle drops the constant's
    # coefficient, and the deflated series walk projects it
    # out on entry and after every product, where the power series in P
    # summed it with weight sum_k b_k (about N^{2.5} at beta = -2.5)
    g = lazy_cycle(64)
    f = random_mean_zero(g, np.random.default_rng(5))
    f /= lp_norm(g, f, 2)
    want = delta_power_exact(g, f, beta)
    lam = calculus.spectrum(g).lambda_star
    size = max((1.0 - lam) ** beta, (1.0 + lam) ** beta)
    eps = np.finfo(float).eps
    fc = f + 1e-12
    assert lp_norm(g, delta_power_apply(g, fc, beta) - want, 2) <= g.n * eps * size
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    op = series(g, DeltaPower(beta), None, 1e-10)
    allow = op.tail_bound + op.truncation * eps * size
    assert lp_norm(g, op.apply(fc) - want, 2) <= allow


@pytest.mark.parametrize("name", ["cycle16", "torus8", "tree4"])
def test_delta_power_column_against_taylor(name):
    # the Chebyshev column is shorter than the power series in P that
    # Delta^beta was summed with before (`oracles.binomial_series`, same
    # tol and lambda_star), and no less accurate, up to the rounding
    # N eps max|phi| of its own sum
    g = {"cycle16": lazy_cycle(16), "torus8": lazy_torus_2d(8), "tree4": binary_tree(4)}[name]
    f = random_mean_zero(g, np.random.default_rng(6))
    f /= lp_norm(g, f, 2)
    lam = calculus.spectrum(g).lambda_star
    for beta in (-2.5, -1.5, -0.5, 0.5, 1.5):
        want = delta_power_exact(g, f, beta)
        op = series(g, DeltaPower(beta), None, 1e-10)
        b, taylor = taylor_delta_power(g, f, beta, 1e-10, lam)
        assert op.truncation < len(b) - 1
        size = max((1.0 - lam) ** beta, (1.0 + lam) ** beta)
        err = lp_norm(g, op.apply(f) - want, 2)
        assert err <= lp_norm(g, taylor - want, 2) + op.truncation * np.finfo(float).eps * size


def test_delta_power_radius_floor(k2l, f0):
    # lambda_star = 0 on k2l, where Delta is the identity on mean-zero
    # functions; the deflated walk keeps its radius at MIN_RADIUS instead
    # of dividing by 0
    assert calculus.spectrum(k2l).lambda_star == pytest.approx(0.0, abs=1e-12)
    for beta in (-0.5, 0.5, -2.5):
        op = series(k2l, DeltaPower(beta), None, 1e-12)
        assert op.deflated and op.interval[1] == calculus.MIN_RADIUS
        np.testing.assert_allclose(op.apply(f0), f0, rtol=0, atol=1e-12)


def test_resolvent_series_needs_a_positive_power(cycle16, monkeypatch):
    # any real power has a Chebyshev column: a power <= 0 is a positive
    # power of I + s Delta (the form prefix is (I + s Delta)^{M+1/2}), and
    # its series agrees with the oracle, scale by scale and as a sweep,
    # within its tail plus the rounding of a sum whose symbol reaches
    # max|phi| = (1 + 2s)^{-power} on the spectrum
    g = cycle16
    f = random_mean_zero(g, np.random.default_rng(1))
    f /= lp_norm(g, f, 2)
    scales = (1, 4, 64, 1024)
    for power in (0.0, -0.5, -1.0, -1.5, -2.5):
        want = resolvent_apply(g, f, scales, power)
        with monkeypatch.context() as mp:
            mp.setattr(calculus, "ORACLE_MAX_N", 0)
            sweep = resolvent_apply(g, f, scales, power, 1e-10)
            for j, s in enumerate(scales):
                tail = series(g, Resolvent(power), s, 1e-10).tail_bound
                allow = tail + 32 * np.finfo(float).eps * (1.0 + 2.0 * s) ** -power
                assert tail <= 1e-10
                for got in (sweep[:, j], resolvent_apply(g, f, s, power, 1e-10)):
                    assert lp_norm(g, got - want[:, j], 2) <= allow, (power, s)


def test_resolvent_scales_below_one(cycle32, monkeypatch):
    # every s > 0 puts the pole 1 + 1/s beyond the spectrum: at s = 0.5
    # the series path runs, and agrees with the oracle within its tail
    # bound plus rounding, for the resolvent and for bz2
    g = cycle32
    f = random_mean_zero(g, np.random.default_rng(5))
    f /= lp_norm(g, f, 2)
    want = resolvent_apply(g, f, 0.5), bz2_apply(g, f, 0.5, 1)
    tails = (series(g, Resolvent(1.0), 0.5, 1e-12).tail_bound,
             series(g, calculus.Bz2(1), 0.5, calculus.GAFFNEY_TOL).tail_bound)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got = resolvent_apply(g, f, 0.5), bz2_apply(g, f, 0.5, 1)
    for a, b, tail in zip(got, want, tails):
        assert 0.0 < tail <= 1e-12
        assert lp_norm(g, a - b, 2) <= tail + 64 * np.finfo(float).eps


@pytest.mark.parametrize("s", [0, -1.0, math.inf])
def test_resolvent_scale_must_be_positive(cycle16, path, s):
    # a scale that is not finite and > 0 is refused on entry, on either
    # path, alone or in a sweep
    f = random_mean_zero(cycle16, np.random.default_rng(6))
    calls = (
        lambda: resolvent_apply(cycle16, f, s),
        lambda: resolvent_apply(cycle16, f, (1, s)),
        lambda: bz2_apply(cycle16, f, s, 1),
        lambda: bz2_apply(cycle16, f, (2, s), 1),
        lambda: series(cycle16, Resolvent(1.0), s, 1e-10),
    )
    for call in calls:
        with pytest.raises(ValueError, match="resolvent scales"):
            call()


def test_series_length_cap(cycle16, monkeypatch):
    monkeypatch.setattr(calculus, "SERIES_MAX_N", 50)
    for beta in (0.5, -0.5, -1.5):
        with pytest.raises(NonConvergent):
            series(cycle16, DeltaPower(beta), None, 1e-10)
    # s = 16: on the lazy cycle's certified [0, 1], s = 8 fits the cap
    # (48 and 50 terms; 68 and 73 at s = 16)
    with pytest.raises(NonConvergent):
        series(cycle16, Resolvent(1.0), 16, 1e-12)
    with pytest.raises(NonConvergent):
        series(cycle16, Resolvent(1.5), 16, 1e-12)
    # an integer power is a finite sum, and a loose tolerance fits the cap
    assert series(cycle16, DeltaPower(2.0), None, 1e-12).truncation == 2
    assert series(cycle16, DeltaPower(0.5), None, 1e-2).truncation <= 50


def test_bz2_needs_M_at_least_one(path, torus8):
    f = random_mean_zero(torus8, np.random.default_rng(2))
    for M in (0, -1):
        with pytest.raises(ValueError, match="M must be >= 1"):
            bz2_apply(torus8, f, 4, M)
        with pytest.raises(ValueError, match="M must be >= 1"):
            bz2_apply(torus8, f, (2, 4, 8), M)
        for family in sorted(FAMILIES):
            with pytest.raises(ValueError):
                gaffney_fit(torus8, family, [36], [0], [2, 4, 8], M=M)
    assert bz2_apply(torus8, f, (2, 4, 8), 1).shape == (torus8.n, 3)


def test_require_mean_zero_checks_each_column(cycle16):
    # a block is the column loop; a zero column passes; one column with a
    # constant part raises
    g = cycle16
    F = mean_project(g, np.random.default_rng(3).standard_normal((g.n, 4)))
    F[:, 2] = 0.0
    out = require_mean_zero(g, F)
    assert out.shape == F.shape
    for j in range(4):
        np.testing.assert_allclose(out[:, j], require_mean_zero(g, F[:, j]),
                                   rtol=0, atol=1e-15)
    assert not out[:, 2].any()
    bad = F.copy()
    bad[:, 3] += 1e-3
    with pytest.raises(KernelComponent):
        require_mean_zero(g, bad)
    # the small column is judged against its own norm, not the block's
    F[:, 1] *= 1e-12
    F[:, 1] += 1e-15
    with pytest.raises(KernelComponent):
        require_mean_zero(g, F)


def test_negative_powers_take_blocks(cycle16):
    # Delta^beta, beta < 0, applies to an (n, k) block as to each column,
    # on the oracle and on the series path
    g = cycle16
    F = mean_project(g, np.random.default_rng(4).standard_normal((g.n, 3)))
    for beta in (-0.5, -1.0):
        U = delta_power_apply(g, F, beta)
        op = series(g, DeltaPower(beta), None, 1e-10)
        S = op.apply(F)
        for j in range(3):
            np.testing.assert_allclose(U[:, j], delta_power_apply(g, F[:, j], beta),
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(S[:, j], op.apply(F[:, j]), rtol=1e-12, atol=1e-14)
    F[:, 1] += 1.0
    with pytest.raises(KernelComponent):
        delta_power_apply(g, F, -0.5)
