"""Chebyshev columns: every (I + s Delta)^{-power} and every bz2 column
on the series path is a Chebyshev interpolant on [-1, 1] with a tail
bound certified in the L^2(m) operator norm."""

import numpy as np
import pytest

from oracles import counting_markov, taylor_resolvent_degree

from graphhardy import calculus
from graphhardy.calculus import (
    CHEBYSHEV,
    POWER,
    BZ2Kind,
    a_s,
    chebyshev_series,
    resolvent_apply,
    resolvent_exact,
    resolvent_frac_series,
)
from graphhardy.cli import _parse_s_range
from graphhardy.errors import NonConvergent
from graphhardy.operators import chebyshev, lp_norm, random_mean_zero
from graphhardy.zoo import lazy_cycle, lazy_torus_2d

SCALES = (1, 3, 40, 512)
POWERS = (0.5, 1.0, 1.5, 2.0, 2.5)
TOL = 1e-12


@pytest.fixture(params=["cycle16", "torus8"])
def graph(request):
    return lazy_cycle(16) if request.param == "cycle16" else lazy_torus_2d(8)


def _unit(g, seed):
    f = random_mean_zero(g, np.random.default_rng(seed))
    return f / lp_norm(g, f, 2)


def test_resolvent_columns_within_their_tail(graph, monkeypatch):
    g = graph
    f = _unit(g, 10)
    exact = {(s, p): resolvent_exact(g, f, s, p) for s in SCALES for p in POWERS}
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    for (s, p), want in exact.items():
        op = resolvent_frac_series(g, s, p, TOL)
        assert op.basis == CHEBYSHEV
        assert op.tail_bound <= TOL
        err = lp_norm(g, resolvent_apply(g, f, s, p, TOL) - want, 2)
        assert err <= op.tail_bound * lp_norm(g, f, 2) + 1e-12, (s, p)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_bz2_columns_within_their_tail(graph, M, monkeypatch):
    g = graph
    f = _unit(g, 11)
    want = a_s(g, f, BZ2Kind(SCALES, M))
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got = a_s(g, f, BZ2Kind(SCALES, M), TOL)
    for j, s in enumerate(SCALES):
        _, tail, basis = calculus._bz2_column(s, M, TOL)
        assert basis == CHEBYSHEV and tail <= TOL
        err = lp_norm(g, got[:, j] - want[:, j], 2)
        assert err <= tail * lp_norm(g, f, 2) + 1e-12, s


@pytest.mark.parametrize("power", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("s", [1, 7.5, 512])
def test_interpolant_within_its_bound_on_the_interval(s, power):
    # the certificate is a bound on all of [-1, 1], spectrum or not
    c, tail, basis = calculus._resolvent_column(s, power, 1e-10)
    x = np.cos(np.linspace(0.0, np.pi, 4001))
    err = np.abs(np.polynomial.chebyshev.chebval(x, c)
                 - calculus._resolvent_symbol(x, s, power)).max()
    assert basis == CHEBYSHEV
    assert err <= tail <= 1e-10


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_chebyshev_degree_never_exceeds_taylor(tol):
    for s in range(1, 601):
        for power in (1.0, 1.5):
            N = len(calculus._resolvent_column(s, power, tol)[0]) - 1
            assert N <= taylor_resolvent_degree(s, power, tol), (s, power)
        # [I - R]^M was M composed Neumann steps at the full tolerance
        N = len(calculus._bz2_column(s, 2, tol)[0]) - 1
        assert N <= 2 * taylor_resolvent_degree(s, 1.0, tol), s


def test_column_length_cap(monkeypatch):
    g = lazy_cycle(16)
    f = random_mean_zero(g, np.random.default_rng(12))
    N = resolvent_frac_series(g, 40, 1.5, TOL).truncation
    bz2 = len(calculus._bz2_column(40, 2, TOL)[0]) - 1
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N)
    assert resolvent_frac_series(g, 40, 1.5, TOL).truncation == N
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N - 1)
    with pytest.raises(NonConvergent):
        resolvent_frac_series(g, 40, 1.5, TOL)
    with pytest.raises(NonConvergent):
        resolvent_apply(g, f, [2, 40], 1.5, TOL)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", bz2 - 1)
    with pytest.raises(NonConvergent):
        a_s(g, f, BZ2Kind((2, 40), 2), TOL)
    with pytest.raises(NonConvergent):
        chebyshev_series(np.exp, np.exp, 2.0, 0.0)


@pytest.mark.parametrize("power", [1.0, 1.5])
def test_gaffney_sweep_products(power, monkeypatch):
    # the CLI's 12 scales 40..512 at tol 1e-12: one walk to the largest
    # column degree (the Taylor columns made 14,161 products at power 1);
    # the degree depends on s and tol only, so a small graph shows it
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    W = counting_markov(g)
    scales = _parse_s_range("40..512")
    assert len(scales) == 12
    resolvent_apply(g, random_mean_zero(g, np.random.default_rng(13)), scales, power, TOL)
    assert W.products == resolvent_frac_series(g, 512, power, TOL).truncation <= 650


def test_chebyshev_terms(cycle16):
    # T_k(P) f from the three-term recurrence, on vectors and blocks
    g = cycle16
    F = np.random.default_rng(14).standard_normal((g.n, 2))
    assert list(chebyshev(g, F[:, 0], -1)) == []
    for f in (F[:, 0], F):
        terms = list(chebyshev(g, f, 9))
        assert len(terms) == 10
        for k, t in enumerate(terms):
            want = calculus.spectral(g).apply(
                lambda z, k=k: np.polynomial.chebyshev.chebval(z, np.eye(10)[k]), f)
            np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)
    # exactly N sparse products
    g = lazy_cycle(16)
    W = counting_markov(g)
    assert len(list(chebyshev(g, F, 9))) == 10
    assert W.products == 9


def test_one_basis_per_table():
    g = lazy_cycle(16)
    with pytest.raises(ValueError):
        calculus.series_table(g, "t", [(np.ones(3), 0.0),
                                       (np.ones(3), 0.0, CHEBYSHEV)])
    op = calculus.series_table(g, "t", [(np.ones(3), 0.0, CHEBYSHEV)] * 2)
    assert op.basis == CHEBYSHEV
    assert calculus.series_table(g, "t", [(np.ones(3), 0.0)]).basis == POWER
