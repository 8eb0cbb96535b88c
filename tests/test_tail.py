"""The closed-form tail of a profile: the levels past default_l_max =
diam^2 + 1, where every parabolic cone is the whole graph, summed to
infinity as bounded functions of P applied to the profile's potential
(its Lusin mass, and its shares of a molecule and of the molecule's
pre-image), and the molecular pipeline that stores no level past them."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (form_profile, is_tent_atom, lusin_tail_mass_exact, pi_synthesis,
                     synthesis_tail_exact, tail_series_longdouble, truncated_profile)

from graphhardy import calculus, hardy
from graphhardy.errors import NonConvergent
from graphhardy.graphs import cached_geometry
from graphhardy.hardy import (form_molecular_decompose, heat_profile, molecular_decompose,
                              synthesis_orders)
from graphhardy.operators import (differential, divergence, inner, lp_norm, mean_project,
                                  random_mean_zero)
from graphhardy.quadratic import ProfileTail, SpaceTimeFunction, default_l_max, tent_functional
from graphhardy.tentspace import atomic_decompose
from graphhardy.zoo import binary_tree, by_name, lazy_torus_2d

EPS = np.finfo(float).eps


def _profile(g, kind, seed=1, M=1):
    """(profile with its tail, its beta, (eta, exp) of its synthesis at M)
    of a noise input: bz2 at beta 1 or 1/2, or the forms profile of df."""
    f = random_mean_zero(g, np.random.default_rng(seed))
    d0 = cached_geometry(g).d0_estimate
    if kind == "form":
        eta, beta, exp = synthesis_orders("form", M, 0.5, 1.0, d0)
        return form_profile(g, divergence(g, differential(g, f))), beta, (eta, exp)
    beta = {"bz2_1": 1.0, "bz2_half": 0.5}[kind]
    eta, _, exp = synthesis_orders("bz2", M, beta, 1.0, d0)
    return heat_profile(g, f, beta), beta, (eta, exp)


# -- the closed forms ----------------------------------------------------------

@pytest.mark.parametrize("lam,K,eta", [(0.9976, 1024, 3), (0.9976, 1024, 1), (0.5, 7, 4),
                                       (-0.93, 65, 6), (0.999, 3, 2)])
def test_negative_binomial_tail_is_the_direct_sum(lam, K, eta):
    # p^-eta sum_{i<eta} C(K+eta, i) p^i z^(K+eta-i) is
    # sum_{j>K} C(j+eta-1, eta-1) z^j, with nothing to cancel
    want = float(tail_series_longdouble(
        [lam], K + 1, lambda j: np.longdouble(math.comb(j + eta - 1, eta - 1)))[0])
    got = calculus._negative_binomial_tail(lam, K, eta)
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("a", [0.0, 1.0, 0.5, -0.5, 2.0])
def test_power_tail_and_its_bound(a):
    # the Lusin weights (l+1)^a: closed form for a = 0 and 1, summed
    # directly otherwise, and the ellipse bound is never below the sum
    lam = np.array([0.0, 0.3, -0.8, 0.99, 0.9976])
    K = 1024
    want = tail_series_longdouble(lam, K + 1, lambda l: np.longdouble(l + 1) ** a)
    got = calculus._power_tail(lam, K, a)
    np.testing.assert_allclose(got, want.astype(float), rtol=1e-13, atol=0)
    R = np.abs(lam)
    assert np.all(calculus._power_tail_bound(R, K, a) >= got * (1.0 - 1e-15))


@pytest.mark.parametrize("K,eta", [(1024, 3), (7, 4), (65, 6), (3, 2), (325, 1)])
def test_reproducing_error_is_a_probability(K, eta):
    # E(lam) = (1 - z)^eta sum_{j>K} c_{j+1} z^j is 1 minus the
    # reproducing sum stopped at K: in [0, 1], 1 on the constants, 0 at
    # lam = 0, and the long-double series times (1 - z)^eta elsewhere
    lam = np.array([-0.93, -0.5, 0.0, 0.3, 0.9, 0.999, 0.9976, 1.0])
    E = calculus._reproducing_error(lam, K, eta)
    assert np.all((E >= 0.0) & (E <= 1.0)) and E[-1] == 1.0 and E[2] == 0.0
    x = lam[:-1].astype(np.longdouble)
    want = (1 - x * x) ** eta * tail_series_longdouble(
        lam[:-1], K + 1, lambda j: np.longdouble(math.comb(j + eta - 1, eta - 1)))
    np.testing.assert_allclose(E[:-1], want.astype(float), rtol=1e-13, atol=1e-300)


def test_tail_symbols_vanish_on_the_constants():
    lam = np.array([1.0, 0.5])
    assert calculus.SynthesisTail(3, 4, 0.5, 0.0)(lam, 1.0)[0] == 0.0
    assert calculus.SynthesisTail(3, 4, -2.0, 2.5)(lam, 49.0)[0] == 0.0
    assert calculus.SynthesisTail(3, 4, -2.0, 2.5)(lam, 49.0)[1] > 0.0
    assert calculus.LusinTail(3, 1.0, 0.0)(lam, None)[0] == 0.0
    assert calculus.LusinTail(3, 1.0, 0.0)(lam, None)[1] > 0.0
    # a negative order puts a pole of the front at lam = 1: still 0 there
    assert calculus.LusinTail(3, -2.0, -0.5)(lam, None)[0] == 0.0
    assert calculus.LusinTail(3, -2.0, -0.5)(lam, None)[1] > 0.0


@pytest.mark.parametrize("order", [1.0, 0.5, 0.0, -0.5, -1.0, -1.5])
def test_lusin_tail_sup_bounds_its_symbol(order):
    # the Lusin column's tail bound rests on sup(R) >= |chi| on
    # |lam| <= R; on the real segment that needs chi(+-R) <= sup(R),
    # which for order < 0 takes the front's value at lam = R, (1 - R)^{2 order}
    op = calculus.LusinTail(1, 2.0 * order - 1.0, order)
    R = np.linspace(0.0, 0.99, 100)
    chi = np.abs(op(np.concatenate([R, -R]), None))
    assert np.all(chi <= np.tile(op.sup(None, 0.0, 1.0, R), 2) * (1.0 + 1e-12))


# -- the tail against its dense reference ----------------------------------------

ZOO = ["lazy_cycle_16", "lazy_cycle_64", "lazy_torus_8", "lazy_torus_16", "lazy_path_9"]


@pytest.mark.parametrize("kind", ["bz2_1", "bz2_half", "form"])
@pytest.mark.parametrize("name", ZOO)
def test_tail_matches_the_dense_reference(name, kind):
    # below the cap the symbols go through the oracle, on the tail's
    # potential h of u = Delta^order h; the reference sums each
    # eigenvalue's series to infinity in long double.  pi_{eta, beta}
    # reads the share at power order - beta
    g = by_name(name)
    F, beta, (eta, exp) = _profile(g, kind)
    h, order, K = F.tail.potential, F.tail.order, F.l_max
    assert K == default_l_max(g)
    want = lusin_tail_mass_exact(g, h, beta, K, order)
    assert abs(F.tail.mass - want) <= 1e-12 * want
    want = synthesis_tail_exact(g, h, K, eta, order - beta)
    got = F.tail.share(eta, beta, order - beta)
    assert lp_norm(g, got - want, 2) <= 1e-12 * lp_norm(g, want, 2)


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("kind", ["bz2_1", "bz2_half", "form"])
@pytest.mark.parametrize("name", ZOO)
def test_molecule_shares_match_the_dense_reference(monkeypatch, name, kind, M):
    # the tail's share of a molecule a = Delta^M X is E(P) h, and of its
    # pre-image b = Q_s X it is Q_s Delta^{-M} E(P) h, Q_s of power M
    # (bz2) or M + 1/2 (forms), here at the least scale a whole-graph
    # atom takes, s = (diam + 1)^2: within 1e-12 ||h|| of the long-double
    # reference through the oracle, and within the tail's tol,
    # TAIL_TOL ||h||, through the series
    g = by_name(name)
    F, beta, (eta, _) = _profile(g, kind, M=M)
    tail, K = F.tail, F.l_max
    s, q = float((g.diameter + 1) ** 2), M + 0.5 * (kind == "form")
    want = (synthesis_tail_exact(g, tail.potential, K, eta),
            synthesis_tail_exact(g, tail.potential, K, eta, -M, s, q))
    norm = lp_norm(g, tail.potential, 2)

    def shares():
        return tail.share(eta, beta), tail.share(eta, beta, -M, s, q)

    oracle = shares()
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    series = shares()
    assert calculus.spectrum(g).source == "certified"
    for got, allowed in ((oracle, 1e-12), (series, calculus.TAIL_TOL)):
        for part, exact in zip(got, want):
            assert lp_norm(g, part - exact, 2) <= allowed * norm


@pytest.mark.parametrize("kind", ["bz2_1", "bz2_half", "form"])
@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16", "lazy_path_9"])
def test_series_columns_match_the_oracle_within_their_bound(monkeypatch, name, kind):
    # above the cap the symbols are Chebyshev columns on the deflated
    # interval: the Lusin column agrees with the oracle within its tail
    # bound and the recurrence's rounding, N eps sum|c_k|, both times
    # ||h||, and the molecule's share within the tol it is asked for; its
    # column is bounded as its symbol is, E being in [0, 1]
    g = by_name(name)
    F, beta, (eta, exp) = _profile(g, kind)
    tail, K = F.tail, F.l_max
    h, order, tol = tail.potential, tail.order, 1e-10
    chi = calculus.LusinTail(K, 2 * beta - 1, order)

    def columns():
        return (calculus.phi_apply(g, h, chi, None, calculus.TAIL_TOL),
                dataclasses.replace(tail, tol=tol).share(eta, beta))

    exact = columns()
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    op = calculus.series(g, chi, None, calculus.TAIL_TOL)
    coeffs, bound = op.coeffs, op.tail_bound
    lusin, synthesis = columns()
    assert calculus.spectrum(g).source == "certified"
    rounding = len(coeffs) * EPS * np.abs(coeffs).sum()
    assert bound <= calculus.TAIL_TOL
    assert lp_norm(g, lusin - exact[0], 2) <= (bound + rounding) * lp_norm(g, h, 2)
    assert lp_norm(g, synthesis - exact[1], 2) <= tol
    coeffs = calculus.series(g, calculus.SynthesisTail(K, eta, 0.0, 0.0), 1.0, 2.0 ** -60).coeffs
    assert np.abs(coeffs).sum() <= 2.0


def test_full_profile_reproduces_without_a_horizon():
    # the synthesis of the profile with its tail reproduces f to rounding;
    # the same levels without the tail miss what lies past diam^2
    g = by_name("lazy_cycle_32")
    f = random_mean_zero(g, np.random.default_rng(5))
    eta = 4
    F = heat_profile(g, f, 1.0)
    gap = lp_norm(g, pi_synthesis(g, F, eta, 1.0) - f, 2)
    assert gap <= 1e-12 * lp_norm(g, f, 2)
    cut = lp_norm(g, pi_synthesis(g, truncated_profile(g, f, 1.0, F.l_max), eta, 1.0) - f, 2)
    assert cut > 1e-3 * lp_norm(g, f, 2)


def test_tent_functional_adds_the_tail_mass_everywhere():
    # past diam^2 every cone is the whole graph: the tail adds its Lusin
    # mass over m(Gamma) to A F(x)^2 at every x
    g = by_name("lazy_torus_8")
    F, _, _ = _profile(g, "bz2_1")
    bare = SpaceTimeFunction(g, F.values)
    gap = tent_functional(g, F) ** 2 - tent_functional(g, bare) ** 2
    np.testing.assert_allclose(gap, F.tail.mass / g.total_volume(), rtol=1e-9)


# -- the tail in the tent decomposition and the synthesis ---------------------------

def test_tail_mass_joins_the_whole_graph_atom():
    # the whole-graph piece holds the tail: its lambda^2 / V(Gamma) is the
    # Lusin mass of its stored runs plus the tail's, and the atoms'
    # T^2_2 norms (stored runs and tail) stay within their bound
    g = by_name("lazy_cycle_32")
    F, _, _ = _profile(g, "bz2_1")
    tdec = atomic_decompose(g, F)
    held = [(lam, A) for lam, A in tdec.coefficients if A.values.tail is not None]
    assert len(held) == 1
    lam, A = held[0]
    assert A.ball.mask.all()
    e = A.values
    rows = e.rows()
    stored = float(g.m[e.verts] @ (rows ** 2 / np.arange(1.0, e.top + 1.0)).sum(axis=1))
    stored *= lam ** 2
    assert lam ** 2 / A.ball.volume == pytest.approx(stored + F.tail.mass, rel=1e-12)
    assert all(is_tent_atom(atom) for _, atom in tdec.coefficients)


def test_tail_without_a_whole_graph_piece_is_refused():
    # a tail whose mass vanishes against m(Gamma) leaves a vertex with
    # A F = 0, so no level set is the whole graph and no piece can hold it
    g = by_name("lazy_cycle_16")
    values = np.zeros((g.n, 66))
    values[:4, :3] = 1.0
    tail = SimpleNamespace(mass=5e-324, start=65, reach=0)
    with pytest.raises(NonConvergent, match="lies in no tent"):
        atomic_decompose(g, SpaceTimeFunction(g, values, tail))


def test_tail_must_continue_the_stored_levels():
    g = by_name("lazy_cycle_16")
    u = mean_project(g, np.arange(g.n, dtype=float))
    with pytest.raises(ValueError, match="starts inside the cones"):
        ProfileTail(g, u, 1.0, 1.0, g.diameter ** 2 - 1)
    with pytest.raises(ValueError, match="does not continue"):
        SpaceTimeFunction(g, np.zeros((g.n, 70)), ProfileTail(g, u, 1.0, 1.0, 65))


def test_synthesis_refuses_a_tail_of_another_weight():
    g = by_name("lazy_cycle_16")
    F = heat_profile(g, random_mean_zero(g, np.random.default_rng(0)), 1.0)
    with pytest.raises(ValueError, match="synthesized at beta"):
        pi_synthesis(g, F, 4, 0.5)


# -- the pipeline --------------------------------------------------------------------

def _ball_sum(g, rng, count):
    f = np.zeros(g.n)
    for _ in range(count):
        f[g.dist[int(rng.integers(g.n))] < int(rng.integers(1, 4))] += rng.choice((-1.0, 1.0))
    return mean_project(g, f)


MOLECULAR_INPUTS = [("lazy_torus_16", 0), ("lazy_cycle_64", 0), ("lazy_torus_16", 1),
                    ("lazy_cycle_64", 2), ("lazy_torus_16", 3)]


@pytest.mark.parametrize("name,balls", MOLECULAR_INPUTS)
def test_pipeline_stores_no_level_past_diam_squared(monkeypatch, name, balls):
    # the benchmark's molecular inputs (white noise, sums of 1-3 balls):
    # the profile ends at default_l_max, and one atom, the whole-graph
    # piece, carries the tail
    g = by_name(name)
    rng = np.random.default_rng(7)
    f = _ball_sum(g, rng, balls) if balls else random_mean_zero(g, rng)
    seen = []

    def recording(g, F, tol):
        seen.append(F)
        tdec = atomic_decompose(g, F, tol)
        seen.append(tdec)
        return tdec

    monkeypatch.setattr(hardy, "atomic_decompose", recording)
    dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
    F, tdec = seen
    assert F.l_max == default_l_max(g) == g.diameter ** 2 + 1
    held = [A for _, A in tdec.coefficients if A.values.tail is not None]
    assert len(held) == 1 and held[0].ball.mask.all()
    assert dec.l2_residual <= 1e-8


def test_binary_tree_decomposes_in_little_memory():
    # binary_tree(9) has diam^2 + 1 = 325 levels against a reproducing
    # horizon of 51,471; the truncated profile took 1.38 GB
    g = binary_tree(9)
    f = random_mean_zero(g, np.random.default_rng(3))
    tracemalloc.start()
    try:
        dec = molecular_decompose(g, f, 1, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.l2_residual <= 1e-8
    # measured 99 MB
    assert peak < 150e6


@pytest.mark.parametrize("scale,tol", [(1.0, 1e-9), (3.0, 1e-8), (3.0, 1e-9)])
def test_a_slowly_mixing_graph_meets_a_tighter_tol(scale, tol):
    # binary_tree(9) mixes slowly (1 - lambda_star = 3.3e-4): the tail
    # acts on the potential f, not on Delta f, so its series holds the
    # tol asked for whatever the input's norm; the truncated profile of
    # 51,471 levels met these too
    g = binary_tree(9)
    f = scale * random_mean_zero(g, np.random.default_rng(3))
    dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=tol)
    assert dec.l2_residual <= tol


def test_a_slowly_mixing_graph_meets_a_tighter_tol_at_M2():
    # at M = 2 the tail's share of the unbounded X, cancelled by Delta^2
    # only after it was rounded, left the residual at 1.355e-9
    # (NonConvergent); its bounded share E(P) f leaves 2.6e-11
    g = binary_tree(9)
    f = 3.0 * random_mean_zero(g, np.random.default_rng(3))
    dec = molecular_decompose(g, f, 2, 1.0, 1.0, tol=1e-9)
    assert dec.l2_residual <= 1e-9


def test_binary_tree_10_takes_few_products():
    # binary_tree(10) mixes slowly: the bounded tail columns need no walk
    # of the tail's first levels, which took 372,708 product columns in
    # all at a 3x input and tol 1e-9; the bounded shares take 145,156
    g = binary_tree(10)
    f = 3.0 * random_mean_zero(g, np.random.default_rng(3))
    g.matvec_cols = 0
    dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-9)
    assert dec.l2_residual <= 1e-9
    assert g.matvec_cols <= 160_000


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_a_slowly_mixing_cycle_decomposes_at_M3(kind):
    # lazy_cycle_64 at M = 3: the tail's share of X grew like
    # (1 - lam)^{-3} before Delta^3 cancelled it, and bz2 ended above
    # tol (NonConvergent) and forms failed validation
    # (FactorizationMismatch); the bounded shares meet tol
    g = by_name("lazy_cycle_64")
    f = random_mean_zero(g, np.random.default_rng(0))
    if kind == "bz2":
        dec = molecular_decompose(g, f, 3, 1.0, 1.0, tol=1e-8)
    else:
        dec = form_molecular_decompose(g, differential(g, f), 3, 1.0, tol=1e-8)
    assert dec.l2_residual <= 1e-8


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_above_the_cap_the_tail_goes_through_the_series(kind):
    # lazy_torus_2d(17), n = 289, has no oracle: both tail symbols are
    # Chebyshev columns on the certified interval
    g = lazy_torus_2d(17)
    assert not calculus.has_oracle(g)
    f = random_mean_zero(g, np.random.default_rng(2))
    if kind == "bz2":
        dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
    else:
        dec = form_molecular_decompose(g, differential(g, f), 1, 1.0, tol=1e-8)
    assert calculus.spectrum(g).source == "certified"
    assert len(dec.coefficients) > 1 and dec.l2_residual <= 1e-8


def test_negative_beta_decomposes_on_both_paths(monkeypatch):
    # at beta = -1/2 the Lusin tail's front (1 - lam)^{2 beta} has a pole
    # at lam = 1, the constants', which the oracle skips as the series
    # does: both paths give the same molecules
    g = by_name("lazy_cycle_16")
    f = random_mean_zero(g, np.random.default_rng(0))
    oracle = molecular_decompose(g, f, 1, -0.5, 1.0)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    series = molecular_decompose(g, f, 1, -0.5, 1.0)
    assert calculus.spectrum(g).source == "certified"
    assert len(oracle.coefficients) == len(series.coefficients) == 5
    assert oracle.sum_abs_lambda == pytest.approx(series.sum_abs_lambda, rel=1e-12)
    assert max(oracle.l2_residual, series.l2_residual) <= 1e-8


def test_pairing_with_the_input_is_its_energy():
    # sum lambda_i <f, a_i> = ||f||^2: the tail's molecule carries the
    # part of f past diam^2
    g = by_name("lazy_cycle_64")
    f = random_mean_zero(g, np.random.default_rng(4))
    dec = molecular_decompose(g, f, 1, 1.0, 1.0)
    pairing = sum(lam * inner(g, f, mol.a) for lam, mol in dec.coefficients)
    assert pairing == pytest.approx(inner(g, f, f), rel=1e-10)
