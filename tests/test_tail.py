"""The closed-form tail of a profile: the levels past default_l_max =
diam^2 + 1, where every parabolic cone is the whole graph, summed to
infinity as two functions of P applied to the profile's generator, and
the molecular pipeline that stores no level past them."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import tail_series_longdouble, lusin_tail_mass_exact, reproducing_tail_exact

from graphhardy import calculus, hardy
from graphhardy.errors import NonConvergent
from graphhardy.graphs import cached_geometry
from graphhardy.hardy import (form_molecular_decompose, form_profile, heat_profile,
                              molecular_decompose, synthesis_orders)
from graphhardy.operators import (differential, divergence, inner, lp_norm, mean_project,
                                  random_mean_zero, spectral_interval)
from graphhardy.quadratic import ProfileTail, SpaceTimeFunction, default_l_max, tent_functional
from graphhardy.tentspace import atomic_decompose, pi_synthesis
from graphhardy.zoo import binary_tree, by_name, lazy_torus_2d

EPS = np.finfo(float).eps


def _profile(g, kind, seed=1):
    """(profile with its tail, its beta, (eta, exp) of its synthesis) of a
    noise input: bz2 at beta 1 or 1/2, or the forms profile of df."""
    f = random_mean_zero(g, np.random.default_rng(seed))
    d0 = cached_geometry(g).d0_estimate
    if kind == "form":
        eta, beta, exp = synthesis_orders("form", 1, 0.5, 1.0, d0)
        return form_profile(g, divergence(g, differential(g, f))), beta, (eta, exp)
    beta = {"bz2_1": 1.0, "bz2_half": 0.5}[kind]
    eta, _, exp = synthesis_orders("bz2", 1, beta, 1.0, d0)
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


def test_tail_symbols_vanish_on_the_constants():
    lam = np.array([1.0, 0.5])
    assert calculus._reproducing_tail_symbol(lam, 3, 4, 2.0)[0] == 0.0
    assert calculus._lusin_tail_symbol(lam, 3, 1.0, 0.0)[0] == 0.0
    assert calculus._lusin_tail_symbol(lam, 3, 1.0, 0.0)[1] > 0.0


# -- the tail against its dense reference ----------------------------------------

@pytest.mark.parametrize("kind", ["bz2_1", "bz2_half", "form"])
@pytest.mark.parametrize("name", ["lazy_cycle_16", "lazy_cycle_64", "lazy_torus_8",
                                  "lazy_torus_16", "lazy_path_9"])
def test_tail_matches_the_dense_reference(name, kind):
    # below the cap both symbols go through the oracle, on the tail's
    # potential h of u = Delta^order h; the reference sums each
    # eigenvalue's series to infinity in long double
    g = by_name(name)
    F, beta, (eta, exp) = _profile(g, kind)
    h, order, K = F.tail.potential, F.tail.order, F.l_max
    assert K == default_l_max(g)
    want = lusin_tail_mass_exact(g, h, beta, K, order)
    assert abs(F.tail.mass - want) <= 1e-12 * want
    want = reproducing_tail_exact(g, h, K, eta, exp + order)
    assert lp_norm(g, F.tail.synthesis(eta, exp) - want, 2) <= 1e-12 * lp_norm(g, want, 2)


@pytest.mark.parametrize("kind", ["bz2_1", "bz2_half", "form"])
@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16", "lazy_path_9"])
def test_series_columns_match_the_oracle_within_their_bound(monkeypatch, name, kind):
    # above the cap the symbols are Chebyshev columns on the deflated
    # interval: the Lusin column agrees with the oracle within its tail
    # bound and the recurrence's rounding, N eps sum|c_k|, both times
    # ||h||, and the synthesis within the tol it is asked for
    g = by_name(name)
    F, beta, (eta, exp) = _profile(g, kind)
    tail, K = F.tail, F.l_max
    h, order, tol = tail.potential, tail.order, 1e-10
    exact = (calculus.lusin_tail_apply(g, h, beta, order, K),
             calculus.reproducing_tail_apply(g, h, K, eta, exp + order, tol))
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    interval = calculus._deflated(g, spectral_interval(g))
    coeffs, bound, *_ = calculus._lusin_tail_column(K, 2 * beta - 1, order, calculus.TAIL_TOL,
                                                    interval)
    lusin = calculus.lusin_tail_apply(g, h, beta, order, K)
    synthesis = calculus.reproducing_tail_apply(g, h, K, eta, exp + order, tol)
    assert calculus.spectrum(g).source == "certified"
    rounding = len(coeffs) * EPS * np.abs(coeffs).sum()
    assert bound <= calculus.TAIL_TOL
    assert lp_norm(g, lusin - exact[0], 2) <= (bound + rounding) * lp_norm(g, h, 2)
    assert lp_norm(g, synthesis - exact[1], 2) <= tol


def test_a_slowly_mixing_tail_walks_its_first_levels(monkeypatch):
    # where the column's rounding would pass the tol asked for, the first
    # levels of the tail are walked as stored levels are and the column
    # takes the rest: the sum still meets tol against the oracle
    g = by_name("lazy_cycle_64")
    F, beta, (eta, exp) = _profile(g, "bz2_1")
    h, K, power = F.tail.potential, F.l_max, exp + F.tail.order
    want = calculus.reproducing_tail_apply(g, h, K, eta, power, 1.0)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    interval = calculus._deflated(g, spectral_interval(g))
    coeffs, *_ = calculus._reproducing_tail_column(K, eta, power, 2.0 ** -60, interval)
    tol = calculus._tail_rounding(coeffs) * lp_norm(g, h, 2)  # 4x what the column alone meets
    walks = []
    walked = calculus._walked_tail
    monkeypatch.setattr(calculus, "_walked_tail", lambda *a: walks.append(a[3]) or walked(*a))
    got = calculus.reproducing_tail_apply(g, h, K, eta, power, tol)
    assert walks and walks[0] > K
    assert lp_norm(g, got - want, 2) <= tol


def test_full_profile_reproduces_without_a_horizon():
    # the synthesis of the profile with its tail reproduces f to rounding;
    # the same levels without the tail miss what lies past diam^2
    g = by_name("lazy_cycle_32")
    f = random_mean_zero(g, np.random.default_rng(5))
    eta = 4
    F = heat_profile(g, f, 1.0)
    gap = lp_norm(g, pi_synthesis(g, F, eta, 1.0) - f, 2)
    assert gap <= 1e-12 * lp_norm(g, f, 2)
    cut = lp_norm(g, pi_synthesis(g, heat_profile(g, f, 1.0, F.l_max), eta, 1.0) - f, 2)
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
    stored = float(np.sum(e.vals ** 2 / (e.ls + 1.0) * g.m[e.ys])) * lam ** 2
    assert lam ** 2 / A.ball.volume == pytest.approx(stored + F.tail.mass, rel=1e-12)
    assert all(atom.validate() for _, atom in tdec.coefficients)


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


def test_pairing_with_the_input_is_its_energy():
    # sum lambda_i <f, a_i> = ||f||^2: the tail's molecule carries the
    # part of f past diam^2
    g = by_name("lazy_cycle_64")
    f = random_mean_zero(g, np.random.default_rng(4))
    dec = molecular_decompose(g, f, 1, 1.0, 1.0)
    pairing = sum(lam * inner(g, f, mol.a) for lam, mol in dec.coefficients)
    assert pairing == pytest.approx(inner(g, f, f), rel=1e-10)
