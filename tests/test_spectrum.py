"""The spectrum record: lambda_star from the dense oracle up to the cap
and certified by spectrum slicing above it.  The certified value bounds
the oracle's from above and lies within 1e-8 of it, at both ends of the
spectrum; a failed estimate, a wrong inertia count or a backward error
that no slice offset clears is a typed error."""

import functools

import numpy as np
import pytest

from graphhardy import calculus, zoo
from graphhardy.calculus import spectrum
from graphhardy.errors import PeriodicWalk, UncertifiedSpectrum
from graphhardy.graphs import build_graph
from graphhardy.operators import spectral_interval


@functools.lru_cache(maxsize=None)
def _graph(name):
    if name == "odd_cycle_301":
        # no loops, so the walk is not lazy: its most negative eigenvalue,
        # -cos(pi / 301), has the largest modulus on mean-zero functions
        return zoo.lazy_cycle(301, loop_weight=0.0)
    if name.startswith("jittered_"):
        return zoo.random_weights(zoo.by_name(name[len("jittered_"):]), 3)
    return zoo.by_name(name)


def _oracle_radius(g, monkeypatch):
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 2048)
    return float(np.abs(calculus.SpectralOracle(g).eigenvalues[:-1]).max())


def _certified(g):
    return calculus._certify(g, spectral_interval(g)[0])


@pytest.mark.parametrize("name", [
    "k2l", "lazy_cycle_3", "lazy_cycle_16", "lazy_cycle_64", "lazy_cycle_256", "lazy_path_9",
    "lazy_path_200", "lazy_torus_8", "lazy_torus_16", "lazy_torus_24", "lazy_torus_32",
    "binary_tree_4", "binary_tree_9", "jittered_lazy_torus_20", "jittered_lazy_cycle_16",
    "odd_cycle_301"])
def test_certified_lambda_star_bounds_the_oracle(name, monkeypatch):
    g = _graph(name)
    lam = _oracle_radius(g, monkeypatch)
    rec = _certified(g)
    assert rec.source == "certified"
    assert lam <= rec.lambda_star <= lam + 1e-8
    assert 0.0 < rec.margin <= 2 * calculus.SLICE_OFFSETS[-1]
    assert rec.lo == spectral_interval(g)[0]


def test_the_bottom_end_is_certified(monkeypatch):
    # on the loop-free odd cycle the radius is set by the bottom end, so a
    # certificate of the top end alone would be too small, and a slice
    # of the bottom end is factored
    g = _graph("odd_cycle_301")
    lam = _oracle_radius(g, monkeypatch)
    eigenvalues = calculus.SpectralOracle(g).eigenvalues
    assert -eigenvalues[0] == lam > eigenvalues[-2] + 1e-5
    counted = []
    real = calculus._negative_pivots

    def counting(A):
        counted.append(real(A)[0])
        return real(A)

    monkeypatch.setattr(calculus, "_negative_pivots", counting)
    assert lam <= _certified(g).lambda_star <= lam + 1e-8
    assert counted == [1, 0]


def test_the_record_by_source(monkeypatch):
    # one record per graph and source: the oracle's up to the cap, raised
    # by n eps for eigh's error and rounded up, and a certified one above it
    g = zoo.lazy_torus_2d(12)
    rec = spectrum(g)
    radius = np.abs(calculus.spectral(g).eigenvalues[:-1]).max()
    error = g.n * np.finfo(float).eps
    assert (rec.source, rec.margin) == ("oracle", 2 * error)
    assert rec.lambda_star == np.nextafter(radius + error, np.inf)
    assert spectrum(g) is rec
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    certified = spectrum(g)
    assert certified.source == "certified" and spectrum(g) is certified
    assert rec.lambda_star <= certified.lambda_star <= rec.lambda_star + 1e-8


def test_an_arpack_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise calculus.spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(calculus.spla, "eigsh", no_convergence)
    with pytest.raises(UncertifiedSpectrum, match="Lanczos estimate"):
        _certified(zoo.lazy_torus_2d(12))


def test_a_wrong_count_is_typed(monkeypatch):
    # an estimate below the radius (a Lanczos value of an interior
    # eigenvalue) leaves the multiplicity of the radius above the slice
    # too: lazy_torus_12 counts 1 + 4 negative pivots there
    g = zoo.lazy_torus_2d(12)
    low = _certified(g).lambda_star - 1e-3
    monkeypatch.setattr(calculus, "_ritz", lambda S, v, which: low)
    with pytest.raises(UncertifiedSpectrum, match="5 eigenvalues"):
        _certified(g)


def test_a_backward_error_no_offset_clears_is_typed(monkeypatch):
    g = zoo.lazy_torus_2d(12)
    slices = []

    def inaccurate(A):
        slices.append(A)
        return 1, 1.0

    monkeypatch.setattr(calculus, "_negative_pivots", inaccurate)
    with pytest.raises(UncertifiedSpectrum, match="backward error"):
        _certified(g)
    assert len(slices) == len(calculus.SLICE_OFFSETS)


def test_an_error_within_the_offset_widens_the_bound(monkeypatch):
    # the count is trusted once the backward error is at most the slice
    # offset, and the error is added to the certified value
    g = zoo.lazy_torus_2d(12)
    real = calculus._negative_pivots
    errors = iter([5e-10, 5e-10])

    def noisy(A):
        return real(A)[0], next(errors)

    theta = _certified(g).lambda_star - _certified(g).margin
    monkeypatch.setattr(calculus, "_negative_pivots", noisy)
    rec = _certified(g)
    assert rec.lambda_star >= theta + calculus.SLICE_OFFSETS[1] + 5e-10


def test_a_periodic_walk_is_refused_before_the_factorization(monkeypatch):
    # the loop-free 4-cycle is bipartite: -1 is an eigenvalue of P
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])

    def no_factorization(A):
        raise AssertionError("factored a periodic walk")

    monkeypatch.setattr(calculus, "_negative_pivots", no_factorization)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    with pytest.raises(PeriodicWalk):
        spectrum(g)


def test_the_oracle_only_where_it_is_cheap():
    # the dense oracle is built up to n = 256 only.  The molecular
    # benchmark's fixtures (lazy_torus_16, lazy_cycle_64) stay on it:
    # their references include the rounding molecules the oracle makes
    # where f - P f is exactly 0, which the series path's exact Delta^k
    # does not make, so moving them off the oracle re-pins those counts.
    # The analysis fixture lazy_torus_32 takes the series path.
    why = ("the molecular benchmark references (lazy_torus_16, lazy_cycle_64) include "
           "the rounding molecules the oracle's Delta^1 makes where f - P f is exactly 0; "
           "taking those fixtures off the oracle re-pins their molecule counts")
    assert all(calculus.has_oracle(zoo.by_name(name))
               for name in ("lazy_torus_16", "lazy_cycle_64")), why
    assert not calculus.has_oracle(zoo.by_name("lazy_torus_32")), \
        "lazy_torus_32 (n = 1,024) pays a 0.7 s eigh on the oracle; it takes the series path"
