import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (ball_matrix_dense, delta_power_exact, horner_synthesis_levels_first,
                     lusin_tail_mass_exact, make_form_molecule_from_tent_atom, resolvent_exact,
                     top_level)

from graphhardy import calculus, graphs, hardy
from graphhardy.calculus import (
    BZ1Kind,
    BZ2Kind,
    QsKind,
    a_s,
    require_mean_zero,
)
from graphhardy.errors import (
    FactorizationMismatch,
    NotExactForm,
    PeriodicWalk,
    SizeBoundViolated,
    ValidationFailed,
)
from graphhardy.graphs import ball, build_graph, cached_geometry
from graphhardy.hardy import (
    Molecule,
    bmo_norm,
    duality_pairing,
    form_molecular_decompose,
    m0_norm,
    make_molecule_from_tent_atom,
    molecular_decompose,
    form_profile,
    heat_profile,
    pipeline_l_max,
    synthesis_eta,
    synthesis_eta_forms,
    synthesize_molecules,
    validate_molecule,
)
from graphhardy.operators import (
    EdgeFunction,
    apply_P,
    differential,
    divergence,
    lp_norm,
    lp_norm_forms,
    mean_project,
    random_mean_zero,
)
from graphhardy.quadratic import SpaceTimeFunction, default_l_max, lusin, lusin_tail_bound
from graphhardy.riesz import molecule_suite, riesz as riesz_transform
from graphhardy.tentspace import (TentAtom, TentDecomposition, atomic_decompose,
                                  eta_coefficients, horner_synthesis, tent)
from graphhardy.zoo import by_name, lazy_cycle, lazy_torus_2d


def _delta_atom(g, y, M):
    b = np.zeros(g.n)
    b[y] = 1.0 / g.m[y]
    a = b.copy()
    for _ in range(M):
        a = a - apply_P(g, a)
    return Molecule("bz1", M, math.inf, 1, ball(g, y, 1), b, a, times=(1,) * M)


def test_delta_atom_validates(cycle16):
    for M in (1, 2):
        mol = _delta_atom(cycle16, 3, M)
        rep = validate_molecule(mol)
        assert rep.l1_norm <= 2.0 ** M * 1.0 + 1e-12


def test_zero_molecule_validates(cycle16):
    B = ball(cycle16, 0, 2)
    mol = Molecule("bz2", 1, 1.0, 4, B, np.zeros(cycle16.n), np.zeros(cycle16.n))
    rep = validate_molecule(mol)
    assert rep.l1_norm == 0.0


def test_indicator_bz2_molecules_bounded_l1():
    from graphhardy.zoo import lazy_cycle

    g = lazy_cycle(64)
    for s in (1, 4, 16):
        r = math.ceil(math.sqrt(s))
        B = ball(g, 10, r)
        b = B.mask.astype(float) / B.volume
        a = a_s(g, b, BZ2Kind(s, 1))
        mol = Molecule("bz2", 1, math.inf, s, B, b, a)
        rep = validate_molecule(mol)
        assert rep.l1_norm <= 4.0


def test_validator_rejects_oversized_pre_image(cycle16):
    B = ball(cycle16, 0, 1)
    b = np.zeros(cycle16.n)
    b[0] = 10.0  # far above V(B)^{-1/2}
    a = b - apply_P(cycle16, b)
    mol = Molecule("bz1", 1, math.inf, 1, B, b, a, times=(1,))
    with pytest.raises(SizeBoundViolated) as err:
        validate_molecule(mol)
    assert err.value.j == 1


def test_validator_rejects_a_nan_molecule(cycle16):
    # a NaN factorization error is a failure, not a silent report
    mol = _delta_atom(cycle16, 3, 1)
    mol.a[5] = np.nan
    with pytest.raises(FactorizationMismatch):
        validate_molecule(mol)


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_stage_raises_the_validators_error(monkeypatch, cycle32, kind):
    # a block whose rederived a differs from the a of the scan fails in
    # the stage with the validator's own error
    rederive = hardy.rederive_molecules

    def perturbed(*args):
        out = rederive(*args)
        out[:, -1] += 1e-6
        return out

    monkeypatch.setattr(hardy, "rederive_molecules", perturbed)
    with pytest.raises(ValidationFailed) as err:
        _synthesize(kind, _unit_tent_atom(cycle32, 5, 4, 20))
    assert isinstance(err.value, FactorizationMismatch)


def _unit_tent_atom(g, center, radius, l_max):
    B = ball(g, center, radius)
    mask = tent(B, l_max)
    vals = np.zeros((g.n, l_max + 1))
    vals[mask] = 1.0
    stf = SpaceTimeFunction(g, vals)
    lam = stf.t22_norm() * math.sqrt(B.volume)
    return TentAtom(B, SpaceTimeFunction(g, vals / lam), 1.0 / math.sqrt(B.volume))


def test_make_molecule_k2l_matches_direct_sum(k2l):
    # single-pair atom at (u, 0); direct evaluation of the synthesis sum
    A = _unit_tent_atom(k2l, 0, 1, 0)
    d0 = cached_geometry(k2l).d0_estimate
    mol = make_molecule_from_tent_atom(A, 1, 1.0, 1.0, d0=d0)
    eta = synthesis_eta(1, 1.0, 1.0, d0)
    c = eta_coefficients(eta, 1)
    v = A.values.values[:, 0]
    direct = c[0] * v
    for _ in range(eta):
        direct = direct + apply_P(k2l, direct)
    direct = delta_power_exact(k2l, direct, eta - 1.0)
    direct = direct / mol.norm_constant
    np.testing.assert_allclose(np.asarray(mol.a), direct, atol=1e-10)
    validate_molecule(mol)


@pytest.mark.parametrize("make", [
    lambda A: make_molecule_from_tent_atom(A, 1, 1.0, 1.0),
    lambda A: make_form_molecule_from_tent_atom(A, 1, 1.0),
])
def test_synthesis_derives_a_once(monkeypatch, cycle32, make):
    # a stage derives a from b once, as one block over all of its
    # molecules, in the final validation: a itself comes from the heat
    # scan, and the excess of b is measured without rederiving
    calls = []
    rederive = hardy.rederive_molecules

    def counted(g, kind, M, s, times, b):
        calls.append(b.shape[1])
        return rederive(g, kind, M, s, times, b)

    monkeypatch.setattr(hardy, "rederive_molecules", counted)
    mol = make(_unit_tent_atom(cycle32, 5, 4, 20))
    assert calls == [1]
    assert mol.norm_constant > 1.0
    calls.clear()
    f = random_mean_zero(cycle32, np.random.default_rng(21))
    if mol.kind == "bz2":
        dec = molecular_decompose(cycle32, f, 1, 1.0, 1.0)
    else:
        dec = form_molecular_decompose(cycle32, differential(cycle32, f), 1, 1.0)
    k = len(dec.coefficients)
    assert k > 1 and calls == [k]


def test_zero_atom_zero_molecule(cycle16):
    B = ball(cycle16, 0, 2)
    A = TentAtom(B, SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 5))),
                 1.0 / math.sqrt(B.volume))
    mol = make_molecule_from_tent_atom(A, 1, 1.0, 1.0)
    assert lp_norm(cycle16, np.asarray(mol.a), 2) == 0.0


def test_zero_atom_zero_form_molecule(cycle16):
    B = ball(cycle16, 0, 2)
    A = TentAtom(B, SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 5))),
                 1.0 / math.sqrt(B.volume))
    mol = make_form_molecule_from_tent_atom(A, 1, 1.0)
    assert lp_norm(cycle16, mol.b, 2) == 0.0
    assert lp_norm_forms(cycle16, mol.a, 2) == 0.0


def _synthesize(kind, A):
    if kind == "bz2":
        return make_molecule_from_tent_atom(A, 1, 1.0, 1.0)
    return make_form_molecule_from_tent_atom(A, 1, 1.0)


def _a_data(mol):
    return mol.a.data if mol.kind == "form" else np.asarray(mol.a)


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_synthesis_truncation_invariant(cycle32, kind):
    # an atom over B(5, 3) lives at levels k < 9; padding its array with
    # zero levels (a larger l_max) must not change a single bit
    B = ball(cycle32, 5, 3)
    live = tent(B, 8)
    rng = np.random.default_rng(7)
    base = np.where(live, rng.standard_normal(live.shape), 0.0)
    base /= SpaceTimeFunction(cycle32, base).t22_norm() * math.sqrt(B.volume)
    k = top_level(base) - 1
    assert k == 8
    mols = []
    for l_max in (k + 5, k + 500):
        vals = np.zeros((cycle32.n, l_max + 1))
        vals[:, :k + 1] = base
        A = TentAtom(B, SpaceTimeFunction(cycle32, vals), 1.0 / math.sqrt(B.volume))
        assert A.validate()
        mols.append(_synthesize(kind, A))
    short, long = mols
    assert np.array_equal(short.b, long.b)
    assert np.array_equal(_a_data(short), _a_data(long))
    assert short.norm_constant == long.norm_constant
    validate_molecule(long)


def _stage_input(name, kind, seed=3):
    """(graph, tent decomposition, d0) of a noise input on a zoo fixture,
    its profile truncated at the reproducing horizon `pipeline_l_max`
    without a tail, so the synthesis scans every level it needs."""
    g = by_name(name)
    f = require_mean_zero(g, random_mean_zero(g, np.random.default_rng(seed)))
    d0 = cached_geometry(g).d0_estimate
    if kind == "bz2":
        eta = synthesis_eta(1, 1.0, 1.0, d0)
        F = heat_profile(g, f, 1.0, pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2)))
    else:
        dF = differential(g, f)
        eta = synthesis_eta_forms(1, 1.0, d0)
        l_max = pipeline_l_max(g, eta, 1e-8 / math.sqrt(2.0), lp_norm_forms(g, dF, 2))
        F = form_profile(g, divergence(g, dF), l_max)
    return g, atomic_decompose(g, F, tol=1e-8), d0


def _relative_gap(x, y):
    return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)


@pytest.mark.parametrize("series", [False, True])
@pytest.mark.parametrize("kind", ["bz2", "form"])
@pytest.mark.parametrize("name", ["lazy_torus_16", "lazy_cycle_64"])
def test_block_stage_matches_one_atom_synthesis(monkeypatch, name, kind, series):
    # every molecule of a decomposition's stage is the molecule of its
    # atom synthesized alone, to 1e-14: the block only regroups products
    # and GEMMs.  decompose refuses a graph above the cap, so the series
    # path calls the stage directly; there the form pre-image scale
    # (I + s Delta)^{M+1/2}, applied to the scan output, is a Chebyshev
    # column of a negative power.
    g, tdec, d0 = _stage_input(name, kind)
    if series:
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)

    def stage(coefficients):
        return synthesize_molecules(g, TentDecomposition(coefficients, 0.0, 0.0),
                                    kind, 1, 1.0, 1.0, d0)

    coefficients, A = stage(tdec.coefficients)
    assert len(coefficients) == len(tdec.coefficients) > 1
    for (lam, atom), (lam_adj, mol), column in zip(tdec.coefficients, coefficients, A.T):
        [(_, one)], _ = stage([(lam, atom)])
        assert _relative_gap(mol.b, one.b) <= 1e-14
        assert _relative_gap(_a_data(mol), _a_data(one)) <= 1e-14
        assert abs(mol.norm_constant - one.norm_constant) <= 1e-14 * one.norm_constant
        assert lam_adj == lam * mol.norm_constant
        assert np.array_equal(_a_data(mol), column)


@pytest.mark.parametrize("kind", ["bz2", "form"])
@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16", "binary_tree_4"])
def test_synthesis_matches_the_levels_first_order(name, kind):
    # the synthesis applies Delta^exp to the levels and (I + P)^eta to
    # the scan output; with the whole prefix on the levels the scan of
    # every atom of a noise input, the deepest included, agrees to 1e-12
    # (measured worst 2.4e-14, forms on lazy_cycle_64)
    g, tdec, d0 = _stage_input(name, kind)
    if kind == "bz2":
        eta, beta = synthesis_eta(1, 1.0, 1.0, d0), 1.0
        exp = eta - beta - 1
    else:
        eta, beta = synthesis_eta_forms(1, 1.0, d0), 0.5
        exp = eta - 2
    atoms = [atom.values for _, atom in tdec.coefficients]
    got = horner_synthesis(g, atoms, eta, beta, exp)
    want = horner_synthesis_levels_first(g, atoms, eta, beta, exp)
    assert max(e.top for e in atoms) > 800
    gaps = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert gaps.max() <= 1e-12


@pytest.mark.parametrize("kind", ["bz2", "form"])
@pytest.mark.parametrize("name", ["lazy_torus_16", "lazy_cycle_64"])
def test_stage_is_the_same_on_both_paths(monkeypatch, name, kind):
    # one tent decomposition synthesized on the oracle path and on the
    # series path gives the same molecules: a comes from products alone,
    # so only the form pre-image scale (a resolvent) and the excess it
    # sets differ, at the series tolerance
    g, tdec, d0 = _stage_input(name, kind)

    def stage():
        return synthesize_molecules(g, tdec, kind, 1, 1.0, 1.0, d0)[0]

    oracle = stage()
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    series = stage()
    assert len(oracle) == len(series) == len(tdec.coefficients) > 1
    for (_, mo), (_, ms) in zip(oracle, series):
        assert _relative_gap(ms.b, mo.b) <= 1e-12
        assert _relative_gap(_a_data(ms), _a_data(mo)) <= 1e-13
        assert abs(ms.norm_constant - mo.norm_constant) <= 1e-13 * mo.norm_constant
        if kind == "bz2":
            assert np.array_equal(ms.a, mo.a)


@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16", "binary_tree_4"])
def test_annulus_tables_match_the_annulus_masks(name):
    # the ring index, annulus count and size bound of every vertex and
    # ball, read from dist and ball_volumes, are those of the masks of
    # annuli_covering_range and the volumes of the scaled balls
    g = by_name(name)
    balls = [ball(g, x, r) for x in range(0, g.n, 7) for r in (1, 2, 2.5, 3, 5)]
    ring, J, bounds = hardy._annulus_bounds(g, balls, 0.75)
    for B, row, count, bound in zip(balls, ring, J, bounds):
        rings = graphs.annuli_covering_range(B)
        assert count == len(rings)
        for c in rings:
            assert np.array_equal(row == c.j - 1, c.mask)
            want = 2.0 ** (-0.75 * c.j) * B.scaled(2 ** c.j).volume ** -0.5
            assert bound[c.j - 1] == pytest.approx(want, rel=1e-15)


def test_decomposition_counts_its_products_and_oracle_applies(monkeypatch):
    # the profile walk makes default_l_max products, the synthesis prefix
    # one per factor of (I + P)^eta and Delta^exp on the block of all
    # atoms, each Horner scan top - 1, a = Delta^M X and the M scale
    # factors of b one each on the (n, atoms) output, and nothing else
    # any; the oracle applies Delta^beta, the tail's Lusin symbol and its
    # synthesis symbol once each, and rederives a once per distinct s
    g = by_name("lazy_cycle_32")
    f = random_mean_zero(g, np.random.default_rng(8))
    d0 = cached_geometry(g).d0_estimate
    M, beta = 1, 1.0
    eta = synthesis_eta(M, beta, 1.0, d0)
    l_max = default_l_max(g)
    F = heat_profile(g, f, beta, reach=pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2)))
    tdec = atomic_decompose(g, F, tol=1e-8)
    tops = [atom.values.top for _, atom in tdec.coefficients]
    applies = []
    apply = calculus.SpectralOracle.apply

    def counted(self, phi, x):
        applies.append(np.shape(x))
        return apply(self, phi, x)

    monkeypatch.setattr(calculus.SpectralOracle, "apply", counted)
    g.matvec_calls = 0
    dec = molecular_decompose(g, f, M, beta, 1.0, tol=1e-8)
    assert len(dec.coefficients) == len(tops) > 1
    exp = eta - beta - M
    assert g.matvec_calls == l_max + (eta + exp + 2 * M) + sum(t - 1 for t in tops)
    assert len(applies) == 3 + len({mol.s for _, mol in dec.coefficients})


@pytest.mark.parametrize("kind", ["bz2", "form"])
@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16"])
def test_stage_peak_stays_near_its_block(name, kind):
    # the stage holds its (n, sum top) block of levels and one product
    # beside it, not a copy per prefix factor, on the deep atoms of a
    # noise input; the pre-image scale runs on the (n, atoms) output.  On
    # lazy_torus_16 the (nnz, atoms) form data is a large part of the
    # block, so validation's temporaries must stay small too
    g, tdec, d0 = _stage_input(name, kind)
    block = g.n * sum(atom.values.top for _, atom in tdec.coefficients) * 8
    synthesize_molecules(g, tdec, kind, 1, 1.0, 1.0, d0)  # fills the caches
    tracemalloc.start()
    try:
        synthesize_molecules(g, tdec, kind, 1, 1.0, 1.0, d0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 2.01 (bz2) and 2.00 (form) blocks on lazy_cycle_64, 2.02
    # and 2.43 on lazy_torus_16
    assert peak < 2.6 * block


def _lusin_without_horizon(g, f, beta, h, order):
    """||L_beta f||_1 with no horizon: the cone sums up to default_l_max,
    where every cone is the whole graph from the next level on, and past
    it the dense reference of the tail's Lusin mass, shared by every x,
    of the profile generated by Delta^beta f = Delta^order h."""
    K = default_l_max(g)
    tail = lusin_tail_mass_exact(g, h, beta, K, order) / g.total_volume()
    return lp_norm(g, np.sqrt(lusin(g, f, beta, K) ** 2 + tail), 1)


@pytest.mark.parametrize("name", ["lazy_cycle_32", "lazy_torus_16"])
def test_molecular_quad_norm_matches_lusin(name):
    # the reported quad_norm comes from the heat profile and its tail; it
    # must equal the direct ||L_beta f||_1 with no horizon
    g = by_name(name)
    f = random_mean_zero(g, np.random.default_rng(11))
    dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
    direct = _lusin_without_horizon(g, f, 1.0, f, 1.0)
    assert abs(dec.quad_norm - direct) <= 1e-12 * direct


@pytest.mark.parametrize("name", ["lazy_cycle_16", "lazy_torus_8", "lazy_cycle_32"])
def test_form_quad_norm_matches_lusin(name):
    # the forms pipeline reports the T^1_2 norm of its profile
    # sqrt(l+1) P^l w, w = d* F, and its tail; it must equal the direct
    # quadratic norm ||L_{1/2} Delta^{-1/2} w||_1 with no horizon
    g = by_name(name)
    F = differential(g, random_mean_zero(g, np.random.default_rng(12)))
    dec = form_molecular_decompose(g, F, 1, 1.0, tol=1e-8)
    w = mean_project(g, divergence(g, F))
    direct = _lusin_without_horizon(g, delta_power_exact(g, w, -0.5), 0.5,
                                    delta_power_exact(g, w, -1.0), 1.0)
    assert abs(dec.quad_norm - direct) <= 1e-13 * direct


def test_molecule_constant_stable_across_centers(cycle32):
    consts = []
    for center in range(0, 32, 4):
        A = _unit_tent_atom(cycle32, center, 4, 20)
        mol = make_molecule_from_tent_atom(A, 1, 1.0, 1.0)
        validate_molecule(mol)
        consts.append(mol.norm_constant)
    assert max(consts) / min(consts) <= 1.2  # vertex-transitive fixture


def test_form_molecule_k2l(k2l, f0):
    A = _unit_tent_atom(k2l, 0, 1, 0)
    mol = make_form_molecule_from_tent_atom(A, 1, 1.0)
    validate_molecule(mol)
    # output is proportional to d f0 on this two-point graph
    df = differential(k2l, f0)
    ratio = mol.a.data[df.data != 0] / df.data[df.data != 0]
    assert np.allclose(ratio, ratio[0])


def test_molecular_decompose_k2l(k2l, f0):
    dec = molecular_decompose(k2l, f0, 1, 1.0, 1.0, tol=1e-10)
    assert len(dec.coefficients) == 1
    assert dec.l2_residual <= 1e-10
    rec = sum(lam * np.asarray(mol.a) for lam, mol in dec.coefficients)
    np.testing.assert_allclose(rec, f0, atol=1e-10)


def test_molecular_decompose_zero(cycle16):
    dec = molecular_decompose(cycle16, np.zeros(cycle16.n), 1, 1.0, 1.0)
    assert dec.coefficients == []


def test_molecular_decompose_cycle32_sweep(cycle32):
    ratios = []
    for seed in range(10):
        f = random_mean_zero(cycle32, np.random.default_rng(seed))
        dec = molecular_decompose(cycle32, f, 1, 1.0, 1.0, tol=1e-8)
        assert dec.l2_residual <= 1e-8
        for lam, mol in dec.coefficients:
            validate_molecule(mol)
        ratios.append(dec.quad_ratio)
    assert max(ratios) / min(ratios) <= 20.0


@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16"])
def test_molecular_decompose_validates_at_M2(name):
    # every molecule of an M = 2 stage passes validation, and the
    # molecules reconstruct f
    g = by_name(name)
    f = random_mean_zero(g, np.random.default_rng(0))
    dec = molecular_decompose(g, f, 2, 1.0, 1.0, tol=1e-8)
    assert len(dec.coefficients) > 1 and dec.l2_residual <= 1e-8
    assert {mol.M for _, mol in dec.coefficients} == {2}


def test_form_decompose_k2l(k2l, f0):
    F = differential(k2l, f0)
    dec = form_molecular_decompose(k2l, F, 1, 1.0, tol=1e-8)
    assert len(dec.coefficients) == 1
    rec = np.zeros(k2l.adjacency.nnz)
    for lam, mol in dec.coefficients:
        rec += lam * mol.a.data
    assert lp_norm_forms(k2l, EdgeFunction(k2l, rec - F.data), 2) <= 1e-8


def test_form_decompose_zero(cycle16):
    F = EdgeFunction(cycle16, np.zeros(cycle16.adjacency.nnz))
    dec = form_molecular_decompose(cycle16, F, 1, 1.0)
    assert dec.coefficients == []


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_zero_input_skips_the_geometry(monkeypatch, cycle16, kind):
    # both pipelines return the empty decomposition of a zero input
    # before the geometry is built
    def refuse(_):
        raise AssertionError("geometry built for a zero input")

    monkeypatch.setattr(hardy, "cached_geometry", refuse)
    if kind == "bz2":
        dec = molecular_decompose(cycle16, np.zeros(cycle16.n), 1, 1.0, 1.0)
    else:
        F = EdgeFunction(cycle16, np.zeros(cycle16.adjacency.nnz))
        dec = form_molecular_decompose(cycle16, F, 1, 1.0)
    assert dec.coefficients == [] and dec.l2_residual == 0.0


@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_pipeline_is_the_stage_chain(kind, M):
    # the public pipeline of either kind is its explicit chain profile ->
    # tent atoms -> molecule stage -> residuals, bit for bit
    g = by_name("lazy_torus_16")
    f = require_mean_zero(g, random_mean_zero(g, np.random.default_rng(4)))
    d0 = cached_geometry(g).d0_estimate
    if kind == "bz2":
        dec = molecular_decompose(g, f, M, 1.0, 1.0, tol=1e-8)
        eta = synthesis_eta(M, 1.0, 1.0, d0)
        F = heat_profile(g, f, 1.0, reach=pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2)))
        target, norm = f, lp_norm
    else:
        dF = differential(g, f)
        dec = form_molecular_decompose(g, dF, M, 1.0, tol=1e-8)
        eta = synthesis_eta_forms(M, 1.0, d0)
        F = form_profile(g, divergence(g, dF), reach=pipeline_l_max(
            g, eta, 1e-8 / math.sqrt(2.0), lp_norm_forms(g, dF, 2)))
        target = dF.data

        def norm(g, x, p):
            return lp_norm_forms(g, EdgeFunction(g, x), p)
    tdec = atomic_decompose(g, F, tol=1e-8)
    coefficients, A = synthesize_molecules(g, tdec, kind, M, 1.0, 1.0, d0)
    resid = target - A @ np.array([lam for lam, _ in coefficients])
    assert len(dec.coefficients) == len(coefficients) > 1
    for (lam, mol), (lam_want, want) in zip(dec.coefficients, coefficients):
        assert lam == lam_want and mol.norm_constant == want.norm_constant
        assert np.array_equal(mol.b, want.b) and np.array_equal(_a_data(mol), _a_data(want))
    assert dec.sum_abs_lambda == sum(abs(lam) for lam, _ in coefficients)
    assert dec.l2_residual == norm(g, resid, 2)
    assert dec.l1_residual == norm(g, resid, 1)
    assert dec.quad_norm == tdec.t1_norm


def test_form_decompose_cycle32(cycle32):
    for seed in range(3):
        h = random_mean_zero(cycle32, np.random.default_rng(seed))
        F = differential(cycle32, h)
        dec = form_molecular_decompose(cycle32, F, 1, 1.0, tol=1e-8)
        assert dec.l2_residual <= 1e-8
        for lam, mol in dec.coefficients:
            assert mol.kind == "form"
            validate_molecule(mol)


def test_form_decompose_rejects_circulation(cycle16):
    data = np.zeros(cycle16.adjacency.nnz)
    rows, cols = cycle16.edge_rows, cycle16.edge_cols
    fwd = (cols - rows) % cycle16.n == 1
    bwd = (rows - cols) % cycle16.n == 1
    data[fwd] = 1.0
    data[bwd] = -1.0
    F = EdgeFunction(cycle16, data)
    assert F.antisymmetry_defect() < 1e-15
    with pytest.raises(NotExactForm):
        form_molecular_decompose(cycle16, F, 1, 1.0)


def test_bmo_k2l(k2l, f0):
    rep = bmo_norm(k2l, f0, "bz1", 1, 2)
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_bmo_constants_vanish(cycle16):
    c = np.full(cycle16.n, 5.0)
    for kind in ("bz1", "bz2"):
        assert bmo_norm(cycle16, c, kind, 1, 4).value <= 1e-12


def test_bmo_shift_scale_invariance(cycle32, rng):
    f = random_mean_zero(cycle32, rng)
    base = bmo_norm(cycle32, f, "bz1", 1, 8).value
    shifted = bmo_norm(cycle32, f + 3.0, "bz1", 1, 8).value
    scaled = bmo_norm(cycle32, 2.5 * f, "bz1", 1, 8).value
    assert shifted == pytest.approx(base, abs=1e-12)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_bmo_equivalence_band(cycle32):
    for M in (1, 2):
        for seed in range(3):
            f = random_mean_zero(cycle32, np.random.default_rng(seed))
            v1 = bmo_norm(cycle32, f, "bz1", M, 16).value
            v2 = bmo_norm(cycle32, f, "bz2", M, 16).value
            assert v1 / v2 <= 10.0 and v2 / v1 <= 10.0


def _dense_balls(g, r_max):
    for r in range(1, r_max + 1):
        yield ball_matrix_dense(g, r)


@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("kind", ["bz1", "bz2"])
@pytest.mark.parametrize("name, s_max", [("torus12", 16), ("cycle16", 90)])
def test_bmo_norm_payload_matches_dense_balls(request, monkeypatch, name, s_max,
                                              kind, M):
    # balls grown hop by hop give the payload of balls scanned out of
    # dist, byte for byte; on the cycle the radii run past saturation
    g = request.getfixturevalue(name)
    f = random_mean_zero(g, np.random.default_rng(11))
    got = bmo_norm(g, f, kind, M, s_max, seed=4).to_json()
    monkeypatch.setattr(hardy, "ball_matrices", _dense_balls)
    assert got == bmo_norm(g, f, kind, M, s_max, seed=4).to_json()


@pytest.mark.parametrize("M, eps", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -1.0), (1, math.inf),
                                    (1, math.nan)])
def test_pipelines_check_M_and_eps_first(cycle16, monkeypatch, M, eps):
    # M < 1, or an eps that is not finite and > 0, fails on entry, before
    # any of the pipeline runs
    def ran(*_args, **_kwargs):
        raise AssertionError("the pipeline ran")

    for name in ("require_mean_zero", "is_exact_form", "_decompose"):
        monkeypatch.setattr(hardy, name, ran)
    f = random_mean_zero(cycle16, np.random.default_rng(13))
    with pytest.raises(ValueError, match="M must|eps must"):
        molecular_decompose(cycle16, f, M, 1.0, eps)
    with pytest.raises(ValueError, match="M must|eps must"):
        form_molecular_decompose(cycle16, differential(cycle16, f), M, eps)


@pytest.mark.parametrize("kind", ["bz1", "bz2"])
def test_bmo_norm_needs_M_at_least_one(cycle16, kind):
    f = random_mean_zero(cycle16, np.random.default_rng(14))
    for M in (0, -1):
        with pytest.raises(ValueError, match="M must"):
            bmo_norm(cycle16, f, kind, M, 4)


def test_bmo_norm_reads_no_metric():
    g = lazy_torus_2d(12)
    f = random_mean_zero(g, np.random.default_rng(12))
    for kind in ("bz1", "bz2"):
        bmo_norm(g, f, kind, 1, 16)
    assert g._dist is None


def test_bmo_norm_allocates_less_than_the_metric():
    # the ball matrices never come from an n x n scan of dist
    g = lazy_torus_2d(40)
    f = random_mean_zero(g, np.random.default_rng(13))
    g.dist
    bmo_norm(g, f, "bz2", 1, 16)  # fills the oracle and Markov caches
    tracemalloc.start()
    try:
        bmo_norm(g, f, "bz2", 1, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n


def test_bmo_norm_holds_one_ball_matrix(monkeypatch, cycle32):
    # radii 1..18 (past saturation at 17): when a radius is grown, every
    # matrix but the one the caller still holds has been released
    yielded = []

    def tracked(g, r_max):
        for B in graphs.ball_matrices(g, r_max):
            held = {id(ref()) for ref in yielded if ref() is not None}
            assert len(held) <= 1
            yielded.append(weakref.ref(B))
            yield B

    monkeypatch.setattr(hardy, "ball_matrices", tracked)
    f = random_mean_zero(cycle32, np.random.default_rng(14))
    bmo_norm(cycle32, f, "bz2", 1, 300)
    assert len(yielded) == 18


def test_bmo_sampled_policy(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    rep = bmo_norm(cycle16, f, "bz1", 2, 70)
    assert "sampled" in rep.enumeration_policy


def test_m0_delta_type(cycle32):
    x0 = 5
    phit = np.zeros(cycle32.n)
    phit[x0] = 1.0 / cycle32.m[x0]
    phi = delta_power_exact(cycle32, phit, 1.0)
    got = m0_norm(cycle32, phi, 1, 1.0, x0, phi_tilde=phit)
    vol2 = sum(cycle32.m[y] for y in range(cycle32.n) if cycle32.dist[x0, y] < 2)
    hand = 2.0 * math.sqrt(vol2) / math.sqrt(cycle32.m[x0])
    assert got == pytest.approx(hand, rel=1e-12)


def test_m0_zero_and_scaling(cycle32, rng):
    assert m0_norm(cycle32, np.zeros(cycle32.n), 1, 1.0, 0) == 0.0
    f = random_mean_zero(cycle32, rng)
    assert m0_norm(cycle32, 2.5 * f, 1, 1.0, 0) == pytest.approx(
        2.5 * m0_norm(cycle32, f, 1, 1.0, 0), rel=1e-12
    )


def test_duality_constant_vanishes(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    dec = molecular_decompose(cycle16, f, 1, 1.0, 1.0)
    c = np.full(cycle16.n, 3.0)
    assert abs(duality_pairing(cycle16, c, dec)) < 1e-9


def test_duality_k2l(k2l, f0):
    dec = molecular_decompose(k2l, f0, 1, 1.0, 1.0, tol=1e-10)
    assert duality_pairing(k2l, f0, dec) == pytest.approx(4.0, abs=1e-9)


def test_duality_inequality_sweep(cycle32):
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        h = random_mean_zero(cycle32, rng)
        dec = molecular_decompose(cycle32, h, 1, 1.0, 1.0, tol=1e-8)
        f = random_mean_zero(cycle32, rng)
        pair = abs(duality_pairing(cycle32, f, dec))
        bound = bmo_norm(cycle32, f, "bz2", 1, 16).value * dec.sum_abs_lambda
        worst = max(worst, pair / bound)
    assert worst <= 2.0


def test_uniform_l1_bound_not_drifting(cycle32):
    per_s = {}
    for s in (1, 4, 16, 64):
        suite = molecule_suite(cycle32, (s,), kind="bz2", M=1)
        per_s[s] = max(lp_norm(cycle32, a, 1) for _, a in suite)
    vals = list(per_s.values())
    assert max(vals) <= 4.0
    assert max(vals) / min(vals) <= 10.0


def test_bz1_product_equals_q_factored_bz2(cycle16, rng):
    # (I-P^{s1})...(I-P^{sM}) = prod[(s_i/s) Q_{s_i} + (I-P^{s_i})] (I-(I+sD)^{-1})^M
    f = rng.standard_normal(cycle16.n)
    s, times = 3, (3, 5)
    lhs = a_s(cycle16, f, BZ1Kind(s, times))
    rhs = a_s(cycle16, f, BZ2Kind(s, len(times)))
    for si in times:
        rhs = (si / s) * a_s(cycle16, rhs, QsKind(si)) + (
            rhs - apply_P(cycle16, rhs, si)
        )
    assert lp_norm(cycle16, lhs - rhs, 2) <= 1e-9


def test_variant_resolvent_product_molecule(cycle16):
    # alternative normalization: product of single resolvent differences
    s, times = 4, (4, 7)
    B = ball(cycle16, 2, 2)
    b = B.mask.astype(float) / B.volume
    a = b.copy()
    for t in times:
        a = a - resolvent_exact(cycle16, a, t, 1.0)
    mol = Molecule("bz2_tuple", len(times), math.inf, s, B, b, a, times=times)
    validate_molecule(mol)


def test_bmo_tuple_policy_override(cycle16, rng, monkeypatch):
    # the cap on s^M chooses the bz1 enumeration: at 0 every s is
    # sampled, at s_max^M = 8^2 every s is enumerated
    f = random_mean_zero(cycle16, rng)
    monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", 0)
    rep = bmo_norm(cycle16, f, "bz1", 2, 8)
    assert rep.enumeration_policy == "sampled"
    monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", 8 ** 2)
    exact = bmo_norm(cycle16, f, "bz1", 2, 8)
    assert exact.enumeration_policy == "exhaustive"
    assert rep.value <= exact.value + 1e-12


def test_atom_tuple_below_s_flagged_not_rejected(cycle16):
    # an atom associated with s = 4 may use iterate times down to 1
    B = ball(cycle16, 0, 2)
    b = B.mask.astype(float) / B.volume
    times = (2, 6)
    a = b.copy()
    for t in times:
        a = a - apply_P(cycle16, a, t)
    mol = Molecule("bz1", 2, math.inf, 4, B, b, a, times=times)
    rep = validate_molecule(mol)
    assert rep.atom_tuple_warning


def test_periodic_walk_is_refused_at_once():
    # the loop-free 4-cycle is bipartite: -1 is an eigenvalue of P, so
    # lambda_star = 1 and no reproducing horizon exists
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    f = np.array([1.0, 0.0, -1.0, 0.0])
    t0 = time.perf_counter()
    with pytest.raises(PeriodicWalk):
        molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
    assert time.perf_counter() - t0 < 0.5


def _decompose_kind(pipeline, g, x):
    if pipeline == "form":
        return form_molecular_decompose(g, differential(g, x), 1, 1.0)
    return molecular_decompose(g, x, 1, 1.0, 1.0)


def _no_geometry(_):
    raise AssertionError("geometry built before the refusal")


@pytest.mark.parametrize("graph,error", [
    (lambda: build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]),
     PeriodicWalk),
])
@pytest.mark.parametrize("pipeline", ["function", "form"])
def test_decompose_refuses_before_the_geometry(graph, error, pipeline, monkeypatch):
    # the lambda_star check comes first, so a graph without a reproducing
    # horizon never builds its geometry, even for a zero input
    g = graph()
    monkeypatch.setattr(hardy, "cached_geometry", _no_geometry)
    f = random_mean_zero(g, np.random.default_rng(1))
    for x in (f, np.zeros(g.n)):
        with pytest.raises(error):
            _decompose_kind(pipeline, g, x)


@pytest.mark.parametrize("pipeline", ["function", "form"])
def test_decompose_above_the_cap_certifies_before_the_geometry(pipeline, monkeypatch):
    # above the oracle cap lambda_star is certified first, and a zero
    # input then returns before the geometry is built
    g = lazy_torus_2d(50)
    monkeypatch.setattr(hardy, "cached_geometry", _no_geometry)
    assert _decompose_kind(pipeline, g, np.zeros(g.n)).coefficients == []
    assert calculus.spectrum(g).source == "certified"


def test_above_the_oracle_cap_runs_on_the_certified_spectrum(monkeypatch):
    # above the cap riesz, both molecular pipelines and the Lusin tail
    # bound run on the certified lambda_star, and the pipelines agree
    # with the oracle path
    g = lazy_cycle(16)
    f = random_mean_zero(g, np.random.default_rng(0))
    F = differential(g, f)
    calls = (
        lambda: riesz_transform(g, f),
        lambda: molecular_decompose(g, f, 1, 1.0, 1.0),
        lambda: form_molecular_decompose(g, F, 1, 1.0),
    )
    below = [call() for call in calls]
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    above = [call() for call in calls]
    assert calculus.spectrum(g).source == "certified"
    np.testing.assert_allclose(above[0].output.data, below[0].output.data, rtol=0,
                               atol=1e-9 * lp_norm(g, f, 2))
    for a, b in zip(above[1:], below[1:]):
        assert a.l2_residual <= 1e-8
        assert a.sum_abs_lambda == pytest.approx(b.sum_abs_lambda, rel=1e-6)
        assert len(a.coefficients) == len(b.coefficients)
    gap = np.max(np.abs(lusin(g, f, 1.0, 2000) - lusin(g, f, 1.0, 100)))
    assert gap <= lusin_tail_bound(g, f, 1.0, 100)
