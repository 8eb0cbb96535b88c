import dataclasses
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (annuli_by_masks, antisymmetry_defect, ball_matrix_dense, bz1, cesaro_mean,
                     delta_power_exact, form_profile, horner_synthesis_levels_first,
                     is_tent_atom, lusin_tail_mass_exact, m0_norm,
                     make_form_molecule_from_tent_atom, t22_norm, tent_atom, tent_mask,
                     top_level, truncated_profile)

from graphhardy import calculus, graphs, hardy
from graphhardy.calculus import bz2_apply, require_mean_zero
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
    make_molecule_from_tent_atom,
    molecular_decompose,
    heat_profile,
    pipeline_l_max,
    synthesis_eta,
    synthesis_orders,
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
from graphhardy.quadratic import SpaceTimeFunction, default_l_max, lusin
from graphhardy.riesz import molecule_suite, riesz as riesz_transform
from graphhardy.tentspace import (TentDecomposition, atomic_decompose, eta_coefficients,
                                  horner_synthesis)
from graphhardy.zoo import by_name, lazy_cycle, lazy_torus_2d


def _normalized(mol):
    # mol with b and a divided by the annulus excess of b at its eps, as
    # `synthesize_molecules` normalizes its molecules
    measured, bounds = hardy._size_table(mol.graph, mol.eps, [mol.ball], mol.b[:, None])
    excess = max(1.0, float((measured / bounds).max()) * (1.0 + 1e-12))
    return dataclasses.replace(mol, b=mol.b / excess, a=mol.a / excess, norm_constant=excess)


def _delta_atom(g, y, M):
    # the bz2 molecule of delta_y / m(y) at s = 1 on B(y, 1) = {y}, at
    # eps = 1: ||b||_1 = 1 before its normalization, so ||a||_1 <= 2^M
    # since the resolvent is an L^1 contraction
    b = np.zeros(g.n)
    b[y] = 1.0 / g.m[y]
    return _normalized(Molecule("bz2", M, 1.0, 1, ball(g, y, 1), b, bz2_apply(g, b, 1, M)))


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
        a = bz2_apply(g, b, s, 1)
        mol = _normalized(Molecule("bz2", 1, 1.0, s, B, b, a))
        rep = validate_molecule(mol)
        assert rep.l1_norm <= 4.0


def test_validator_rejects_oversized_pre_image(cycle16):
    B = ball(cycle16, 0, 1)
    b = np.zeros(cycle16.n)
    b[0] = 10.0  # far above 2^{-1} V(2B)^{-1/2}, the bound on C_1(B) = 4B
    mol = Molecule("bz2", 1, 1.0, 1, B, b, bz2_apply(cycle16, b, 1, 1))
    with pytest.raises(SizeBoundViolated) as err:
        validate_molecule(mol)
    assert err.value.j == 1


def test_validator_refuses_other_kinds(cycle16):
    # the pipeline makes bz2 and form molecules only; bz1 is a generator
    # of the BMO sup and the Riesz suite, not a molecule kind
    B = ball(cycle16, 0, 1)
    b = B.mask / B.volume
    mol = _normalized(Molecule("bz1", 1, 1.0, 1, B, b, bz1(cycle16, b, (1,))))
    with pytest.raises(ValueError, match="'bz1'"):
        validate_molecule(mol)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0])
def test_validator_refuses_eps_outside_the_annuli(cycle16, eps):
    # the annuli are the one size rule, at a finite eps > 0: an atom's
    # eps = inf is refused as another kind is
    mol = dataclasses.replace(_delta_atom(cycle16, 3, 1), eps=eps)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        validate_molecule(mol)


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
    mask = tent_mask(g, B.mask, l_max)
    vals = np.zeros((g.n, l_max + 1))
    vals[mask] = 1.0
    stf = SpaceTimeFunction(g, vals)
    lam = t22_norm(stf) * math.sqrt(B.volume)
    return tent_atom(B, SpaceTimeFunction(g, vals / lam))


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

    def counted(g, kind, M, s, b):
        calls.append(b.shape[1])
        return rederive(g, kind, M, s, b)

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


def test_tent_atom_holds_an_integral_radius(cycle32):
    # hop counts are integers, so B(0, 2.4) is the vertex set of B(0, 3)
    A = _unit_tent_atom(cycle32, 0, 2.4, 12)
    B = ball(cycle32, 0, 3)
    assert A.ball.radius == 3
    assert np.array_equal(A.ball.mask, B.mask) and A.ball.volume == B.volume


def test_molecule_keeps_its_atom_ball(cycle32):
    # the molecule stands on the atom's own ball, with s = r^2 = 9, not
    # on a ball rebuilt from a rounded radius
    A = _unit_tent_atom(cycle32, 0, 2.4, 12)
    mol = make_molecule_from_tent_atom(A, 1, 1.0, 1.0)
    assert mol.ball is A.ball and mol.s == 9
    assert np.array_equal(mol.ball.mask, ball(cycle32, 0, 3).mask)
    assert validate_molecule(mol).factorization_error <= 1e-12


def test_zero_atom_zero_molecule(cycle16):
    B = ball(cycle16, 0, 2)
    A = tent_atom(B, SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 5))))
    mol = make_molecule_from_tent_atom(A, 1, 1.0, 1.0)
    assert lp_norm(cycle16, np.asarray(mol.a), 2) == 0.0


def test_zero_atom_zero_form_molecule(cycle16):
    B = ball(cycle16, 0, 2)
    A = tent_atom(B, SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 5))))
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
    live = tent_mask(cycle32, B.mask, 8)
    rng = np.random.default_rng(7)
    base = np.where(live, rng.standard_normal(live.shape), 0.0)
    base /= t22_norm(SpaceTimeFunction(cycle32, base)) * math.sqrt(B.volume)
    k = top_level(base) - 1
    assert k == 8
    mols = []
    for l_max in (k + 5, k + 500):
        vals = np.zeros((cycle32.n, l_max + 1))
        vals[:, :k + 1] = base
        A = tent_atom(B, SpaceTimeFunction(cycle32, vals))
        assert is_tent_atom(A)
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
        F = truncated_profile(g, f, 1.0, pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2)))
    else:
        dF = differential(g, f)
        eta, _, _ = synthesis_orders("form", 1, 0.5, 1.0, d0)
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
        return synthesize_molecules(g, TentDecomposition(coefficients),
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
        eta, beta, _ = synthesis_orders("form", 1, 0.5, 1.0, d0)
        exp = eta - 2
    atoms = [atom.values for _, atom in tdec.coefficients]
    got = horner_synthesis(g, atoms, eta, beta, exp)
    want = horner_synthesis_levels_first(g, atoms, eta, beta, exp)
    assert max(e.top for e in atoms) > 800
    gaps = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert gaps.max() <= 1e-12


@pytest.mark.parametrize("name", ["lazy_cycle_64", "lazy_torus_16", "binary_tree_4"])
def test_a_fractional_exp_runs_once_on_the_output(monkeypatch, name):
    # bz2 at beta 1/2 has exp = eta - 1/2 - M: its floor(exp) exact steps
    # run on the levels and Delta^{1/2} once on the (n, atoms) output.  On
    # the series path (ORACLE_MAX_N = 0) that synthesis agrees within tol
    # with the whole prefix on the levels through the oracle, and the
    # decomposition meets tol
    g = by_name(name)
    f = random_mean_zero(g, np.random.default_rng(3))
    eta = synthesis_eta(1, 0.5, 1.0, cached_geometry(g).d0_estimate)
    exp = eta - 0.5 - 1
    F = truncated_profile(g, f, 0.5, default_l_max(g))
    atoms = [atom.values for _, atom in atomic_decompose(g, F, tol=1e-8).coefficients]
    want = horner_synthesis_levels_first(g, atoms, eta, 0.5, exp)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got = horner_synthesis(g, atoms, eta, 0.5, exp)
    assert len(atoms) > 1
    assert lp_norm(g, got - want, 2).max() <= 1e-8
    dec = molecular_decompose(g, f, 1, 0.5, 1.0, tol=1e-8)
    assert calculus.spectrum(g).source == "certified"
    assert dec.l2_residual <= 1e-8


def test_a_form_decompose_solves_for_its_potential_once(monkeypatch):
    # the exactness check's Delta^{-1} d* F is the potential the profile's
    # tail holds: one apply of Delta^{-1} per decompose
    g = by_name("lazy_cycle_64")
    F = differential(g, random_mean_zero(g, np.random.default_rng(0)))
    powers = []
    symbol = calculus.DeltaPower.__call__
    monkeypatch.setattr(calculus.DeltaPower, "__call__",
                        lambda op, lam, s: powers.append(op.beta) or symbol(op, lam, s))
    dec = form_molecular_decompose(g, F, 1, 1.0, tol=1e-8)
    assert dec.l2_residual <= 1e-8
    assert powers.count(-1.0) == 1


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
    # the ring index, annulus count and volumes of every vertex and ball,
    # read from dist and ball_volumes by `annulus_rings`, are those of the
    # masks of the scaled balls and their mask sums, for j = 1..J + 1 (the
    # annulus past J is empty); the size table's bounds
    # 2^{-j eps} V(2^j B)^{-1/2} are read from them
    g = by_name(name)
    balls = [ball(g, x, r) for x in range(0, g.n, 7) for r in (1, 2, 2.5, 3, 5)]
    ring, J, volumes = graphs.annulus_rings(g, balls)
    _, bounds = hardy._size_table(g, 0.75, balls, np.zeros((g.n, len(balls))))
    for B, row, count, vols, bound in zip(balls, ring, J, volumes, bounds):
        want_J, masks, want_volumes = annuli_by_masks(B)
        assert count == want_J
        for j, mask in enumerate(masks, start=1):
            assert np.array_equal(row == j - 1, mask)
        assert not mask.any()
        assert np.array_equal(vols[:count], want_volumes[:count])
        j = np.arange(1, count + 1)
        np.testing.assert_allclose(bound[:count], 2.0 ** (-0.75 * j) * vols[:count] ** -0.5,
                                   rtol=1e-15, atol=0)


def test_decomposition_counts_its_products_and_oracle_applies(monkeypatch):
    # the profile walk makes default_l_max products, the synthesis prefix
    # one per factor of (I + P)^eta and Delta^exp on the block of all
    # atoms, each Horner scan top - 1, a = Delta^M X and the M scale
    # factors of b one each on the (n, atoms) output, and nothing else
    # any; the oracle applies Delta^beta, the tail's Lusin symbol and its
    # two shares (of a and of the pre-image b) once each, and rederives a
    # once per distinct s
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
    assert len(applies) == 4 + len({mol.s for _, mol in dec.coefficients})


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


@pytest.mark.parametrize("kind", ["bz2", "form"])
def test_molecules_are_columns_of_the_stage_blocks(monkeypatch, kind):
    # each molecule's a and b are columns of the stage's (n, atoms)
    # blocks, views of them: the stage keeps no second copy of either
    g, tdec, d0 = _stage_input("lazy_cycle_64", kind)
    original, blocks = hardy._pre_images, []

    def pre_images(*args):
        blocks.append(original(*args))
        return blocks[-1]

    monkeypatch.setattr(hardy, "_pre_images", pre_images)
    coefficients, A = synthesize_molecules(g, tdec, kind, 1, 1.0, 1.0, d0)
    [B] = blocks
    assert len(coefficients) == A.shape[1] == B.shape[1] > 1
    for i, (_, mol) in enumerate(coefficients):
        a = _a_data(mol)
        assert np.shares_memory(a, A) and np.array_equal(a, A[:, i])
        assert np.shares_memory(mol.b, B) and np.array_equal(mol.b, B[:, i])


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
        ratios.append(dec.sum_abs_lambda / dec.quad_norm)
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
        eta, _, _ = synthesis_orders("form", M, 0.5, 1.0, d0)
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
    assert antisymmetry_defect(F) < 1e-15
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


@pytest.fixture
def pipeline_refused(monkeypatch):
    """Every step of both pipelines raises, so a check that passes lets
    the test fail."""
    def ran(*_args, **_kwargs):
        raise AssertionError("the pipeline ran")

    for name in ("require_mean_zero", "divergence", "_decompose"):
        monkeypatch.setattr(hardy, name, ran)


@pytest.mark.parametrize("M, eps", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -1.0), (1, math.inf),
                                    (1, math.nan)])
def test_pipelines_check_M_and_eps_first(cycle16, pipeline_refused, M, eps):
    # M < 1, or an eps that is not finite and > 0, fails on entry, before
    # any of the pipeline runs
    f = random_mean_zero(cycle16, np.random.default_rng(13))
    with pytest.raises(ValueError, match="M must|eps must"):
        molecular_decompose(cycle16, f, M, 1.0, eps)
    with pytest.raises(ValueError, match="M must|eps must"):
        form_molecular_decompose(cycle16, differential(cycle16, f), M, eps)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_decompose_checks_beta_first(cycle16, pipeline_refused, beta):
    # a beta that is not finite fails on entry by name, not as an
    # OverflowError of the synthesis orders or as a NaN cast to an integer
    f = random_mean_zero(cycle16, np.random.default_rng(13))
    with pytest.raises(ValueError, match="beta must be finite"):
        molecular_decompose(cycle16, f, 1, beta, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_pipelines_check_tol_first(cycle16, pipeline_refused, tol):
    # a tol that is not finite and > 0 fails on entry too, not as an
    # OverflowError of the horizon search or after the whole pipeline ran
    f = random_mean_zero(cycle16, np.random.default_rng(13))
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        molecular_decompose(cycle16, f, 1, 1.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        form_molecular_decompose(cycle16, differential(cycle16, f), 1, 1.0, tol=tol)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_decompose_refuses_a_non_finite_target(cycle16, monkeypatch, value):
    # a NaN or an infinity in the input is refused before the geometry
    # and the horizon search, which would overflow on it
    monkeypatch.setattr(hardy, "cached_geometry", _no_geometry)
    f = random_mean_zero(cycle16, np.random.default_rng(13))
    f[3] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="target must be finite"):
        molecular_decompose(cycle16, f, 1, 1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_form_decompose_refuses_a_non_finite_form(cycle16, monkeypatch, value):
    # a NaN or an infinity on an edge is refused as such, before the
    # exactness test, which would call the form no differential
    monkeypatch.setattr(hardy, "cached_geometry", _no_geometry)
    F = differential(cycle16, random_mean_zero(cycle16, np.random.default_rng(13)))
    F.data[5] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="form must be finite"):
        form_molecular_decompose(cycle16, F, 1, 1.0)


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


@pytest.mark.parametrize("M, columns", [(1, 46), (2, 642)])
def test_bmo_norm_evaluates_each_tuple_once_per_ball(monkeypatch, cycle16, M, columns):
    # the scales of one radius share their ball, so a tuple of several of
    # their boxes is one local-mass column: at M = 1 the boxes [s, 2s] of
    # radius r cover [(r - 1)^2 + 1, 2 r^2], 2 + 7 + 14 + 23 tuples up to
    # s = 16, where a walk over s takes sum (s + 1)^M (152 and 1,784)
    bz1_block = hardy.bz1_block
    received = []

    def counted(PK, tuples):
        received.append(len(tuples))
        return bz1_block(PK, tuples)

    monkeypatch.setattr(hardy, "bz1_block", counted)
    f = random_mean_zero(cycle16, np.random.default_rng(15))
    assert bmo_norm(cycle16, f, "bz1", M, 16).enumeration_policy == "exhaustive s<=16"
    assert sum(received) == columns


def test_bmo_norm_reports_a_shared_tuple_at_its_first_scale(monkeypatch, cycle16):
    # a unit spike at vertex 0 for t = 11 and 12 alone: both lie in the
    # boxes [s, 2s] of s = 6..9 in radius 3 (and of s = 10, 11 in radius
    # 4), the smaller ball gives them the larger normalized mass, 1/5,
    # and of the tie, in blocks of one column, the first candidate wins
    def spike(PK, tuples):
        out = np.zeros((PK.shape[0], len(tuples)))
        out[0, [t in ((11,), (12,)) for t in tuples]] = 1.0
        return out

    monkeypatch.setattr(hardy, "bz1_block", spike)
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", cycle16.n)
    rep = bmo_norm(cycle16, np.zeros(cycle16.n), "bz1", 1, 16)
    assert rep.argmax == {"s": 6, "times": [11], "center": 0, "radius": 3}
    assert rep.value == pytest.approx(math.sqrt(1 / 5), rel=1e-15)


def test_bmo_sampled_policy(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    rep = bmo_norm(cycle16, f, "bz1", 2, 70)
    assert rep.enumeration_policy == "exhaustive s<=64+sampled 65<=s<=70 (lower bound)"


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
    lhs = bz1(cycle16, f, times)
    rhs = bz2_apply(cycle16, f, s, len(times))
    for si in times:
        rhs = (si / s) * cesaro_mean(cycle16, rhs, si) + (
            rhs - apply_P(cycle16, rhs, si)
        )
    assert lp_norm(cycle16, lhs - rhs, 2) <= 1e-9


def test_bmo_tuple_policy_override(cycle16, rng, monkeypatch):
    # the cap on s^M chooses the bz1 enumeration: at 0 every s is
    # sampled, at s_max^M = 8^2 every s is enumerated
    f = random_mean_zero(cycle16, rng)
    monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", 0)
    rep = bmo_norm(cycle16, f, "bz1", 2, 8)
    assert rep.enumeration_policy == "sampled s<=8 (lower bound)"
    monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", 8 ** 2)
    exact = bmo_norm(cycle16, f, "bz1", 2, 8)
    assert exact.enumeration_policy == "exhaustive s<=8"
    assert rep.value <= exact.value + 1e-12


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
    # above the cap riesz and both molecular pipelines run on the
    # certified lambda_star, and the pipelines agree with the oracle path
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
