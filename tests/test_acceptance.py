"""Acceptance suite: one test per criterion, each printing a
[PASS]/[FAIL] line with the criterion number and its tolerance."""

import math
import time

import numpy as np
import pytest

from oracles import (
    annulus,
    annulus_cover,
    cover_overlap_bound,
    delta_power_exact,
    exp_decay_bound,
    exp_decay_constants,
    h2_project,
    is_tent_atom,
    kernels,
    laplacian,
    naive_g_littlewood,
    naive_lusin,
    naive_lusin_tilde,
    naive_tent_functional,
    reproducing_check,
    resolvent_exact,
    rev_edges,
    sum_abs_lambda,
    t22_norm,
    tent_residual,
    truncated_profile,
    vitali_cover,
)

from graphhardy.calculus import (
    DeltaPower,
    Resolvent,
    gaffney_fit,
    series,
    spectral,
)
from graphhardy.graphs import ball, geometry_report
from graphhardy.hardy import (
    bmo_norm,
    duality_pairing,
    molecular_decompose,
    validate_molecule,
)
from graphhardy.operators import (
    EdgeFunction,
    differential,
    divergence,
    gradient,
    inner,
    lp_norm,
    lp_norm_forms,
    mean_project,
    random_mean_zero,
    tx_norms,
)
from graphhardy.quadratic import (
    SpaceTimeFunction,
    g_littlewood,
    lusin,
    lusin_tilde,
    tent_functional,
)
from graphhardy.riesz import molecule_suite, riesz, riesz_h1_experiment
from graphhardy.tentspace import atomic_decompose
from graphhardy.zoo import (
    binary_tree,
    k2l,
    lazy_cycle,
    lazy_path,
    lazy_torus_2d,
    random_weights,
)


def _criterion(number, label, fn):
    try:
        fn()
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_c01_kernel_laws():
    def run():
        t0 = time.time()
        for g in (k2l(), lazy_cycle(16), lazy_torus_2d(16)):
            p = kernels(g, 32)
            for K in p:
                assert np.abs(K - K.T).max() <= 1e-12
                assert K.min() >= -1e-12
                assert np.abs(K @ g.m - 1.0).max() <= 1e-12
            for k in range(1, 32):
                # (p_k * p_{32-k})(x, y) = sum_z p_k(x, z) p_{32-k}(z, y) m(z)
                comp = p[k] @ (g.m[:, None] * p[32 - k])
                assert np.abs(comp - p[32]).max() <= 1e-12
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"

    _criterion(1, "kernel laws at 1e-12, < 5 s", run)


def test_c02_operator_identities():
    def run():
        for g in (k2l(), lazy_cycle(16), lazy_torus_2d(16)):
            basis = np.eye(g.n)
            for i in range(g.n):
                e = basis[i]
                assert np.abs(divergence(g, differential(g, e))
                              - laplacian(g, e)).max() <= 1e-10
                ngrad = gradient(g, e)
                assert np.abs(tx_norms(g, differential(g, e)) - ngrad).max() <= 1e-10
                assert abs(lp_norm(g, ngrad, 2) ** 2
                           - inner(g, laplacian(g, e), e)) <= 1e-10
            rows, cols, rev = g.edge_rows, g.edge_cols, rev_edges(g)
            seen = set()
            for eidx in range(g.adjacency.nnz):
                x, y = int(rows[eidx]), int(cols[eidx])
                if x >= y or (x, y) in seen:
                    continue
                seen.add((x, y))
                data = np.zeros(g.adjacency.nnz)
                data[eidx], data[rev[eidx]] = 1.0, -1.0
                F = EdgeFunction(g, data)
                P1 = h2_project(g, F)
                P2 = h2_project(g, P1)
                assert lp_norm_forms(g, P2 - P1, 2) <= 1e-10

    _criterion(2, "operator identities at 1e-10 on basis vectors", run)


def test_c03_spectral_vs_series():
    def run():
        for g in (lazy_cycle(16), lazy_torus_2d(16)):
            rng = np.random.default_rng(42)
            F = mean_project(g, rng.standard_normal((g.n, 100)))
            norms = np.sqrt((F ** 2 * g.m[:, None]).sum(axis=0))

            def colnorms(A):
                return np.sqrt((A ** 2 * g.m[:, None]).sum(axis=0))

            # Delta^{1/2}
            op = series(g, DeltaPower(0.5), None, 1e-10)
            err = colnorms(op.apply(F) - delta_power_exact(g, F, 0.5))
            assert np.all(err <= op.tail_bound * norms + 1e-9)
            # Delta^{-1/2}
            op = series(g, DeltaPower(-0.5), None, 1e-10)
            err = colnorms(op.apply(F) - delta_power_exact(g, F, -0.5))
            assert np.all(err <= op.tail_bound * norms + 1e-9)
            # resolvent powers
            for s, M in ((2, 1), (8, 2)):
                step = series(g, Resolvent(1.0), s, 1e-11 / M)
                out = F
                for _ in range(M):
                    out = step.apply(out)
                err = colnorms(out - resolvent_exact(g, F, s, float(M)))
                assert np.all(err <= M * step.tail_bound * norms + 1e-9)
            # reproducing sums at a fixed horizon, bound from the spectrum
            lam = spectral(g).eigenvalues[:-1]
            beta, N = 1.0, 600
            partial = np.zeros_like(lam)
            zpow = np.ones_like(lam)
            c = 1.0
            for kk in range(N + 1):
                partial += c * zpow
                c = c * (kk + beta) / (kk + 1)
                zpow *= lam
            declared = np.abs(1.0 - (1.0 - lam) ** beta * partial).max()
            err = reproducing_check(g, F, beta, N)
            assert np.all(err <= declared * norms + 1e-9)

    _criterion(3, "series vs oracle within declared tails + 1e-9", run)


def test_c04_gaffney_decay():
    def run():
        t0 = time.time()
        g = lazy_torus_2d(32)
        E, F = [16 * 32 + 16], [0]

        def check(fit):
            assert fit.c > 0
            logs = np.log([r for r in fit.ratios if r > 0])
            span = logs.max() - logs.min()
            assert fit.residual_rms <= 0.15 * span

        s_heat = [int(s) for s in np.unique(np.round(np.geomspace(40, 512, 10)))]
        check(gaffney_fit(g, "heat", E, F, s_heat))
        check(gaffney_fit(g, "resolvent", E, F, [1, 2, 4, 8, 16, 32, 64]))
        check(gaffney_fit(g, "grad_heat", E, F, s_heat))
        # finite propagation: identically zero before the distance is reached
        zero = gaffney_fit(g, "heat", E, F, [4, 8, 16, 31])
        assert zero.ratios == [0.0, 0.0, 0.0, 0.0]
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"

    _criterion(4, "Gaffney decay fits on the 32x32 torus, < 60 s", run)


def test_c05_k2l_analytic_values():
    def run():
        g = k2l()
        f0 = np.array([1.0, -1.0])
        L = lusin(g, f0, 1.0, 8)
        assert np.abs(L - 1.0).max() <= 1e-12
        assert abs(lp_norm(g, L, 1) - 4.0) <= 1e-12
        G = g_littlewood(g, f0, 1.0, 8)
        assert np.abs(G - 1.0).max() <= 1e-12
        res = riesz(g, f0)
        assert abs(res.norm_l2_output - 2.0) <= 1e-12
        assert abs(res.norm_l2_input - 2.0) <= 1e-12
        ratio = res.norm_l1_gradient / res.h1_quad_input
        assert abs(ratio - 1.0) <= 1e-12

    _criterion(5, "two-point analytic values exact to 1e-12", run)


def test_c06_square_function_oracles():
    def run():
        g = lazy_cycle(16)
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_mean_zero(g, rng)
            assert np.abs(lusin(g, f, 1.0, 40)
                          - naive_lusin(g, f, 1.0, 40)).max() <= 1e-12
            assert np.abs(lusin_tilde(g, f, 1.0, 6)
                          - naive_lusin_tilde(g, f, 1.0, 6)).max() <= 1e-12
            assert np.abs(g_littlewood(g, f, 1.0, 40)
                          - naive_g_littlewood(g, f, 1.0, 40)).max() <= 1e-12
            F = SpaceTimeFunction(g, rng.standard_normal((g.n, 12)))
            assert np.abs(tent_functional(g, F)
                          - naive_tent_functional(g, F)).max() <= 1e-12

    _criterion(6, "square functions match naive oracles to 1e-12", run)


def test_c07_tent_round_trip():
    def run():
        g = lazy_cycle(32)
        ratios = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            f = random_mean_zero(g, rng)
            F = truncated_profile(g, f, 1.0, 48)
            dec = atomic_decompose(g, F, tol=1e-8)
            assert tent_residual(F, dec) <= 1e-8
            rec = np.zeros_like(F.values)
            for lam, atom in dec.coefficients:
                assert is_tent_atom(atom)
                rec += lam * atom.values.values
            assert t22_norm(SpaceTimeFunction(g, F.values - rec)) <= 1e-8
            ratios.append(sum_abs_lambda(dec) / lp_norm(g, tent_functional(g, F), 1))
        assert max(ratios) / min(ratios) <= 20.0

    _criterion(7, "tent atomic decomposition round trip at 1e-8, 50 seeds", run)


def test_c08_molecular_pipeline():
    def run():
        g = lazy_cycle(32)
        ratios = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            f = random_mean_zero(g, rng)
            dec = molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
            assert dec.l2_residual <= 1e-8
            for lam, mol in dec.coefficients:
                validate_molecule(mol)
            ratios.append(dec.sum_abs_lambda / dec.quad_norm)
        assert max(ratios) / min(ratios) <= 20.0
        # uniform L^1 mass over the scale sweep
        per_s = {}
        for s in (1, 4, 16, 64):
            suite = molecule_suite(g, (s,), kind="bz2", M=1)
            per_s[s] = max(lp_norm(g, a, 1) for _, a in suite)
        assert max(per_s.values()) / min(per_s.values()) <= 10.0

    _criterion(8, "molecular pipeline reconstructs at 1e-8, 50 seeds", run)


def test_c09_bmo_equivalence():
    def run():
        g = lazy_cycle(32)
        suite = [random_mean_zero(g, np.random.default_rng(seed))
                 for seed in range(20)]
        for M in (1, 2):
            for f in suite:
                v1 = bmo_norm(g, f, "bz1", M, 16).value
                v2 = bmo_norm(g, f, "bz2", M, 16).value
                assert v1 / v2 <= 10.0 and v2 / v1 <= 10.0
        f = random_mean_zero(g, np.random.default_rng(99))
        base = bmo_norm(g, f, "bz1", 1, 8).value
        assert bmo_norm(g, f + 2.0, "bz1", 1, 8).value == pytest.approx(base, abs=1e-12)
        assert bmo_norm(g, 3.0 * f, "bz1", 1, 8).value == pytest.approx(3 * base, rel=1e-12)

    _criterion(9, "BMO bz1/bz2 within factor 10; invariances exact", run)


def test_c10_duality():
    def run():
        g = lazy_cycle(32)
        ratios = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            h = random_mean_zero(g, rng)
            dec = molecular_decompose(g, h, 1, 1.0, 1.0, tol=1e-8)
            f = random_mean_zero(g, rng)
            pair = abs(duality_pairing(g, f, dec))
            bound = bmo_norm(g, f, "bz2", 1, 16).value * dec.sum_abs_lambda
            ratios.append(pair / bound)
        C_fit = max(ratios)
        assert math.isfinite(C_fit) and C_fit <= 2.0

    _criterion(10, "duality pairing dominated by one fitted constant", run)


def test_c11_riesz_h1_l1():
    def run():
        g = lazy_cycle(32)
        suite = molecule_suite(g, (1, 4, 16, 64), kind="bz1", M=1)
        rep = riesz_h1_experiment(g, suite)
        assert rep.max_chain_gap <= 1e-10
        grads = [e.grad_l1 for e in rep.entries]
        assert max(grads) / min(grads) <= 10.0

    _criterion(11, "Riesz H1->L1 uniform over the molecule sweep", run)


def test_c12_covering_and_tail_bound():
    def run():
        fixtures = (k2l(), lazy_cycle(16), lazy_cycle(32), lazy_path(9),
                    lazy_torus_2d(8), binary_tree(4),
                    random_weights(lazy_cycle(16), seed=5))
        for g in fixtures:
            r = max(1, g.diameter // 4)
            b = ball(g, 0, r)
            fam = vitali_cover(g, b, 4.0)
            taken = np.zeros(g.n, dtype=bool)
            big = ball(g, b.center, 4.0 * b.radius)
            for B in fam:
                assert np.all(big.mask[B.mask])
                assert not np.any(taken & B.mask)
                taken |= B.mask
            covered = np.zeros(g.n, dtype=bool)
            for B in fam:
                covered |= g.dist[B.center] < 3 * B.radius
            assert np.all(covered[big.mask])
            doubling = geometry_report(g).doubling_constant
            for j in (1, 2):
                fam = annulus_cover(g, b, j)
                ring = annulus(b, j)
                if not ring.any():
                    assert fam == []
                    continue
                cov = np.zeros(g.n, dtype=bool)
                mult = np.zeros(g.n)
                allowed = ring.copy()
                if j >= 2:
                    allowed |= annulus(b, j - 1)
                allowed |= annulus(b, j + 1)
                for B in fam:
                    cov |= B.mask
                    mult += B.mask
                    assert np.all(allowed[B.mask])
                assert np.all(cov[ring])
                assert mult.max() <= cover_overlap_bound(g, r, doubling)
        for m in (0.0, 1.0, 2.0):
            C, c = exp_decay_constants(m)
            for t in np.linspace(0.0, 100.0, 26):
                for kk in (0, 1, 3, 10, 40, 150, 400, 1000):
                    val = exp_decay_bound(m, float(t), kk)
                    assert val <= C * math.exp(-c * kk / (1.0 + t)) + 1e-15

    _criterion(12, "covering algorithms verified by enumeration; tail bound", run)
