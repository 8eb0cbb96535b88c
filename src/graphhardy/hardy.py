"""Molecules, molecular Hardy decompositions, BMO norms and the
duality pairing.

A molecule is an L^2 function factored through a cancellative operator
applied to a pre-image b whose mass decays across the annuli of a ball
of radius sqrt(s):

* bz1:  a = (I - P^{s_1}) ... (I - P^{s_M}) b,  s_i in [s, 2s]
* bz2:  a = [I - (I + s Delta)^{-1}]^M b
* form: a = s^{M+1/2} d Delta^M (I + s Delta)^{-M-1/2} b   (a 1-form)

with ||b||_{L^2(C_j(B))} <= 2^{-j eps} V(2^j B)^{-1/2} for every ring,
and the atom case (eps = inf) replaced by supp b in B together with
||b||_2 <= V(B)^{-1/2}.

The decomposition pipeline goes: heat profile of f -> tent atomic
decomposition -> one synthesized molecule per tent atom.  Synthesized
molecules are valid only up to a uniform constant, so each one is
normalized by its measured annulus excess and the constant is kept on
the coefficient.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (BZ2Kind, _mean_zero_radius, a_s, delta_power_apply,
                       require_mean_zero, resolvent_apply)
from .errors import (
    FactorizationMismatch,
    NonConvergent,
    NotExactForm,
    SizeBoundViolated,
    ValidationFailed,
)
from .graphs import (
    Ball,
    WeightedGraph,
    annuli_covering_range,
    ball,
    ball_matrix,
    cached_geometry,
)
from .operators import (
    EdgeFunction,
    apply_P,
    differential,
    divergence,
    inner,
    lp_norm,
    lp_norm_forms,
    mean_project,
    powers,
    tx_norms,
)
from .quadratic import SpaceTimeFunction, default_l_max, quad_norm
from .riesz import h2_project
from .tentspace import (
    TentAtom,
    atomic_decompose,
    heat_prefix,
    horner_synthesis,
    reproducing_l_max,
)


# -- molecule type -------------------------------------------------------

@dataclass
class Molecule:
    kind: str                  # "bz1" | "bz2" | "bz2_tuple" | "form"
    M: int
    eps: float                 # math.inf marks an atom
    s: int
    ball: Ball
    b: np.ndarray = field(repr=False)
    a: object = field(repr=False)   # np.ndarray or EdgeFunction
    times: tuple = None        # bz1 / bz2_tuple only
    norm_constant: float = 1.0

    @property
    def graph(self) -> WeightedGraph:
        return self.ball.graph


@dataclass
class ValidationReport:
    ok: bool
    factorization_error: float
    size_violations: list
    atom_tuple_warning: bool
    l1_norm: float
    annulus_profile: list
    a_annulus_excess: float


def _restricted_l2(g, f, mask):
    return math.sqrt(float(np.sum(f[mask] ** 2 * g.m[mask]))) if mask.any() else 0.0


def rederive_molecule(mol: Molecule):
    """Recompute a from b along the kind-specific factorization."""
    g = mol.graph
    if mol.kind == "bz1":
        # applied directly: atom tuples may sit below s, which the
        # strict BZ1Kind constructor would reject
        out = np.asarray(mol.b, dtype=float)
        for t in mol.times:
            out = out - apply_P(g, out, t)
        return out
    if mol.kind == "bz2":
        return a_s(g, mol.b, BZ2Kind(mol.s, mol.M))
    if mol.kind == "bz2_tuple":
        # variant normalization: product of single resolvent differences
        out = np.asarray(mol.b, dtype=float)
        for t in mol.times:
            out = out - resolvent_apply(g, out, t, 1.0)
        return out
    if mol.kind == "form":
        v = np.asarray(mol.b, dtype=float)
        for _ in range(mol.M):
            v = v - apply_P(g, v)
        v = resolvent_apply(g, v, mol.s, mol.M + 0.5)
        return differential(g, mol.s ** (mol.M + 0.5) * v)
    raise ValueError(f"unknown molecule kind {mol.kind!r}")


SIZE_TOL = 1e-9


def _size_profile(mol: Molecule, size_tol=SIZE_TOL):
    """(rings, violations, profile) of b: every annulus with its size
    bound, the (j, measured, bound) entries that exceed it and the
    measured masses; atoms are checked on the ball instead."""
    g = mol.graph
    rings = [] if math.isinf(mol.eps) else [
        (ring, 2.0 ** (-ring.j * mol.eps) * mol.ball.scaled(2 ** ring.j).volume ** -0.5)
        for ring in annuli_covering_range(mol.ball)
    ]
    violations = []
    profile = []
    if math.isinf(mol.eps):
        outside = ~mol.ball.mask
        stray = float(np.abs(np.asarray(mol.b)[outside]).max(initial=0.0))
        norm_b = lp_norm(g, mol.b, 2)
        bound = mol.ball.volume ** -0.5
        profile.append(norm_b)
        if stray > 0.0:
            violations.append((0, stray, 0.0))
        if norm_b > bound * (1.0 + size_tol):
            violations.append((1, norm_b, bound))
    for ring, bound in rings:
        measured = _restricted_l2(g, np.asarray(mol.b), ring.mask)
        profile.append(measured)
        if measured > bound * (1.0 + size_tol):
            violations.append((ring.j, measured, bound))
    return rings, violations, profile


def validate_molecule(mol: Molecule, fact_tol=1e-9, size_tol=SIZE_TOL,
                      raise_on_fail=True) -> ValidationReport:
    """Check factorization, annulus size bounds and measure the L^1 mass.

    bz1 atoms are accepted with tuple entries anywhere in [1, 2s]
    (flagged), molecules need entries in [s, 2s].
    """
    g = mol.graph
    is_form = mol.kind == "form"
    a_ref = mol.a
    a2 = rederive_molecule(mol)
    if is_form:
        scale = max(1.0, lp_norm_forms(g, a_ref, 2))
        fact_err = lp_norm_forms(g, a2 - a_ref, 2) / scale
    else:
        scale = max(1.0, lp_norm(g, a_ref, 2))
        fact_err = lp_norm(g, np.asarray(a2) - np.asarray(a_ref), 2) / scale
    if fact_err > fact_tol and raise_on_fail:
        raise FactorizationMismatch(
            f"relative factorization error {fact_err:.3e} > {fact_tol:.1e}"
        )

    tuple_warning = False
    if mol.kind in ("bz1", "bz2_tuple"):
        # the atom tuple range is accepted down to 1, with a flag
        lo = 1 if math.isinf(mol.eps) else mol.s
        for t in mol.times:
            if not lo <= t <= 2 * mol.s:
                raise ValidationFailed(
                    f"{mol.kind} tuple entry {t} outside [[{lo}, {2 * mol.s}]]"
                )
            if t < mol.s:
                tuple_warning = True

    rings, violations, profile = _size_profile(mol, size_tol)
    if violations and raise_on_fail:
        j, measured, bound = violations[0]
        raise SizeBoundViolated(j, measured, bound)

    if is_form:
        l1 = lp_norm_forms(g, a_ref, 1)
        level = tx_norms(g, a_ref)
    else:
        l1 = lp_norm(g, a_ref, 1)
        level = np.abs(np.asarray(a_ref))
    excess = 0.0
    for ring, bound in rings:
        if bound > 0:
            excess = max(excess, _restricted_l2(g, level, ring.mask) / bound)

    ok = fact_err <= fact_tol and not violations
    return ValidationReport(ok, fact_err, violations, tuple_warning, l1,
                            profile, excess)


# -- synthesized molecules from tent atoms ---------------------------------

def _normalized(mol: Molecule, fact_tol) -> Molecule:
    """Set a = rederive_molecule(mol), divide b and a by the measured
    annulus excess of b (kept in norm_constant) and revalidate, so the
    returned molecule validates as-is."""
    mol.a = rederive_molecule(mol)
    excess = 1.0
    _, violations, _ = _size_profile(mol)
    for _, measured, bound in violations:
        if bound > 0:
            excess = max(excess, measured / bound * (1.0 + 1e-12))
    mol.b = mol.b / excess
    mol.a = mol.a / excess
    mol.norm_constant = excess
    report = validate_molecule(mol, fact_tol=fact_tol, raise_on_fail=False)
    if not report.ok:
        raise ValidationFailed(
            f"synthesized {mol.kind} molecule fails validation: fact_err = "
            f"{report.factorization_error:.3e}, violations = {report.size_violations}"
        )
    return mol


def synthesis_eta(M: int, beta: float, eps: float, d0: float) -> int:
    """Integer eta with eta >= d0/4 + eps/2 + beta + M + 1 > eta - 1."""
    return math.ceil(d0 / 4.0 + eps / 2.0 + beta) + M + 1


def synthesis_eta_forms(M: int, eps: float, d0: float) -> int:
    return math.ceil(d0 / 4.0 + eps / 2.0) + M + 2


def make_molecule_from_tent_atom(A: TentAtom, M: int, beta: float, eps: float,
                                 d0=None, fact_tol=1e-9) -> Molecule:
    """Synthesize the bz2 molecule carried by a tent atom.

    The pre-image is

        b = sum_l (c_l^eta / l^beta) ((I + s Delta)/s)^M
            Delta^{eta - beta - M} (I + P)^eta P^{l-1} A(., l-1)

    with s = r^2 and eta as in `synthesis_eta`; the molecule is
    a = [I - (I + s Delta)^{-1}]^M b = pi_{eta, beta}(A).  Both are
    divided by the measured annulus excess (kept in norm_constant) so
    the returned molecule validates as-is.

    The sum runs over the levels l - 1 < top, where top is one past the
    atom's last entry (see `horner_synthesis`).  Levels above it add
    exact zeros, so b, a and norm_constant do not depend on the atom's
    l_max.
    """
    g = A.ball.graph
    if d0 is None:
        d0 = cached_geometry(g).d0_estimate
    if math.isinf(eps):
        raise ValueError("synthesized molecules need a finite eps")
    r = int(round(A.ball.radius))
    s = max(1, r * r)
    eta = synthesis_eta(M, beta, eps, d0)

    def prefix(v):
        v = heat_prefix(g, v, eta, eta - beta - M)
        for _ in range(M):
            v = (v + s * (v - apply_P(g, v))) / s
        return v

    b = horner_synthesis(g, A.values, eta, beta, prefix)
    mol = Molecule("bz2", M, eps, s, ball(g, A.ball.center, r), b, None)
    return _normalized(mol, fact_tol)


def make_form_molecule_from_tent_atom(A: TentAtom, M: int, eps: float,
                                      d0=None, fact_tol=1e-9) -> Molecule:
    """Form analogue with beta = 1/2 and a trailing d Delta^{-1/2},
    i.e. a = s^{M+1/2} d Delta^M (I + s Delta)^{-M-1/2} b."""
    g = A.ball.graph
    if d0 is None:
        d0 = cached_geometry(g).d0_estimate
    r = int(round(A.ball.radius))
    s = max(1, r * r)
    eta = synthesis_eta_forms(M, eps, d0)
    exp = eta - 1 - M
    if exp < 0:
        raise ValueError("eta too small for the form pre-image")

    def prefix(v):
        v = heat_prefix(g, v, eta, exp)
        v = resolvent_apply(g, v, s, -(M + 0.5))  # (I + s Delta)^{M+1/2}
        return v / s ** (M + 0.5)

    b = horner_synthesis(g, A.values, eta, 0.5, prefix)
    mol = Molecule("form", M, eps, s, ball(g, A.ball.center, r), b, None)
    return _normalized(mol, fact_tol)


# -- molecular decompositions ------------------------------------------------

@dataclass
class MolecularDecomposition:
    coefficients: list            # (lambda_i, Molecule)
    sum_abs_lambda: float
    l1_residual: float
    l2_residual: float
    quad_norm: float

    @property
    def quad_ratio(self):
        return self.sum_abs_lambda / self.quad_norm if self.quad_norm else math.inf

    def to_json(self):
        return json.dumps(
            {
                "molecules": [
                    {
                        "lambda": lam,
                        "kind": mol.kind,
                        "M": mol.M,
                        "eps": mol.eps if math.isfinite(mol.eps) else "inf",
                        "s": mol.s,
                        "center": int(mol.ball.center),
                        "radius": float(mol.ball.radius),
                        "norm_constant": mol.norm_constant,
                    }
                    for lam, mol in self.coefficients
                ],
                "sum_abs_lambda": self.sum_abs_lambda,
                "l1_residual": self.l1_residual,
                "l2_residual": self.l2_residual,
                "quad_norm": self.quad_norm,
            },
            indent=2,
        )


def heat_profile(g: WeightedGraph, f, beta: float, l_max: int) -> SpaceTimeFunction:
    """F(., l) = [(l+1) Delta]^beta P^l f for l = 0..l_max."""
    vals = np.empty((g.n, l_max + 1))
    for l, u in enumerate(powers(g, delta_power_apply(g, f, beta), l_max)):
        vals[:, l] = (l + 1.0) ** beta * u
    return SpaceTimeFunction(g, vals)


def form_profile(g: WeightedGraph, w, l_max: int) -> SpaceTimeFunction:
    """F(., l) = sqrt(l+1) P^l w (w = d*G for the forms pipeline)."""
    vals = np.empty((g.n, l_max + 1))
    for l, u in enumerate(powers(g, w, l_max)):
        vals[:, l] = math.sqrt(l + 1.0) * u
    return SpaceTimeFunction(g, vals)


def pipeline_l_max(g: WeightedGraph, eta: int, tol: float, ref_norm: float) -> int:
    target = tol / (2.0 * max(ref_norm, 1e-300))
    return max(default_l_max(g), reproducing_l_max(g, eta, target))


def molecular_decompose(g: WeightedGraph, f, M: int, beta: float, eps: float,
                        tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of a mean-zero f in L^2.

    Heat profile -> tent atoms -> one bz2 molecule per atom.  The
    horizon comes from the one scalar lambda_star (`reproducing_l_max`)
    so the reproducing sum meets tol/2, and the tent partition is
    exact, so the final L^2 residual lands below tol.  A periodic walk
    (PeriodicWalk) or a graph above the oracle cap (OracleCapExceeded)
    is refused before the geometry or any profile is built, whatever f.
    """
    f = require_mean_zero(g, f)
    _mean_zero_radius(g)
    d0 = cached_geometry(g).d0_estimate
    eta = synthesis_eta(M, beta, eps, d0)
    norm_f = lp_norm(g, f, 2)
    if norm_f == 0.0:
        return MolecularDecomposition([], 0.0, 0.0, 0.0, 0.0)
    l_max = pipeline_l_max(g, eta, tol, norm_f)
    F = heat_profile(g, f, beta, l_max)
    tdec = atomic_decompose(g, F, tol=tol)
    coefficients = []
    rec = np.zeros(g.n)
    for lam, atom in tdec.coefficients:
        mol = make_molecule_from_tent_atom(atom, M, beta, eps, d0=d0)
        lam_adj = lam * mol.norm_constant
        coefficients.append((lam_adj, mol))
        rec += lam_adj * np.asarray(mol.a)
    l2_res = lp_norm(g, f - rec, 2)
    if l2_res > tol:
        raise NonConvergent(
            f"molecular reconstruction residual {l2_res:.3e} above {tol:.3e}"
        )
    # F(., l)^2 / (l+1) is the Lusin weight of f at level l, so the
    # quadratic norm ||L_beta f||_1 is the T^1_2 norm of the profile
    qn = tdec.t1_norm
    return MolecularDecomposition(
        coefficients,
        float(sum(abs(l) for l, _ in coefficients)),
        lp_norm(g, f - rec, 1),
        l2_res,
        qn,
    )


def is_exact_form(g: WeightedGraph, F: EdgeFunction, tol=1e-8) -> bool:
    gap = lp_norm_forms(g, h2_project(g, F) - F, 2)
    return gap <= tol * max(1.0, lp_norm_forms(g, F, 2))


def form_molecular_decompose(g: WeightedGraph, F: EdgeFunction, M: int,
                             eps: float, tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of an exact 1-form F = dg."""
    if not is_exact_form(g, F, tol):
        raise NotExactForm("input form is not a differential")
    w = divergence(g, F)
    norm_F = lp_norm_forms(g, F, 2)
    if norm_F == 0.0:
        return MolecularDecomposition([], 0.0, 0.0, 0.0, 0.0)
    d0 = cached_geometry(g).d0_estimate
    eta = synthesis_eta_forms(M, eps, d0)
    # d is L^2-bounded by sqrt(2), keep that margin in the horizon target
    l_max = pipeline_l_max(g, eta, tol / math.sqrt(2.0), norm_F)
    prof = form_profile(g, w, l_max)
    tdec = atomic_decompose(g, prof, tol=tol)
    coefficients = []
    rec = np.zeros(g.adjacency.nnz)
    for lam, atom in tdec.coefficients:
        mol = make_form_molecule_from_tent_atom(atom, M, eps, d0=d0)
        lam_adj = lam * mol.norm_constant
        coefficients.append((lam_adj, mol))
        rec += lam_adj * mol.a.data
    resid = EdgeFunction(g, F.data - rec)
    l2_res = lp_norm_forms(g, resid, 2)
    if l2_res > tol:
        raise NonConvergent(
            f"form reconstruction residual {l2_res:.3e} above {tol:.3e}"
        )
    qn = quad_norm(g, delta_power_apply(g, mean_project(g, w), -0.5), 0.5, l_max)
    return MolecularDecomposition(
        coefficients,
        float(sum(abs(l) for l, _ in coefficients)),
        lp_norm_forms(g, resid, 1),
        l2_res,
        qn,
    )


# -- BMO norms ----------------------------------------------------------------

@dataclass
class BmoReport:
    kind: str
    M: int
    value: float
    argmax: dict
    enumeration_policy: str

    def to_json(self):
        return json.dumps(
            {
                "kind": self.kind,
                "M": self.M,
                "value": self.value,
                "argmax": self.argmax,
                "enumeration_policy": self.enumeration_policy,
            },
            indent=2,
        )


def _bz1_block(PK: np.ndarray, tuples) -> np.ndarray:
    """(I - P^{s_1})...(I - P^{s_M}) f for each tuple, one column each,
    from the precomputed P^k f columns of PK."""
    M = len(tuples[0])
    T = np.array(tuples, dtype=int).reshape(len(tuples), M)
    out = np.zeros((PK.shape[0], len(tuples)))
    for bits in range(1 << M):
        chosen = [(bits >> i) & 1 for i in range(M)]
        sign = -1.0 if sum(chosen) % 2 else 1.0
        out += sign * PK[:, T @ np.array(chosen, dtype=int)]
    return out


TUPLE_EXHAUSTIVE_CAP = 4096
# Candidates whose local masses are computed together; bounds the block
# (n, BMO_BLOCK) however many tuples an exhaustive enumeration yields.
BMO_BLOCK = 256


def bmo_norm(g: WeightedGraph, f, kind: str, M: int, s_max: int,
             tuple_policy="auto", seed=0) -> BmoReport:
    """sup over times s <= s_max and balls of radius ceil(sqrt(s)) of
    the normalized local L^2 mass of A_s f.

    bz1 tuples are enumerated exhaustively while s^M <= 4096, otherwise
    the endpoint tuples plus 32 seeded samples are used;
    `tuple_policy` in {"auto", "exhaustive", "sampled"} overrides.
    The bz2 candidates of every s come from one sweep; local masses are
    taken with one sparse ball matrix per radius, on blocks of at most
    BMO_BLOCK candidates, walked in order (the first strict maximum wins).
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if tuple_policy not in ("auto", "exhaustive", "sampled"):
        raise ValueError("tuple_policy must be auto, exhaustive or sampled")
    if kind not in ("bz1", "bz2"):
        raise ValueError("kind must be 'bz1' or 'bz2'")
    f = np.asarray(f, dtype=float)
    best = (-1.0, None)
    policies = set()
    balls = {}
    if kind == "bz1":
        PK = np.column_stack(list(powers(g, f, 2 * s_max * M)))
    else:
        A = a_s(g, f, BZ2Kind(tuple(range(1, s_max + 1)), M))
    rng = np.random.default_rng(seed)
    for s in range(1, s_max + 1):
        r = math.ceil(math.sqrt(s))
        if r not in balls:
            B = ball_matrix(g, r)
            balls[r] = (B, B @ g.m)
        B, vols = balls[r]
        if kind == "bz2":
            tuples = [()]
            policies.add("exhaustive")
        else:
            exhaustive = s ** M <= TUPLE_EXHAUSTIVE_CAP
            if tuple_policy != "auto":
                exhaustive = tuple_policy == "exhaustive"
            if exhaustive:
                tuples = itertools.product(range(s, 2 * s + 1), repeat=M)
                policies.add("exhaustive")
            else:
                corner = list(itertools.product((s, 2 * s), repeat=M))
                sampled = [tuple(rng.integers(s, 2 * s + 1, size=M))
                           for _ in range(32)]
                tuples = corner + sampled
                policies.add("sampled")
        tuples = iter(tuples)
        while chunk := list(itertools.islice(tuples, BMO_BLOCK)):
            U = A[:, s - 1:s] if kind == "bz2" else _bz1_block(PK, chunk)
            local = (B @ (U * U * g.m[:, None])) / vols[:, None]
            xs = np.argmax(local, axis=0)
            vals = np.sqrt(local[xs, np.arange(len(chunk))])
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (float(vals[j]), {"s": s, "times": list(chunk[j]),
                                         "center": int(xs[j]), "radius": r})
    policy = "+".join(sorted(policies))
    return BmoReport(kind, M, best[0], best[1], policy)


def m0_norm(g: WeightedGraph, phi, M: int, eps: float, x0: int,
            phi_tilde=None) -> float:
    """Dual-test-class norm sup_j 2^{j eps} V(2^j B_0)^{1/2}
    ||phi_tilde||_{L^2(C_j(B_0))} with B_0 = {x0} and phi = Delta^M phi_tilde."""
    g_ball = ball(g, x0, 1)
    if phi_tilde is None:
        phi_tilde = delta_power_apply(g, require_mean_zero(g, phi), -float(M))
    return max(2.0 ** (ring.j * eps)
               * math.sqrt(g_ball.scaled(2 ** ring.j).volume)
               * _restricted_l2(g, np.asarray(phi_tilde), ring.mask)
               for ring in annuli_covering_range(g_ball))


def duality_pairing(g: WeightedGraph, f, decomp: MolecularDecomposition) -> float:
    """<f, sum_i lambda_i a_i> with the m-weighted pairing."""
    total = 0.0
    for lam, mol in decomp.coefficients:
        total += lam * inner(g, f, np.asarray(mol.a))
    return total
