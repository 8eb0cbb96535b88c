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

Functions and forms share one pipeline (`_decompose`): profile (its
levels up to diam^2 + 1 stored, the rest as a closed-form tail) -> tent
atomic decomposition -> one synthesized molecule per tent atom, whose
kind enters through its synthesis orders (`synthesis_orders`) and its
pointwise level (`_level`), the rules the stage and validator read too.
Synthesized molecules are valid only up to a uniform constant, so each
one is normalized by its measured annulus excess and the constant is
kept on the coefficient.

The molecules of a decomposition are one block stage
(`synthesize_molecules`), in the paper's order: one heat scan X of all
atoms, the molecule a = Delta^M X (d Delta^M X for forms) and its
pre-image b = Q_s X, both on the (n, atoms) output; the annulus masses
and bounds of every molecule come from the rows of the hop counts g.dist
(exact uint8/uint16, compared with float radii) and g.ball_volumes with
one bincount per quantity; and validation (`_validate_block`) rederives
a from b once, checks the whole block and raises a ValidationFailed on
the first failure.  `validate_molecule` and the one-atom synthesis
calls are one-column blocks of the same code.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (BZ2Kind, a_s, bz1_product, delta_power_apply, require_mean_zero,
                       resolvent_apply, spectrum)
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
    ball,
    ball_matrices,
    cached_geometry,
)
from .operators import (
    EdgeFunction,
    apply_P,
    delta_steps,
    differential,
    divergence,
    inner,
    lp_norm,
    lp_norm_forms,
    tx_norms,
    weighted_powers,
)
from .quadratic import ProfileTail, SpaceTimeFunction, default_l_max
from .riesz import h2_project
from .tentspace import (
    TentAtom,
    TentDecomposition,
    atomic_decompose,
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
    factorization_error: float
    atom_tuple_warning: bool
    l1_norm: float


# -- validation, one block of molecules at a time ---------------------------

SIZE_TOL = 1e-9
# Largest relative factorization error of a valid molecule.
FACT_TOL = 1e-9
# kinds whose molecules carry their own time tuple
TUPLE_KINDS = ("bz1", "bz2_tuple")


def rederive_molecules(g: WeightedGraph, kind: str, M: int, s, times,
                       b: np.ndarray) -> np.ndarray:
    """a for every column of the pre-image block b (n, k) along the
    kind-specific factorization, with one block evaluation per distinct
    scale s (bz2, form) or time tuple (bz1, bz2_tuple): one GEMM per
    group on the oracle path.  Forms give (nnz, k) edge data."""
    groups = {}
    for i, key in enumerate(times if kind in TUPLE_KINDS else s):
        groups.setdefault(key, []).append(i)
    out = np.empty((g.adjacency.nnz if kind == "form" else g.n, b.shape[1]))
    for key, cols in groups.items():
        x = b[:, cols]
        if kind == "bz1":
            # not through BZ1Kind: atom tuples may sit below s, which its
            # strict constructor would reject
            x = bz1_product(g, x, key)
        elif kind == "bz2":
            x = a_s(g, x, BZ2Kind(key, M))
        elif kind == "bz2_tuple":
            # variant normalization: product of single resolvent differences
            for t in key:
                x = x - resolvent_apply(g, x, t, 1.0)
        elif kind == "form":
            x = delta_steps(g, x, M)
            x = differential(g, key ** (M + 0.5) * resolvent_apply(g, x, key, M + 0.5)).data
        else:
            raise ValueError(f"unknown molecule kind {kind!r}")
        out[:, cols] = x
    return out


def _level(g: WeightedGraph, kind: str, x) -> np.ndarray:
    """The pointwise size of molecule data x, one column per molecule:
    |x| for functions, the T_x fibre norms of form edge data."""
    return tx_norms(g, EdgeFunction(g, x)) if kind == "form" else np.abs(x)


def _annulus_bounds(g: WeightedGraph, balls, eps: float):
    """The annuli C_j(B), j = 1..J_B, of `annuli_covering_range` for every
    ball B of `balls` with their size bounds, read from g.dist and
    g.ball_volumes: (ring, J, bounds) with ring[i, y] = j - 1 for the
    annulus C_j of balls[i] holding y, J[i] its number of annuli, and
    bounds[i, j - 1] = 2^{-j eps} V(2^j B)^{-1/2} (the annuli past J[i]
    are empty)."""
    centers = np.array([B.center for B in balls], dtype=np.intp)
    R = np.array([float(B.radius) for B in balls])
    J = np.ones(len(balls), dtype=np.intp)
    while (grow := 2.0 ** (J + 1) * R <= g.diameter).any():
        J += grow
    d = g.dist[centers]
    ring = np.zeros(d.shape, dtype=np.intp)
    for j in range(2, J.max() + 1):
        ring += d >= 2.0 ** j * R[:, None]
    j = np.arange(1, J.max() + 1)
    reach = np.minimum(np.ceil(2.0 ** j * R[:, None]) - 1, g.diameter).astype(np.intp)
    return ring, J, 2.0 ** (-j * eps) * g.ball_volumes[centers[:, None], reach] ** -0.5


def _annulus_l2(g: WeightedGraph, ring, width: int, levels) -> np.ndarray:
    """(k, width) table of ||levels[:, i]||_{L^2(C_j)} at [i, j - 1],
    from one bincount over the annulus indices `ring` (k, n)."""
    k = ring.shape[0]
    cells = ring + width * np.arange(k)[:, None]
    mass = np.bincount(cells.ravel(), (levels.T ** 2 * g.m).ravel(), minlength=k * width)
    return np.sqrt(mass).reshape(k, width)


def _size_table(g: WeightedGraph, eps: float, balls, b):
    """(measured, bounds): two (k, J) tables of the pre-images b (n, k)
    over `balls`, ||b[:, i]||_{L^2(C_j)} at [i, j - 1] against the bounds
    of `_annulus_bounds`.  Atoms (eps = inf) are checked on the ball
    instead: column 0 is max |b| outside B against 0, column 1 is ||b||_2
    against V(B)^{-1/2}."""
    if math.isinf(eps):
        stray = np.abs(np.where(np.array([B.mask for B in balls]).T, 0.0, b)).max(axis=0)
        bound = np.array([B.volume for B in balls]) ** -0.5
        return (np.column_stack([stray, lp_norm(g, b, 2)]),
                np.column_stack([np.zeros_like(bound), bound]))
    ring, _, bounds = _annulus_bounds(g, balls, eps)
    return _annulus_l2(g, ring, bounds.shape[1], b), bounds


def _validate_block(g: WeightedGraph, kind: str, M: int, eps: float, s, times,
                    balls, b, a, sizes=None) -> list:
    """One ValidationReport per molecule of a block: k molecules of one
    kind, M and eps, with scales s, time tuples `times` (bz1, bz2_tuple)
    and balls, as the columns of their pre-images b (n, k) and molecules
    a ((n, k), or (nnz, k) edge data for forms).

    a is rederived once, by `rederive_molecules`, and the annulus masses
    of b come from one bincount (`_size_table`), unless the caller
    passes that (measured, bounds) table of b as `sizes`.  Every failure
    raises a ValidationFailed, on the first molecule in column order: a
    factorization error above FACT_TOL, NaN included
    (FactorizationMismatch), then a tuple entry out of range, then the
    first (molecule, annulus) entry above its size bound
    (SizeBoundViolated)."""
    level_a = _level(g, kind, a)
    gap = rederive_molecules(g, kind, M, s, times, b)
    gap -= a
    fact_err = lp_norm(g, _level(g, kind, gap), 2) / np.maximum(1.0, lp_norm(g, level_a, 2))
    failed = ~(fact_err <= FACT_TOL)
    if failed.any():
        raise FactorizationMismatch(f"relative factorization error "
                                    f"{fact_err[np.argmax(failed)]:.3e} > {FACT_TOL:.1e}")

    warnings = [False] * len(balls)
    if kind in TUPLE_KINDS:
        # the atom tuple range is accepted down to 1, with a flag
        for i, (si, ts) in enumerate(zip(s, times)):
            lo = 1 if math.isinf(eps) else si
            for t in ts:
                if not lo <= t <= 2 * si:
                    raise ValidationFailed(
                        f"{kind} tuple entry {t} outside [[{lo}, {2 * si}]]")
                warnings[i] |= t < si

    measured, bounds = _size_table(g, eps, balls, b) if sizes is None else sizes
    over = np.argwhere(measured > bounds * (1.0 + SIZE_TOL))
    if len(over):
        i, c = over[0]
        # atoms number their two checks 0 and 1, annuli C_j from j = 1
        raise SizeBoundViolated(int(c) + (not math.isinf(eps)),
                                float(measured[i, c]), float(bounds[i, c]))
    return [ValidationReport(float(err), w, float(l1))
            for err, w, l1 in zip(fact_err, warnings, lp_norm(g, level_a, 1))]


def validate_molecule(mol: Molecule) -> ValidationReport:
    """Check factorization (to FACT_TOL), annulus size bounds (to
    SIZE_TOL) and measure the L^1 mass: the one-molecule block of
    `_validate_block`, which raises on the first failure.

    bz1 atoms are accepted with tuple entries anywhere in [1, 2s]
    (flagged), molecules need entries in [s, 2s].
    """
    a = mol.a.data if mol.kind == "form" else np.asarray(mol.a, dtype=float)
    return _validate_block(mol.graph, mol.kind, mol.M, mol.eps, [mol.s], [mol.times],
                           [mol.ball], np.asarray(mol.b, dtype=float)[:, None],
                           a[:, None])[0]


# -- synthesized molecules from tent atoms ---------------------------------

def synthesis_eta(M: int, beta: float, eps: float, d0: float) -> int:
    """Integer eta with eta >= d0/4 + eps/2 + beta + M + 1 > eta - 1."""
    return math.ceil(d0 / 4.0 + eps / 2.0 + beta) + M + 1


def synthesis_eta_forms(M: int, eps: float, d0: float) -> int:
    return math.ceil(d0 / 4.0 + eps / 2.0) + M + 2


def synthesis_orders(kind: str, M: int, beta: float, eps: float, d0: float):
    """(eta, beta, exp) of the heat scan of `kind` molecules: beta and
    exp = eta - beta - M for bz2, 1/2 and eta - 1 - M for forms."""
    if kind == "bz2":
        eta = synthesis_eta(M, beta, eps, d0)
        return eta, beta, eta - beta - M
    if kind == "form":
        eta = synthesis_eta_forms(M, eps, d0)
        if eta - 1 - M < 0:
            raise ValueError("eta too small for the form pre-image")
        return eta, 0.5, eta - 1 - M
    raise ValueError(f"no synthesis for molecule kind {kind!r}")


def _pre_images(g: WeightedGraph, kind: str, M: int, X: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """b = Q_s X for the (n, k) block X whose column c belongs to an atom
    of scale s[c]: Q_s = ((I + s Delta)/s)^M for bz2, with s as a row
    vector (one block product per factor), and
    Q_s = s^{-M-1/2} (I + s Delta)^{M+1/2} for forms, one resolvent per
    distinct s on that scale's columns, certified to 1e-12 after the
    s^{-M-1/2} scaling.  X is left as it is."""
    if kind == "bz2":
        b = X
        for _ in range(M):
            step = apply_P(g, b)
            np.subtract(b, step, out=step)
            step *= s
            step += b
            step /= s
            b = step
        return b
    b = np.empty_like(X)
    for t in np.unique(s):
        cols = s == t
        scale = t ** (M + 0.5)
        b[:, cols] = resolvent_apply(g, X[:, cols], t, -(M + 0.5), 1e-12 * scale) / scale
    return b


def synthesize_molecules(g: WeightedGraph, tdec: TentDecomposition, kind: str,
                         M: int, beta: float, eps: float, d0: float):
    """One molecule a = pi_{eta, beta}(A) of `kind` ("bz2" or "form") per
    tent atom A of tdec, all synthesized, normalized and validated as one
    block; returns ([(lambda * norm_constant, Molecule)], a) with the
    molecules stacked as the columns of a ((n, k), or (nnz, k) edge data
    for forms).

    For an atom over B(x, r), with s = max(1, r^2) and (eta, beta, exp)
    from `synthesis_orders`, the stage takes the heat scan

        X = sum_l (c_l^eta / l^beta) Delta^exp (I + P)^eta P^{l-1} A(., l-1)

    over the stored levels l - 1 < top (`horner_synthesis`), so nothing
    depends on the atoms' l_max, and, for the whole-graph atom of a
    profile with a tail, over every level past them in closed form
    (`ProfileTail.synthesis`).  The molecule is a = Delta^M X (bz2) or
    d Delta^M X (form), `delta_steps` in place on the (n, k) output, and
    its pre-image is b = Q_s X (`_pre_images`), so b and a factor as in
    the module docstring.

    b and a are divided by the measured annulus excess of b (kept in
    norm_constant), and the block is validated against the same annulus
    table divided by the excess: a is rederived from b once and compared
    with the a of the scan; the first molecule that fails raises the
    validator's own ValidationFailed.
    """
    if math.isinf(eps):
        raise ValueError("synthesized molecules need a finite eps")
    eta, beta, exp = synthesis_orders(kind, M, beta, eps, d0)
    width = g.adjacency.nnz if kind == "form" else g.n
    if not tdec.coefficients:
        return [], np.zeros((width, 0))
    lams, atoms = zip(*tdec.coefficients)
    radii = [int(round(A.ball.radius)) for A in atoms]
    s = [max(1, r * r) for r in radii]
    balls = [ball(g, A.ball.center, r) for A, r in zip(atoms, radii)]
    times = [None] * len(atoms)
    X = horner_synthesis(g, [A.values for A in atoms], eta, beta, exp)
    b = _pre_images(g, kind, M, X, np.array(s, dtype=float))
    delta_steps(g, X, M)
    a = differential(g, X).data if kind == "form" else X
    measured, bounds = _size_table(g, eps, balls, b)
    over = measured > bounds * (1.0 + SIZE_TOL)
    ratio = np.divide(measured, bounds, out=np.zeros_like(measured), where=over)
    excess = (ratio * (1.0 + 1e-12)).max(axis=1, initial=1.0)
    b /= excess
    a /= excess
    _validate_block(g, kind, M, eps, s, times, balls, b, a,
                    (measured / excess[:, None], bounds))
    rows_b, rows_a = np.ascontiguousarray(b.T), np.ascontiguousarray(a.T)
    coefficients = []
    for i, (lam, c) in enumerate(zip(lams, excess)):
        a_i = EdgeFunction(g, rows_a[i]) if kind == "form" else rows_a[i]
        mol = Molecule(kind, M, eps, s[i], balls[i], rows_b[i], a_i, None, float(c))
        coefficients.append((lam * mol.norm_constant, mol))
    return coefficients, a


def make_molecule_from_tent_atom(A: TentAtom, M: int, beta: float, eps: float,
                                 d0=None) -> Molecule:
    """The bz2 molecule carried by one tent atom: a one-atom
    `synthesize_molecules` stage."""
    g = A.ball.graph
    if d0 is None:
        d0 = cached_geometry(g).d0_estimate
    tdec = TentDecomposition([(1.0, A)], 0.0, 1.0)
    [(_, mol)], _ = synthesize_molecules(g, tdec, "bz2", M, beta, eps, d0)
    return mol


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


def _profile(g: WeightedGraph, u, beta: float, l_max, potential, order: float, reach: int,
             tol) -> SpaceTimeFunction:
    """F(., l) = (l+1)^beta P^l u for l = 0..l_max; for every l without
    l_max: the levels up to default_l_max(g) stored, and past them the
    closed-form tail (`ProfileTail`) of the potential(), u = Delta^order
    potential(), with its reach and tol."""
    L = default_l_max(g) if l_max is None else l_max
    values = weighted_powers(g, u, [(l + 1.0) ** beta for l in range(L + 1)])
    if l_max is not None:
        return SpaceTimeFunction(g, values)
    return SpaceTimeFunction(g, values, ProfileTail(g, potential(), order, beta, L, reach, tol))


def heat_profile(g: WeightedGraph, f, beta: float, l_max=None, *, reach=0,
                 tol=None) -> SpaceTimeFunction:
    """F(., l) = [(l+1) Delta]^beta P^l f for l = 0..l_max, or for every
    l >= 0 without l_max (`_profile`), generated by u = Delta^beta f, the
    tail held by f; reach and tol are those of the tail (`ProfileTail`)."""
    return _profile(g, delta_power_apply(g, f, beta), beta, l_max, lambda: f, beta, reach, tol)


def form_profile(g: WeightedGraph, w, l_max=None, *, reach=0, tol=None) -> SpaceTimeFunction:
    """F(., l) = sqrt(l+1) P^l w (w = d*G for the forms pipeline) for
    l = 0..l_max, or for every l >= 0 without l_max (`_profile`), the
    tail held by Delta^{-1} w; reach and tol are those of the tail
    (`ProfileTail`)."""
    return _profile(g, w, 0.5, l_max, lambda: delta_power_apply(g, w, -1.0), 1.0, reach, tol)


def pipeline_l_max(g: WeightedGraph, eta: int, tol: float, ref_norm: float) -> int:
    """The horizon at which a truncated profile's reproducing sum meets
    tol / 2 (`reproducing_l_max`), at least default_l_max(g): how many
    levels a profile without its closed-form tail needs.  The pipeline
    reads it only for the reach of that tail (`_decompose`), and the
    benchmark's l_max checksum reads it."""
    target = tol / (2.0 * max(ref_norm, 1e-300))
    return max(default_l_max(g), reproducing_l_max(g, eta, target))


def _decompose(g: WeightedGraph, kind: str, target, profile, M: int, beta: float,
               eps: float, tol: float, horizon_tol: float) -> MolecularDecomposition:
    """The molecular pipeline of both kinds: target (a mean-zero f for
    bz2, the edge data of an exact form) as one `kind` molecule per tent
    atom of profile(reach, tail_tol), whose T^1_2 norm is the reported
    quad_norm.
    The spectrum record (`spectrum`) is built first, so a periodic walk
    (PeriodicWalk) or an uncertified spectrum (UncertifiedSpectrum) is
    refused, then a zero target returns before the geometry is built.
    The profile stores the levels up to default_l_max(g) = diam^2 + 1 and
    holds the rest as its closed-form tail, which joins the whole-graph
    atom, so the reproducing sum is not truncated; the tent partition is
    exact, so the L^2 residual lands below tol (NonConvergent otherwise).
    The tail's synthesis is held to horizon_tol / 2, the share of the
    residual a truncated profile's horizon left, and the whole-graph
    atom's radius, and so its molecule's scale s = r^2, covers the
    tail's levels up to its reach, `pipeline_l_max` at horizon_tol: the
    level by which the reproducing sum has converged to horizon_tol / 2."""
    spectrum(g)
    norm = lp_norm(g, _level(g, kind, target), 2)
    if norm == 0.0:
        return MolecularDecomposition([], 0.0, 0.0, 0.0, 0.0)
    d0 = cached_geometry(g).d0_estimate
    eta, _, _ = synthesis_orders(kind, M, beta, eps, d0)
    F = profile(pipeline_l_max(g, eta, horizon_tol, norm), horizon_tol / 2.0)
    tdec = atomic_decompose(g, F, tol=tol)
    coefficients, A = synthesize_molecules(g, tdec, kind, M, beta, eps, d0)
    resid = _level(g, kind, target - A @ np.array([lam for lam, _ in coefficients]))
    l2_res = lp_norm(g, resid, 2)
    if l2_res > tol:
        raise NonConvergent(f"{'form' if kind == 'form' else 'molecular'} "
                            f"reconstruction residual {l2_res:.3e} above {tol:.3e}")
    return MolecularDecomposition(coefficients, float(sum(abs(l) for l, _ in coefficients)),
                                  lp_norm(g, resid, 1), l2_res, tdec.t1_norm)


def _require_orders(M: int, eps: float):
    """ValueError unless M >= 1 and eps is finite and > 0."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, not {eps!r}")


def molecular_decompose(g: WeightedGraph, f, M: int, beta: float, eps: float,
                        tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of a mean-zero f in L^2 from its heat
    profile, whose Lusin weight F(., l)^2 / (l+1) is that of f, so
    quad_norm is ||L_beta f||_1.  M >= 1 and a finite eps > 0, or
    ValueError at once."""
    _require_orders(M, eps)
    f = require_mean_zero(g, f)
    return _decompose(g, "bz2", f,
                      lambda reach, tail_tol: heat_profile(g, f, beta, reach=reach, tol=tail_tol),
                      M, beta, eps, tol, tol)


def is_exact_form(g: WeightedGraph, F: EdgeFunction, tol=1e-8) -> bool:
    gap = lp_norm_forms(g, h2_project(g, F) - F, 2)
    return gap <= tol * max(1.0, lp_norm_forms(g, F, 2))


def form_molecular_decompose(g: WeightedGraph, F: EdgeFunction, M: int,
                             eps: float, tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of an exact 1-form F from the profile
    sqrt(l+1) P^l w, w = d*F, whose Lusin weight |P^l w|^2 is that of
    Delta^{-1/2} w at beta = 1/2; d is L^2-bounded by sqrt(2), so the
    reach of the tail (`_decompose`) keeps that margin.  M >= 1 and a
    finite eps > 0, or ValueError at once."""
    _require_orders(M, eps)
    if not is_exact_form(g, F, tol):
        raise NotExactForm("input form is not a differential")
    w = divergence(g, F)
    return _decompose(g, "form", F.data,
                      lambda reach, tail_tol: form_profile(g, w, reach=reach, tol=tail_tol),
                      M, 0.5, eps, tol, tol / math.sqrt(2.0))


# -- BMO norms ----------------------------------------------------------------

@dataclass
class BmoReport:
    kind: str
    M: int
    value: float
    argmax: dict
    enumeration_policy: str

    def to_json(self):
        return json.dumps(vars(self), indent=2, default=vars)


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
             seed=0) -> BmoReport:
    """sup over times s <= s_max and balls of radius ceil(sqrt(s)) of
    the normalized local L^2 mass of A_s f.

    bz1 tuples are enumerated exhaustively while
    s^M <= TUPLE_EXHAUSTIVE_CAP, otherwise the endpoint tuples plus 32
    seeded samples are used; the report records which ran.
    The bz2 candidates of every s come from one sweep; local masses are
    taken with one sparse ball matrix per radius, grown from the previous
    radius as s walks upward (one matrix held at a time, `dist` never
    read), on blocks of at most BMO_BLOCK candidates, walked in order (the
    first strict maximum wins).
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if kind not in ("bz1", "bz2"):
        raise ValueError("kind must be 'bz1' or 'bz2'")
    f = np.asarray(f, dtype=float)
    best = (-1.0, None)
    policies = set()
    balls = ball_matrices(g, math.ceil(math.sqrt(s_max)))
    r = 0
    if kind == "bz1":
        PK = weighted_powers(g, f, np.ones(2 * s_max * M + 1))
    else:
        A = a_s(g, f, BZ2Kind(tuple(range(1, s_max + 1)), M))
    rng = np.random.default_rng(seed)
    for s in range(1, s_max + 1):
        if math.ceil(math.sqrt(s)) > r:
            r += 1
            B = next(balls)
            vols = B @ g.m
        if kind == "bz2":
            tuples = [()]
            policies.add("exhaustive")
        elif s ** M <= TUPLE_EXHAUSTIVE_CAP:
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
    if phi_tilde is None:
        phi_tilde = delta_power_apply(g, require_mean_zero(g, phi), -float(M))
    # the bounds at eps = 0 are V(2^j B_0)^{-1/2}
    ring, J, inv_sqrt_volume = _annulus_bounds(g, [ball(g, x0, 1)], 0.0)
    mass = _annulus_l2(g, ring, J[0], np.asarray(phi_tilde, dtype=float)[:, None])
    j = np.arange(1, J[0] + 1)
    return float(np.max(2.0 ** (j * eps) * mass[0] / inv_sqrt_volume[0]))


def duality_pairing(g: WeightedGraph, f, decomp: MolecularDecomposition) -> float:
    """<f, sum_i lambda_i a_i> with the m-weighted pairing, from one GEMV
    over the stacked molecules."""
    if not decomp.coefficients:
        return 0.0
    lam = np.array([lam for lam, _ in decomp.coefficients])
    A = np.column_stack([np.asarray(mol.a) for _, mol in decomp.coefficients])
    return inner(g, f, A @ lam)
