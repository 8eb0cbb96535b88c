"""Molecules, molecular Hardy decompositions, BMO norms and the
duality pairing.

A molecule is an L^2 function factored through a cancellative operator
applied to a pre-image b whose mass decays across the annuli of a ball
of radius sqrt(s).  The pipeline makes two kinds:

* bz2:  a = [I - (I + s Delta)^{-1}]^M b
* form: a = s^{M+1/2} d Delta^M (I + s Delta)^{-M-1/2} b   (a 1-form)

with ||b||_{L^2(C_j(B))} <= 2^{-j eps} V(2^j B)^{-1/2} for every ring
at a finite eps > 0: validation knows that one size rule, the annuli.

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
of every molecule come from the ring table of `graphs.annulus_rings`
with one bincount, and its bounds from that table's volumes V(2^j B)
and the factor 2^{-j eps}; and validation (`_validate_block`) rederives
a from b once, checks the whole block and raises a ValidationFailed on
the first failure, and returns the factorization errors, nothing more.
`validate_molecule` and the one-atom synthesis calls are one-column
blocks of the same code; the one report, with the molecule's L^1 mass,
is `validate_molecule`'s.

bz1, (I - P^{s_1}) ... (I - P^{s_M}), is a generator of the BMO sup and
the Riesz suite only, never a molecule kind.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (bz1_block, bz2_apply, delta_power_apply, reproducing_l_max,
                       require_mean_zero, resolvent_apply, spectrum)
from .errors import FactorizationMismatch, NonConvergent, NotExactForm, SizeBoundViolated
from .graphs import (Ball, WeightedGraph, annulus_rings, ball, ball_matrices, cached_geometry,
                     row_blocks)
from .operators import (
    EdgeFunction,
    delta_steps,
    differential,
    divergence,
    heat_sweep,
    inner,
    lp_norm,
    lp_norm_forms,
    tx_norms,
)
from .quadratic import ProfileTail, SpaceTimeFunction, default_l_max
from .tentspace import TentAtom, TentDecomposition, atomic_decompose, horner_synthesis


# -- molecule type -------------------------------------------------------

@dataclass
class Molecule:
    kind: str                  # "bz2" | "form"
    M: int
    eps: float
    s: int
    ball: Ball
    b: np.ndarray = field(repr=False)
    a: object = field(repr=False)   # np.ndarray or EdgeFunction
    norm_constant: float = 1.0

    @property
    def graph(self) -> WeightedGraph:
        return self.ball.graph


@dataclass
class ValidationReport:
    factorization_error: float
    l1_norm: float


# -- validation, one block of molecules at a time ---------------------------

SIZE_TOL = 1e-9
# Largest relative factorization error of a valid molecule.
FACT_TOL = 1e-9


def rederive_molecules(g: WeightedGraph, kind: str, M: int, s, b: np.ndarray) -> np.ndarray:
    """a for every column of the pre-image block b (n, k) along the
    kind-specific factorization (bz2 or form), with one block evaluation
    per distinct scale s: one GEMM per group on the oracle path.  Forms
    give (nnz, k) edge data."""
    groups = {}
    for i, key in enumerate(s):
        groups.setdefault(key, []).append(i)
    out = np.empty((g.adjacency.nnz if kind == "form" else g.n, b.shape[1]))
    for key, cols in groups.items():
        x = b[:, cols]
        if kind == "bz2":
            x = bz2_apply(g, x, key, M)
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


def _annulus_l2(g: WeightedGraph, ring, width: int, levels) -> np.ndarray:
    """(k, width) table of ||levels[:, i]||_{L^2(C_j)} at [i, j - 1],
    from one bincount over the annulus indices `ring` (k, n)."""
    k = ring.shape[0]
    cells = ring + width * np.arange(k)[:, None]
    mass = np.bincount(cells.ravel(), (levels.T ** 2 * g.m).ravel(), minlength=k * width)
    return np.sqrt(mass).reshape(k, width)


def _size_table(g: WeightedGraph, eps: float, balls, b):
    """(measured, bounds): two (k, J) tables of the pre-images b (n, k)
    over `balls`, ||b[:, i]||_{L^2(C_j)} at [i, j - 1] against the bound
    2^{-j eps} V(2^j B)^{-1/2}, on the annuli of `annulus_rings` (those
    past J_B are empty)."""
    ring, _, volumes = annulus_rings(g, balls)
    j = np.arange(1, volumes.shape[1] + 1)
    return _annulus_l2(g, ring, len(j), b), 2.0 ** (-j * eps) * volumes ** -0.5


def _validate_block(g: WeightedGraph, kind: str, M: int, eps: float, s, balls, b, a,
                    sizes=None) -> np.ndarray:
    """The relative factorization error of each molecule of a block: k
    molecules of one kind, M and eps, with scales s and balls, as the
    columns of their pre-images b (n, k) and molecules a ((n, k), or
    (nnz, k) edge data for forms).

    a is rederived once, by `rederive_molecules`, and the annulus masses
    of b come from one bincount (`_size_table`), unless the caller
    passes that (measured, bounds) table of b as `sizes`.  Every failure
    raises a ValidationFailed, on the first molecule in column order: a
    factorization error above FACT_TOL, NaN included
    (FactorizationMismatch), then the first (molecule, annulus) entry
    above its size bound (SizeBoundViolated)."""
    gap = rederive_molecules(g, kind, M, s, b)
    gap -= a
    fact_err = (lp_norm(g, _level(g, kind, gap), 2)
                / np.maximum(1.0, lp_norm(g, _level(g, kind, a), 2)))
    failed = ~(fact_err <= FACT_TOL)
    if failed.any():
        raise FactorizationMismatch(f"relative factorization error "
                                    f"{fact_err[np.argmax(failed)]:.3e} > {FACT_TOL:.1e}")

    measured, bounds = _size_table(g, eps, balls, b) if sizes is None else sizes
    over = np.argwhere(measured > bounds * (1.0 + SIZE_TOL))
    if len(over):
        i, c = over[0]
        raise SizeBoundViolated(int(c) + 1, float(measured[i, c]), float(bounds[i, c]))
    return fact_err


def _require_positive(name: str, value: float):
    """ValueError unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, not {value!r}")


def validate_molecule(mol: Molecule) -> ValidationReport:
    """Check factorization (to FACT_TOL), annulus size bounds (to
    SIZE_TOL) and measure the L^1 mass of a bz2 or form molecule: the
    one-molecule block of `_validate_block`, which raises on the first
    failure (ValueError for any other kind, or for an eps that is not
    finite and > 0)."""
    _require_positive("eps", mol.eps)
    g = mol.graph
    a = (mol.a.data if mol.kind == "form" else np.asarray(mol.a, dtype=float))[:, None]
    [err] = _validate_block(g, mol.kind, mol.M, mol.eps, [mol.s], [mol.ball],
                            np.asarray(mol.b, dtype=float)[:, None], a)
    [l1] = lp_norm(g, _level(g, mol.kind, a), 1)
    return ValidationReport(float(err), float(l1))


# -- synthesized molecules from tent atoms ---------------------------------

def synthesis_eta(M: int, beta: float, eps: float, d0: float) -> int:
    """Integer eta with eta >= d0/4 + eps/2 + beta + M + 1 > eta - 1."""
    return math.ceil(d0 / 4.0 + eps / 2.0 + beta) + M + 1


def synthesis_orders(kind: str, M: int, beta: float, eps: float, d0: float):
    """(eta, beta, exp) of the heat scan of `kind` molecules: beta and
    exp = eta - beta - M for bz2, with eta from `synthesis_eta`, and 1/2
    and eta - 1 - M for forms, with eta >= d0/4 + eps/2 + M + 2 > eta - 1."""
    if kind == "bz2":
        eta = synthesis_eta(M, beta, eps, d0)
        return eta, beta, eta - beta - M
    if kind == "form":
        eta = math.ceil(d0 / 4.0 + eps / 2.0) + M + 2
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
            step = delta_steps(g, b.copy(), 1)
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
    for forms), each Molecule's a and b views of the blocks' columns.

    The molecule of an atom over B(x, r) keeps that ball, whose radius is
    an integer (`TentAtom`), and the scale s = r^2.  With (eta, beta, exp)
    from `synthesis_orders`, the stage takes the heat scan

        X = sum_l (c_l^eta / l^beta) Delta^exp (I + P)^eta P^{l-1} A(., l-1)

    over the stored levels l - 1 < top (`horner_synthesis`), so nothing
    depends on the atoms' l_max.  The molecule is a = Delta^M X (bz2) or
    d Delta^M X (form), `delta_steps` in place on the (n, k) output, and
    its pre-image is b = Q_s X (`_pre_images`), so b and a factor as in
    the module docstring.  For the whole-graph atom of a profile with a
    tail, the levels past the stored ones enter Delta^M X and b in closed
    form, each one bounded function of P on the tail's potential
    (`ProfileTail.share`): E(P) h / scale, E in [0, 1] the reproducing
    error of the stored levels, and Q_s Delta^{-M} E(P) h / scale, with
    Q_s of power q = M (bz2) or M + 1/2 (forms).  X itself, whose tail
    part grows like (1 - lam)^{-M} near lam = 1, is never formed.

    b and a are divided by the measured annulus excess of b (kept in
    norm_constant), and the block is validated against the same annulus
    table divided by the excess: a is rederived from b once and compared
    with the a of the scan; the first molecule that fails raises the
    validator's own ValidationFailed.
    """
    _require_positive("eps", eps)
    eta, beta, exp = synthesis_orders(kind, M, beta, eps, d0)
    width = g.adjacency.nnz if kind == "form" else g.n
    if not tdec.coefficients:
        return [], np.zeros((width, 0))
    lams, atoms = zip(*tdec.coefficients)
    balls = [A.ball for A in atoms]
    s = [int(B.radius) ** 2 for B in balls]
    X = horner_synthesis(g, [A.values for A in atoms], eta, beta, exp)
    b = _pre_images(g, kind, M, X, np.array(s, dtype=float))
    delta_steps(g, X, M)
    for i, tail in enumerate(A.values.tail for A in atoms):
        if tail is not None:
            X[:, i] += tail.share(eta, beta)
            b[:, i] += tail.share(eta, beta, -M, s[i], M if kind == "bz2" else M + 0.5)
    a = differential(g, X).data if kind == "form" else X
    measured, bounds = _size_table(g, eps, balls, b)
    over = measured > bounds * (1.0 + SIZE_TOL)
    ratio = np.divide(measured, bounds, out=np.zeros_like(measured), where=over)
    excess = (ratio * (1.0 + 1e-12)).max(axis=1, initial=1.0)
    b /= excess
    a /= excess
    _validate_block(g, kind, M, eps, s, balls, b, a, (measured / excess[:, None], bounds))
    coefficients = []
    for i, (lam, c) in enumerate(zip(lams, excess)):
        a_i = EdgeFunction(g, a[:, i]) if kind == "form" else a[:, i]
        mol = Molecule(kind, M, eps, s[i], balls[i], b[:, i], a_i, float(c))
        coefficients.append((lam * mol.norm_constant, mol))
    return coefficients, a


def make_molecule_from_tent_atom(A: TentAtom, M: int, beta: float, eps: float,
                                 d0=None) -> Molecule:
    """The bz2 molecule carried by one tent atom: a one-atom
    `synthesize_molecules` stage."""
    g = A.ball.graph
    if d0 is None:
        d0 = cached_geometry(g).d0_estimate
    tdec = TentDecomposition([(1.0, A)])
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

    def to_json(self):
        return json.dumps({
            "molecules": [
                {"lambda": lam, "kind": mol.kind, "M": mol.M,
                 "eps": mol.eps, "s": mol.s,
                 "center": int(mol.ball.center), "radius": float(mol.ball.radius),
                 "norm_constant": mol.norm_constant}
                for lam, mol in self.coefficients
            ],
            "sum_abs_lambda": self.sum_abs_lambda,
            "l1_residual": self.l1_residual,
            "l2_residual": self.l2_residual,
            "quad_norm": self.quad_norm,
        })


def _profile(g: WeightedGraph, u, beta: float, potential, order: float, reach: int,
             tol) -> SpaceTimeFunction:
    """F(., l) = (l+1)^beta P^l u for every l >= 0: the levels up to
    default_l_max(g) stored, and past them the closed-form tail
    (`ProfileTail`) of the potential, u = Delta^order potential, with its
    reach and tol."""
    L = default_l_max(g)
    values = heat_sweep(g, u, range(L + 1))
    values *= [(l + 1.0) ** beta for l in range(L + 1)]
    return SpaceTimeFunction(g, values, ProfileTail(g, potential, order, beta, L, reach, tol))


def heat_profile(g: WeightedGraph, f, beta: float, *, reach=0, tol=None) -> SpaceTimeFunction:
    """F(., l) = [(l+1) Delta]^beta P^l f for every l >= 0 (`_profile`),
    generated by u = Delta^beta f, the tail held by f; reach and tol are
    those of the tail (`ProfileTail`)."""
    return _profile(g, delta_power_apply(g, f, beta), beta, f, beta, reach, tol)


def pipeline_l_max(g: WeightedGraph, eta: int, tol: float, ref_norm: float) -> int:
    """The horizon at which a truncated profile's reproducing sum meets
    tol / 2 for an input of norm ref_norm, at least default_l_max(g):
    how many levels a profile without its closed-form tail needs.  It is
    read from the closed form of the sum's error at lambda_star
    (`reproducing_l_max`), so any aperiodic graph has one.  The pipeline
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
    refused, then a non-finite target raises ValueError and a zero
    target returns before the geometry is built.
    The profile stores the levels up to default_l_max(g) = diam^2 + 1 and
    holds the rest as its closed-form tail, which joins the whole-graph
    atom, so the reproducing sum is not truncated; the tent partition is
    exact, so the L^2 residual lands below tol (NonConvergent otherwise).
    The tail's shares of the molecules are held to horizon_tol / 2, the
    part of the residual a truncated profile's horizon left, and the
    whole-graph atom's radius, and so its molecule's scale s = r^2,
    covers the tail's levels up to its reach, `pipeline_l_max` at
    horizon_tol: the level by which the reproducing sum has converged to
    horizon_tol / 2."""
    spectrum(g)
    norm = lp_norm(g, _level(g, kind, target), 2)
    if not math.isfinite(norm):
        raise ValueError(f"the target must be finite, not of norm {norm}")
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


def _require_orders(M: int, beta: float, eps: float, tol: float):
    """ValueError unless M >= 1, beta is finite, and eps and tol are finite > 0."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, not {beta!r}")
    _require_positive("eps", eps)
    _require_positive("tol", tol)


def molecular_decompose(g: WeightedGraph, f, M: int, beta: float, eps: float,
                        tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of a mean-zero f in L^2 from its heat
    profile, whose Lusin weight F(., l)^2 / (l+1) is that of f, so
    quad_norm is ||L_beta f||_1.  M >= 1, a finite beta, and a finite
    eps > 0 and tol > 0, or ValueError at once."""
    _require_orders(M, beta, eps, tol)
    f = require_mean_zero(g, f)
    return _decompose(g, "bz2", f,
                      lambda reach, tail_tol: heat_profile(g, f, beta, reach=reach, tol=tail_tol),
                      M, beta, eps, tol, tol)


def form_molecular_decompose(g: WeightedGraph, F: EdgeFunction, M: int,
                             eps: float, tol=1e-8) -> MolecularDecomposition:
    """Molecular representation of an exact 1-form F from the profile
    sqrt(l+1) P^l w, w = d*F, whose Lusin weight |P^l w|^2 is that of
    Delta^{-1/2} w at beta = 1/2; d is L^2-bounded by sqrt(2), so the
    reach of the tail (`_decompose`) keeps that margin.  F is exact when
    it lies within tol (relative, at least absolute) of its projection
    d h onto the exact forms, NotExactForm otherwise; the potential
    h = Delta^{-1} w of that check is the one the profile's tail holds
    (`_profile`'s), solved once.  M >= 1, and a finite eps > 0 and
    tol > 0, or ValueError at once; so is a form whose norm is not
    finite, before the exactness test."""
    _require_orders(M, 0.5, eps, tol)
    norm = lp_norm_forms(g, F, 2)
    if not math.isfinite(norm):
        raise ValueError(f"the form must be finite, not of norm {norm}")
    w = divergence(g, F)
    h = delta_power_apply(g, w, -1.0)
    gap = lp_norm_forms(g, differential(g, h) - F, 2)
    if not gap <= tol * max(1.0, norm):
        raise NotExactForm("input form is not a differential")
    return _decompose(g, "form", F.data,
                      lambda reach, tail_tol: _profile(g, w, 0.5, h, 1.0, reach, tail_tol),
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
        return json.dumps(vars(self), default=vars)


TUPLE_EXHAUSTIVE_CAP = 4096


def bmo_norm(g: WeightedGraph, f, kind: str, M: int, s_max: int,
             seed=0) -> BmoReport:
    """sup over times s <= s_max and balls of radius ceil(sqrt(s)) of
    the normalized local L^2 mass of A_s f.

    bz1 tuples are enumerated exhaustively while
    s^M <= TUPLE_EXHAUSTIVE_CAP, otherwise the endpoint tuples plus 32
    seeded samples are used.  The report's enumeration_policy names the
    scales each enumeration took, as "exhaustive s<=16" or "exhaustive
    s<=5+sampled 6<=s<=9 (lower bound)": a sampled sup only bounds the
    sup over its scales from below, and no scale past s_max is read.
    The sup is taken ball by ball: one sparse ball matrix per radius r,
    grown from the last (`ball_matrices`, `dist` never read), serves the
    candidates of every s with ceil(sqrt(s)) = r, the bz2 columns of one
    sweep or the bz1 tuples from one P^k f table.  Each candidate is
    kept once, at the first s that has it (a repeat has the same value,
    so it could not win), and their local masses are taken in order of
    s on blocks of at most ROW_BLOCK_ENTRIES // n columns (`row_blocks`);
    the first strict maximum wins, as in a walk over s.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if kind not in ("bz1", "bz2"):
        raise ValueError("kind must be 'bz1' or 'bz2'")
    f = np.asarray(f, dtype=float)
    best = (-1.0, None)
    scales = {}  # the s of each enumeration, exhaustive ones first
    if kind == "bz1":
        PK = heat_sweep(g, f, range(2 * s_max * M + 1))
    else:
        A = bz2_apply(g, f, range(1, s_max + 1), M)
    rng = np.random.default_rng(seed)
    for r, B in enumerate(ball_matrices(g, math.ceil(math.sqrt(s_max))), start=1):
        vols = B @ g.m
        first = {}  # candidate (s for bz2, a tuple for bz1) -> its first s
        for s in range((r - 1) ** 2 + 1, min(r * r, s_max) + 1):
            policy = "exhaustive"
            if kind == "bz2":
                candidates = [s]
            elif s ** M <= TUPLE_EXHAUSTIVE_CAP:
                candidates = itertools.product(range(s, 2 * s + 1), repeat=M)
            else:
                corner = list(itertools.product((s, 2 * s), repeat=M))
                sampled = [tuple(rng.integers(s, 2 * s + 1, size=M))
                           for _ in range(32)]
                candidates = corner + sampled
                policy = "sampled"
            scales.setdefault(policy, []).append(s)
            for c in candidates:
                first.setdefault(c, s)
        for chunk in row_blocks(list(first), g.n):
            U = A[:, np.subtract(chunk, 1)] if kind == "bz2" else bz1_block(PK, chunk)
            local = (B @ (U * U * g.m[:, None])) / vols[:, None]
            xs = np.argmax(local, axis=0)
            vals = np.sqrt(local[xs, np.arange(len(chunk))])
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                times = [] if kind == "bz2" else list(chunk[j])
                best = (float(vals[j]), {"s": first[chunk[j]], "times": times,
                                         "center": int(xs[j]), "radius": r})
    return BmoReport(kind, M, *best, "+".join(
        f"{name} {f'{ss[0]}<=' if ss[0] > 1 else ''}s<={ss[-1]}"
        + (" (lower bound)" if name == "sampled" else "") for name, ss in scales.items()))


def duality_pairing(g: WeightedGraph, f, decomp: MolecularDecomposition) -> float:
    """<f, sum_i lambda_i a_i> with the m-weighted pairing, from one GEMV
    over the stacked molecules."""
    if not decomp.coefficients:
        return 0.0
    lam = np.array([lam for lam, _ in decomp.coefficients])
    A = np.column_stack([np.asarray(mol.a) for _, mol in decomp.coefficients])
    return inner(g, f, A @ lam)
