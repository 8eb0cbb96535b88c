"""Command-line entry point.

Subcommands: geometry, gaffney, quadnorm, decompose, bmo, riesz,
selftest.  Graphs are either edge-list/JSON files or zoo names like
`lazy_cycle_16`.  Exit codes: 1 validation failure, 2 I/O trouble,
3 series non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import calculus, graphs, hardy, operators, quadratic, zoo
from .errors import GraphHardyError, NonConvergent
from .riesz import (
    gradient_matches_fiber_norms,
    molecule_suite,
    riesz as riesz_transform,
    riesz_h1_experiment,
)


def _resolve_graph(name: str) -> graphs.WeightedGraph:
    if os.path.exists(name):
        return graphs.read_graph(name)
    return zoo.by_name(name)


def _parse_vertices(text: str, g: graphs.WeightedGraph):
    """Vertex indices from `;`-separated parts: `5` is a vertex label, as
    in graph files and `--f` CSVs, and `16,16` a coordinate in [0, side)
    on torus fixtures; any other part raises ValueError naming it."""
    label_index = g.label_index
    side = g.meta["n"] if g.meta.get("kind") == "lazy_torus_2d" else 0
    out = []
    for part in (p.strip() for p in text.split(";")):
        try:
            numbers = [int(t) for t in part.split(",")]
        except ValueError:
            raise ValueError(f"vertex {part!r} is not an integer label or coordinate") from None
        if len(numbers) == 1 and numbers[0] in label_index:
            out.append(label_index[numbers[0]])
        elif len(numbers) == 2 and all(0 <= c < side for c in numbers):
            out.append(numbers[0] * side + numbers[1])
        else:
            raise ValueError(f"vertex {part!r} is no vertex label" if len(numbers) == 1 else
                             f"coordinate {part!r} is not two integers in [0, {side}) on a torus")
    return out


def _parse_s_range(text: str):
    if ".." in text:
        a, b = (int(t) for t in text.split(".."))
        vals = np.unique(np.round(np.geomspace(a, b, 12)).astype(int))
        return [int(v) for v in vals]
    return [int(t) for t in text.split(",")]


def _emit(args, name, payload_json, payload_csv=None, payload_svg=None):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        ext = args.format
        data = {"json": payload_json, "csv": payload_csv, "svg": payload_svg}[ext]
        if data is None:
            data = payload_json
            ext = "json"
        path = os.path.join(args.out, f"{name}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
        print(path)
    else:
        print(payload_json)


def _svg_curve(xs, ys, title):
    """Minimal hand-emitted polyline chart (log10 of positive ys)."""
    W, H, pad = 480, 320, 40
    pts = [(x, math.log10(y)) for x, y in zip(xs, ys) if y > 0]
    if not pts:
        pts = [(0.0, 0.0)]
    x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
    y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / dx * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - y0) / dy * (H - 2 * pad)

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>'
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>'
        f'<text x="{W // 2}" y="20" text-anchor="middle">{title}</text>'
        f'<text x="{W // 2}" y="{H - 8}" text-anchor="middle">s</text>'
        f'<text x="12" y="{H // 2}" transform="rotate(-90 12 {H // 2})">log10 ratio</text>'
        "</svg>"
    )


# -- subcommands ---------------------------------------------------------

def cmd_geometry(args):
    g = _resolve_graph(args.graph)
    rep = graphs.geometry_report(g)
    _emit(args, "geometry", rep.to_json())
    return 0


def cmd_gaffney(args):
    g = _resolve_graph(args.graph)
    E = _parse_vertices(args.E, g)
    F = _parse_vertices(args.F, g)
    fit = calculus.gaffney_fit(g, args.family, E, F, _parse_s_range(args.s),
                               M=args.M)
    csv_lines = ["s,ratio"]
    csv_lines += [f"{float(s)!r},{float(r)!r}" for s, r in zip(fit.s_values, fit.ratios)]
    svg = _svg_curve(fit.s_values, fit.ratios,
                     f"{args.family} decay, d(E,F) = {fit.d_EF:g}")
    _emit(args, "gaffney", fit.to_json(), "\n".join(csv_lines) + "\n", svg)
    return 0


def cmd_quadnorm(args):
    g = _resolve_graph(args.graph)
    f = operators.load_vertex_csv(g, args.f)
    value = quadratic.quad_norm(g, f, args.beta, args.lmax)
    if args.out:
        _emit(args, "quadnorm", json.dumps({"quad_norm": value}))
    else:
        print(value)
    return 0


def cmd_decompose(args):
    g = _resolve_graph(args.graph)
    f = operators.load_vertex_csv(g, args.f)
    f = operators.mean_project(g, f)
    dec = hardy.molecular_decompose(g, f, args.M, args.beta, args.eps,
                                    tol=args.tol)
    _emit(args, "decompose", dec.to_json())
    return 0


def cmd_bmo(args):
    g = _resolve_graph(args.graph)
    f = operators.load_vertex_csv(g, args.f)
    rep = hardy.bmo_norm(g, f, args.kind, args.M, args.smax, seed=args.seed)
    _emit(args, "bmo", rep.to_json())
    return 0


def cmd_riesz(args):
    g = _resolve_graph(args.graph)
    if args.suite == "molecules":
        suite = molecule_suite(g, centers=range(0, g.n, max(1, g.n // args.n)))
    else:
        rng = np.random.default_rng(args.seed)
        suite = [(f"random{i}", operators.random_mean_zero(g, rng))
                 for i in range(args.n)]
    rep = riesz_h1_experiment(g, suite, l_max=args.lmax)
    _emit(args, "riesz", rep.to_json(), rep.to_csv())
    return 0


def _check(name, fn):
    try:
        fn()
        print(f"[PASS] {name}")
        return True
    except Exception as exc:  # noqa: BLE001 - report and count any failure
        print(f"[FAIL] {name}: {exc}")
        return False


def cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    ok = True

    def kernel_laws():
        for g in (zoo.k2l(), zoo.lazy_cycle(16), zoo.lazy_torus_2d(8)):
            K8 = operators.kernel(g, 8)
            M = K8.matrix
            assert abs(M - M.T).max() < 1e-12
            assert M.toarray().min() >= -1e-15
            assert np.abs(K8.row_mass() - 1.0).max() < 1e-12
            K3, K5 = operators.kernel(g, 3), operators.kernel(g, 5)
            comp = operators.kernel_compose(K3, K5)
            assert abs(comp.matrix - M).max() < 1e-12

    def operator_identities():
        g = zoo.lazy_cycle(16)
        f = rng.standard_normal(g.n)
        lap = operators.laplacian(g, f)
        ddf = operators.divergence(g, operators.differential(g, f))
        assert np.abs(lap - ddf).max() < 1e-12
        e1 = operators.lp_norm(g, operators.gradient(g, f), 2) ** 2
        e2 = operators.inner(g, lap, f)
        assert abs(e1 - e2) < 1e-9
        assert gradient_matches_fiber_norms(g, f) < 1e-12

    def series_vs_oracle():
        # Delta^{1/2}, Delta^{-1/2} (the Riesz transform's) and a
        # resolvent sweep
        g = zoo.lazy_cycle(16)
        f = operators.random_mean_zero(g, rng)
        for beta in (0.5, -0.5):
            exact = calculus.delta_power_apply(g, f, beta)
            approx = calculus.delta_power_series(g, beta, 1e-10).apply(f)
            assert operators.lp_norm(g, exact - approx, 2) < 1e-9
        scales = [1, 4, 16, 64]
        exact = calculus.resolvent_apply(g, f, scales)
        for j, s in enumerate(scales):
            approx = calculus.resolvent_frac_series(g, s, 1.0, 1e-10).apply(f)
            assert operators.lp_norm(g, exact[:, j] - approx, 2) < 1e-9

    def k2l_values():
        g = zoo.k2l()
        f0 = np.array([1.0, -1.0])
        L = quadratic.lusin(g, f0, 1.0, 8)
        assert np.abs(L - 1.0).max() < 1e-12
        assert abs(operators.lp_norm(g, L, 1) - 4.0) < 1e-12
        res = riesz_transform(g, f0)
        assert abs(res.norm_l2_output - 2.0) < 1e-12

    def coverings():
        for g in (zoo.k2l(), zoo.lazy_cycle(16), zoo.lazy_path(9)):
            b = graphs.ball(g, 0, max(1, g.diameter // 4))
            fam = graphs.vitali_cover(g, b, 4.0)
            taken = np.zeros(g.n, dtype=bool)
            for B in fam:
                assert not np.any(taken & B.mask)
                taken |= B.mask
            target = b.scaled(4.0).mask
            covered = np.zeros(g.n, dtype=bool)
            for B in fam:
                covered |= g.dist[B.center] < 3 * B.radius
            assert np.all(covered[target])

    def round_trip(form=False):
        g = zoo.lazy_cycle(16)
        f = operators.random_mean_zero(g, rng)
        if form:
            dec = hardy.form_molecular_decompose(g, operators.differential(g, f), 1, 1.0,
                                                 tol=1e-8)
        else:
            dec = hardy.molecular_decompose(g, f, 1, 1.0, 1.0, tol=1e-8)
        assert dec.l2_residual <= 1e-8
        for lam, mol in dec.coefficients:
            hardy.validate_molecule(mol)

    ok &= _check("kernel laws (symmetry, mass, semigroup)", kernel_laws)
    ok &= _check("operator identities (d*d, energy, fibers)", operator_identities)
    ok &= _check("series agrees with spectral oracle", series_vs_oracle)
    ok &= _check("two-point analytic values", k2l_values)
    ok &= _check("covering algorithms", coverings)
    ok &= _check("molecular round trip", round_trip)
    ok &= _check("form molecular round trip", lambda: round_trip(form=True))
    return 0 if ok else 1


# The global options that only some subcommands read: (readers, default).
# Given to any other subcommand, one is refused, not dropped.
SCOPED_OPTIONS = {
    "lmax": (("quadnorm", "riesz"), None),
    "tol": (("decompose",), 1e-8),
    "seed": (("bmo", "riesz", "selftest"), 0),
}


def build_parser():
    p = argparse.ArgumentParser(prog="graphhardy",
                                description="Hardy-space experiments on graphs")
    p.add_argument("--lmax", type=int, default=argparse.SUPPRESS,
                   help="cone horizon (quadnorm, riesz)")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="reconstruction tolerance (decompose; default 1e-8)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="random seed (bmo, riesz, selftest; default 0)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("geometry")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_geometry)

    sp = sub.add_parser("gaffney")
    sp.add_argument("graph")
    sp.add_argument("--family", default="heat", choices=sorted(calculus.FAMILIES))
    sp.add_argument("--E", required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--s", default="1..64")
    sp.add_argument("--M", type=int, default=1)
    sp.set_defaults(fn=cmd_gaffney)

    sp = sub.add_parser("quadnorm")
    sp.add_argument("graph")
    sp.add_argument("--f", required=True)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.set_defaults(fn=cmd_quadnorm)

    sp = sub.add_parser("decompose")
    sp.add_argument("graph")
    sp.add_argument("--f", required=True)
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=1.0)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("bmo")
    sp.add_argument("graph")
    sp.add_argument("--f", required=True)
    sp.add_argument("--kind", choices=("bz1", "bz2"), default="bz1")
    sp.add_argument("--M", type=int, default=1)
    sp.add_argument("--smax", type=int, default=16)
    sp.set_defaults(fn=cmd_bmo)

    sp = sub.add_parser("riesz")
    sp.add_argument("graph")
    sp.add_argument("--suite", choices=("molecules", "random"), default="molecules")
    sp.add_argument("--n", type=int, default=8)
    sp.set_defaults(fn=cmd_riesz)

    sp = sub.add_parser("selftest")
    sp.set_defaults(fn=cmd_selftest)
    return p


def parse_args(argv=None):
    """The parsed command line; a SCOPED_OPTIONS option given to a
    subcommand that does not read it is a usage error (exit 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, (readers, default) in SCOPED_OPTIONS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
        elif args.command not in readers:
            parser.error(f"--{name} is not read by {args.command} "
                         f"(only by {', '.join(readers)})")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except NonConvergent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphHardyError, ValueError, KeyError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
