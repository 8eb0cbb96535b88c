"""Command-line entry point.

Subcommands: geometry, gaffney, quadnorm, decompose, bmo, riesz; each
prints one line of JSON unless `--format` or `--out` says otherwise.
Graphs are either edge-list/JSON files or zoo names like
`lazy_cycle_16`.  Exit codes: 1 validation failure, 2 usage error or I/O
trouble, 3 series non-convergence.
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
from .riesz import molecule_suite, riesz_h1_experiment


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
    """The times of `--s`: a range `a..b` as 12 geometrically spaced
    integers, or a comma list of integers; anything else raises
    ValueError quoting the option."""
    try:
        if ".." not in text:
            return [int(t) for t in text.split(",")]
        a, b = (int(t) for t in text.split(".."))
        if min(a, b) >= 1:
            return [int(v) for v in np.unique(np.round(np.geomspace(a, b, 12)).astype(int))]
    except ValueError:
        pass
    raise ValueError(f"--s {text!r}: expected a range a..b of integers 1 <= a, b, "
                     f"or a comma list of integers")


def _refuse(constant):
    raise ValueError(f"the result holds {constant}, not a finite number")


def _emit(args, name, payload_json, payload_csv=None, payload_svg=None):
    """The payload of `--format` written to `--out`/NAME.FORMAT, its path
    printed, or printed itself, ending in one newline, without `--out`;
    ValueError first if the JSON payload holds NaN or an infinity."""
    json.loads(payload_json, parse_constant=_refuse)
    data = {"json": payload_json, "csv": payload_csv, "svg": payload_svg}[args.format]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}.{args.format}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)
        print(path)
    else:
        print(data, end="" if data.endswith("\n") else "\n")


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
    _emit(args, "quadnorm", json.dumps({"quad_norm": value}))
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
        k = min(args.n, g.n)
        suite = molecule_suite(g, centers=[i * g.n // k for i in range(k)])
    else:
        rng = np.random.default_rng(args.seed)
        suite = [(f"random{i}", operators.random_mean_zero(g, rng))
                 for i in range(args.n)]
    rep = riesz_h1_experiment(g, suite, l_max=args.lmax)
    _emit(args, "riesz", rep.to_json(), rep.to_csv())
    return 0


# The global options that only some subcommands read: (readers, default).
# Given to any other subcommand, one is refused, not dropped.
SCOPED_OPTIONS = {
    "lmax": (("quadnorm", "riesz"), None),
    "tol": (("decompose",), 1e-8),
    "seed": (("bmo", "riesz"), 0),
}


def build_parser():
    p = argparse.ArgumentParser(prog="graphhardy",
                                description="Hardy-space experiments on graphs")
    p.add_argument("--lmax", type=int, default=argparse.SUPPRESS,
                   help="cone horizon (quadnorm, riesz)")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="reconstruction tolerance (decompose; default 1e-8)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="random seed (bmo, riesz; default 0)")
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
    sp.set_defaults(fn=cmd_gaffney, formats=("json", "csv", "svg"))

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
    sp.set_defaults(fn=cmd_riesz, formats=("json", "csv"))
    return p


def parse_args(argv=None):
    """The parsed command line; a SCOPED_OPTIONS option given to a
    subcommand that does not read it, or a `--format` it does not write
    (gaffney writes csv and svg, riesz csv, every subcommand json), or a
    riesz `--n` below 1, is a usage error (exit 2).  A `--E` or `--F`
    value that starts with one minus (a coordinate such as `-1,3`, which
    argparse would take for an option) is joined to its option as
    `--E=-1,3` is, so `_parse_vertices` names it."""
    parser = build_parser()
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--E", "--F") and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = parser.parse_args(joined)
    for name, (readers, default) in SCOPED_OPTIONS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
        elif args.command not in readers:
            parser.error(f"--{name} is not read by {args.command} "
                         f"(only by {', '.join(readers)})")
    if getattr(args, "n", 1) < 1:
        parser.error(f"--n {args.n}: expected an integer >= 1")
    formats = getattr(args, "formats", ("json",))
    if args.format not in formats:
        parser.error(f"--format {args.format} is not written by {args.command} "
                     f"(it writes {', '.join(formats)})")
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
