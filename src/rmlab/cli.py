"""Command-line driver: reproducible experiments with JSON reports.

Every report embeds the full configuration and the library version; with a
fixed configuration the output bytes are identical across reruns.  Exit
codes: 0 success, 1 mathematical failure (a domain error from the library),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bttree import CochainPatch, INFINITY, check_harmonic, vdp_residue
from .cocycles import ChainSquare, d1_value, dv_value, theorem_b_chain_check
from .errors import RmlabError
from .evaluate import antisym_experiment
from .exact import QuadIrr, is_prime
from .hecke import coset_reps_Tn
from .hyperbolic import GSegment, HPoint, ez_cross, winding_oracle
from .mat2 import mat
from .modsym import (
    build_space,
    dimension_formula,
    generating_series_check,
    m2_basis_qexp,
)
from .rmpoints import QForm, automorph


def _fraction(text: str) -> Fraction:
    """A Fraction argument; a zero denominator is a usage error like any
    other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _fractions(text: str, shape: str) -> list[Fraction]:
    """The comma-separated Fraction entries of an argument of the given
    shape, e.g. 'a,b,c,d'."""
    parts = [_fraction(t) for t in text.split(",")]
    if len(parts) != shape.count(",") + 1:
        raise ValueError(f"expected '{shape}'")
    return parts


def _parse_mat(text: str):
    return mat(*_fractions(text, "a,b,c,d"))


def _parse_point(text: str) -> HPoint:
    return HPoint(*_fractions(text, "x,y"))


def _parse_segment(text: str) -> GSegment:
    x0, y0, x1, y1 = _fractions(text, "x0,y0,x1,y1")
    return GSegment(HPoint(x0, y0), HPoint(x1, y1))


def quadirr_text(q: QuadIrr) -> str:
    return f"{q.a} + {q.b}*sqrt({q.D})"


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise UsageError(f"p not prime: {p}")
    return p


# the least value each integer option accepts, in every subcommand having it
_MINIMUM = {"level": 1, "levels": 0, "prec": 1, "radius": 0}


def _check_ranges(args) -> None:
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise UsageError(f"--{name} must be at least {low}: {value}")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors (an unknown option, a missing
    argument, a malformed integer) are usage errors reported like every
    other; its subparsers are of the same class."""

    def error(self, message):
        raise UsageError(message)


def cmd_automorph(args) -> dict:
    f = QForm.parse(args.form)
    a = automorph(f, _check_prime(args.p))
    return {
        "form": f.to_json(),
        "gamma": [[str(e) for e in row] for row in a.gamma],
        "eps": quadirr_text(a.eps),
    }


def cmd_dv(args) -> dict:
    f = QForm.parse(args.form)
    div = dv_value(f, _parse_mat(args.gamma), _parse_point(args.x0),
                   _check_prime(args.p), args.levels)
    return {"divisor": div.to_json()}


def cmd_d1(args) -> dict:
    chain = ChainSquare(_parse_segment(args.seg1), _parse_segment(args.seg2))
    div = d1_value(chain, _check_prime(args.p), args.radius)
    return {"divisor": div.to_json()}


def cmd_intersect(args) -> dict:
    s1 = _parse_segment(args.seg1)
    s2 = _parse_segment(args.seg2)
    g = _parse_mat(args.g)
    value = ez_cross(s1, s2, g)
    out = {"ez_cross": value}
    if args.oracle:
        out["winding_oracle"] = winding_oracle(s1, s2, g)
    return out


def cmd_hecke_cosets(args) -> dict:
    reps = coset_reps_Tn(args.n, _check_prime(args.p))
    return {"cosets": reps.to_json()}


def cmd_theorem_b(args) -> dict:
    f = QForm.parse(args.form)
    rep = theorem_b_chain_check(_parse_segment(args.delta), args.n0, args.n1,
                                f, _check_prime(args.p), args.levels)
    return {"theorem_b": rep}


def cmd_antisym(args) -> dict:
    rep = antisym_experiment(QForm.parse(args.f1), QForm.parse(args.f2),
                             _check_prime(args.p), args.prec,
                             levels=args.levels, radius=args.radius)
    return {"antisym": rep}


def cmd_residues(args) -> dict:
    p = _check_prime(args.p)
    a = INFINITY if args.a == "inf" else _fraction(args.a)
    b = INFINITY if args.b == "inf" else _fraction(args.b)

    def fn(e):
        return vdp_residue([(a, 1), (b, -1)], e, p)

    patch = CochainPatch.from_function(p, args.radius, fn)
    edges = sorted(
        ((f"{e.source.k},{e.source.u}", f"{e.target.k},{e.target.u}", v)
         for e, v in patch.values.items()),
    )
    return {
        "harmonic": check_harmonic(patch),
        "edges": [list(e) for e in edges],
        "dot": patch.to_dot(),
    }


def cmd_modform(args) -> dict:
    n = args.level
    g, c, dim_m2 = dimension_formula(n)
    if args.nterms < dim_m2:  # dim_m2 forms are independent on >= dim_m2 terms only
        raise UsageError(f"--nterms must be at least dim M2 = {dim_m2}: {args.nterms}")
    basis = build_space(n)
    qs = m2_basis_qexp(n, basis, args.nterms)
    series = []
    for i in range(basis.dim):
        u = [Fraction(int(j == i)) for j in range(basis.dim)]
        res = generating_series_check(u, n, basis, args.nterms)
        series.append([str(x) for x in res["constant_term"]])
    return {
        "level": n,
        "genus": g,
        "cusps": c,
        "dim_m2": dim_m2,
        "basis_qexpansions": [[str(a) for a in q] for q in qs],
        "constant_terms_per_basis_vector": series,
    }


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rmlab", description=__doc__)
    ap.add_argument("--json", help="write the report to this path")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("automorph")
    s.add_argument("--form", required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(fn=cmd_automorph)

    s = sub.add_parser("dv")
    s.add_argument("--form", required=True)
    s.add_argument("--gamma", required=True)
    s.add_argument("--x0", default="1/5,1/5")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--levels", type=int, default=1)
    s.set_defaults(fn=cmd_dv)

    s = sub.add_parser("d1")
    s.add_argument("--seg1", required=True)
    s.add_argument("--seg2", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--radius", type=int, default=1)
    s.set_defaults(fn=cmd_d1)

    s = sub.add_parser("intersect")
    s.add_argument("--seg1", required=True)
    s.add_argument("--seg2", required=True)
    s.add_argument("--g", default="1,0,0,1")
    s.add_argument("--oracle", action="store_true")
    s.set_defaults(fn=cmd_intersect)

    s = sub.add_parser("hecke-cosets")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(fn=cmd_hecke_cosets)

    s = sub.add_parser("theorem-b")
    s.add_argument("--form", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n0", type=int, required=True)
    s.add_argument("--n1", type=int, required=True)
    s.add_argument("--delta", default="1/2,1/3,1/2,3")
    s.add_argument("--levels", type=int, default=1)
    s.set_defaults(fn=cmd_theorem_b)

    s = sub.add_parser("antisym")
    s.add_argument("--f1", required=True)
    s.add_argument("--f2", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--prec", type=int, default=12)
    s.add_argument("--levels", type=int, default=3)
    s.add_argument("--radius", type=int, default=5)
    s.set_defaults(fn=cmd_antisym)

    s = sub.add_parser("residues")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--radius", type=int, default=3)
    s.set_defaults(fn=cmd_residues)

    s = sub.add_parser("modform")
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--nterms", type=int, default=30)
    s.set_defaults(fn=cmd_modform)
    return ap


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("fn",) and v is not None}
        _check_ranges(args)
        body = args.fn(args)
        report = {
            "version": __version__,
            "config": config,
            **body,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # --help has printed its text
        return 2 if exc.code else 0
    except (UsageError, ValueError) as exc:
        sys.stdout.write(json.dumps(
            {"error": {"kind": "usage", "message": str(exc)}},
            indent=2, sort_keys=True) + "\n")
        return 2
    except RmlabError as exc:
        sys.stdout.write(json.dumps(
            {"error": {"kind": type(exc).__name__, "message": str(exc)}},
            indent=2, sort_keys=True) + "\n")
        return 1


def main() -> None:  # pragma: no cover - console entry point
    raise SystemExit(run())
