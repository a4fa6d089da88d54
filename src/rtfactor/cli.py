"""Command-line front end.

Each subcommand parses its inputs with the owning module's readers,
computes exactly (floating point only for the curve integrals), and
renders the result as plain text or as JSON whose string fields use the
same canonical renderings the parsers accept, so values can be piped
back in without loss.

Exit codes: 0 on success, 1 on a domain error (bad input data, an
impossible request, a failed identity or acceptance run), 2 on a usage
error (unknown flags, malformed flag values, contradictory options).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .ce import (ce_complex, cohomology_dims, cs_deformation_cohomology,
                 defect_deformation_cohomology, module_from_representation,
                 trivial_module)
from .clifford import partition_function_identity
from .diagram import link_from_json, pd_from_sliced, resolve_link, writhe
from .errors import ParseError, RTFactorError, UnknownName, check_size
from .kauffman import jones_polynomial, kauffman_bracket
from .lie import (InvariantPairing, LieAlgebra, Representation,
                  algebra_from_json, builtin, killing_form)
from .quantum_group import quantum_dimension, sln_fundamental_ribbon
from .ring import (MAX_SERIES_ORDER, format_hseries, format_laurent,
                   parse_laurent)
from .rt import (framed_invariant, hbar_expand_invariant, jones_from_quantum,
                 writhe_corrected_invariant)
from .weights import (BicoloredGraph, _plan, coupled_weight, graph_from_json,
                      lie_weight, symmetry_factor)

_DEFAULT_SAMPLES = 512
_DEFAULT_EPSILON = 0.1


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_link(spec: str):
    """Catalog name or alias, braid string, inline JSON, or file."""
    try:
        return resolve_link(spec)
    except UnknownName:
        if os.path.isfile(spec.strip()):
            return link_from_json(_read_text(spec.strip()))
        raise


def _load_algebra(spec: str) -> tuple[LieAlgebra, Representation | None]:
    """Builtin name, inline JSON, or a path to a JSON structure-constant file."""
    s = spec.strip()
    if s.startswith("{"):
        return algebra_from_json(s), None
    if os.path.isfile(s):
        return algebra_from_json(_read_text(s)), None
    return builtin(s)


def _resolve_rep(spec: str, g: LieAlgebra) -> Representation:
    """A representation named by a builtin, checked against the algebra."""
    other, rep = builtin(spec.strip())
    if rep is None:
        raise UnknownName(
            f"{spec!r} names an algebra without a distinguished representation")
    if other.brackets != g.brackets:
        raise UnknownName(
            f"representation {spec!r} belongs to a different algebra")
    return rep


def _load_curves(spec: str, samples: int):
    from .confint import (curves_from_json, hopf_pair, torus_knot,
                          twisted_circle, unit_circle)
    s = spec.strip()
    if s.startswith("{") or s.startswith("["):
        return curves_from_json(s)
    if os.path.isfile(s):
        return curves_from_json(_read_text(s))
    if s == "circle":
        return (unit_circle(samples),)
    if s == "hopf":
        return hopf_pair(samples)
    if s == "trefoil":
        return (torus_knot(samples),)
    if s.startswith("twisted:"):
        try:
            turns = int(s.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad turn count in {spec!r}") from None
        return (twisted_circle(samples, turns),)
    raise UnknownName(
        f"unknown curve source {spec!r} (not a file, JSON, or one of "
        "circle, hopf, trefoil, twisted:<turns>)")


# ---------------------------------------------------------------------------
# Flag value types (argparse turns failures here into usage errors)
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("order must be >= 0")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number")


def _fraction_csv(text: str) -> tuple:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of rationals")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _nine(value: float) -> str:
    """Curve integrals print with nine significant digits."""
    return f"{float(value):.9g}"


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_invariant(args) -> int:
    if args.expand is not None:
        check_size("series order", args.expand, MAX_SERIES_ORDER)  # pre-sweep
    tangle = _load_link(args.link).tangle()
    n = int(args.algebra[2:])
    if args.jones and n != 2:
        args.parser.error("--jones is the two-dimensional route; use --algebra sl2")
    rep = sln_fundamental_ribbon(n)
    normalize = args.normalize and not args.jones
    if args.jones:
        poly, var, unknot = jones_from_quantum(tangle), "t", None
    else:
        # Normalizing removes kink contributions before dividing by the
        # unknot value, so a knot's series starts 1 + 0*h + ...
        invariant = writhe_corrected_invariant if normalize else framed_invariant
        poly, var, unknot = invariant(tangle, rep), "q", quantum_dimension(rep)
    if args.expand is not None:
        series = hbar_expand_invariant(poly, args.expand, normalize=normalize,
                                       unknot_value=unknot)
        _emit(args, [format_hseries(series)],
              {"series": format_hseries(series), "variable": "h"})
        return 0
    if normalize:
        poly = poly.divide_exact(unknot)
    _emit(args, [format_laurent(poly, var)],
          {"invariant": format_laurent(poly, var), "variable": var})
    return 0


def _cmd_bracket(args) -> int:
    tangle = _load_link(args.link).tangle()
    poly = kauffman_bracket(pd_from_sliced(tangle))
    _emit(args, [format_laurent(poly, "A")],
          {"bracket": format_laurent(poly, "A"), "variable": "A"})
    return 0


def _cmd_jones(args) -> int:
    tangle = _load_link(args.link).tangle()
    poly = jones_polynomial(pd_from_sliced(tangle), writhe(tangle))
    _emit(args, [format_laurent(poly, "t")],
          {"jones": format_laurent(poly, "t"), "variable": "t"})
    return 0


def _cmd_expand(args) -> int:
    series = hbar_expand_invariant(
        parse_laurent(args.poly), args.order, normalize=args.normalize,
        unknot_value=quantum_dimension(sln_fundamental_ribbon(2)))
    _emit(args, [format_hseries(series)],
          {"series": format_hseries(series), "variable": "h"})
    return 0


def _coefficient_rep(args, g):
    value = args.coefficients.strip()
    if value == "trivial":
        return None
    if value.startswith("rep:"):
        return _resolve_rep(value[4:], g)
    args.parser.error("--coefficients must be 'trivial' or 'rep:<name>'")


def _cmd_cohomology(args) -> int:
    g, default_rep = _load_algebra(args.algebra)
    rep = _coefficient_rep(args, g)
    if args.deformation == "cs":
        if rep is not None:
            args.parser.error("the bulk deformation complex uses trivial coefficients")
        h3, h4 = cs_deformation_cohomology(g)
        _emit(args, [f"H3={h3} H4={h4}"], {"H3": h3, "H4": h4})
        return 0
    if args.deformation in ("defect", "defect-boundary"):
        if rep is None:
            rep = default_rep
        if rep is None:
            raise UnknownName("the defect complex needs a representation; "
                              "pass --coefficients rep:<name>")
        h1, h2 = defect_deformation_cohomology(
            g, rep, boundary=args.deformation == "defect-boundary")
        _emit(args, [f"H1={h1} H2={h2}"], {"H1": h1, "H2": h2})
        return 0
    module = trivial_module(g) if rep is None else module_from_representation(g, rep)
    dims = cohomology_dims(ce_complex(g, module))
    _emit(args, [" ".join(f"H{i}={d}" for i, d in enumerate(dims))],
          {"betti": list(dims)})
    return 0


def _cmd_character(args) -> int:
    g, _ = _load_algebra(args.algebra)
    rep = _resolve_rep(args.rep, g)
    result = partition_function_identity(g, rep, args.element, args.order)
    verdict = "holds" if result.holds else "FAILS"
    _emit(args,
          [f"lhs = {format_hseries(result.lhs, 't')}",
           f"rhs = {format_hseries(result.rhs, 't')}",
           f"hbar_power = {result.hbar_power}",
           f"identity {verdict}"],
          {"lhs": format_hseries(result.lhs, "t"),
           "rhs": format_hseries(result.rhs, "t"),
           "variable": "t",
           "hbar_power": result.hbar_power,
           "holds": result.holds})
    return 0 if result.holds else 1


def _cmd_weights(args) -> int:
    graph = graph_from_json(_read_text(args.graph)
                            if os.path.isfile(args.graph) else args.graph)
    g, default_rep = _load_algebra(args.algebra)
    scale = args.pairing_scale
    form = tuple(tuple(scale * x for x in row) for row in killing_form(g))
    pairing = InvariantPairing((form,))
    if isinstance(graph, BicoloredGraph):
        rep = _resolve_rep(args.rep, g) if args.rep else default_rep
        if rep is None:
            raise UnknownName("a bicolored graph needs a representation; "
                              "pass --rep <name>")
        weight = coupled_weight(graph, g, rep, pairing)
        _emit(args, [f"weight = {weight}"], {"weight": str(weight)})
        return 0
    # The contraction's guards, then the symmetry factor's, refuse first.
    _plan(graph, g.dim)
    sym = symmetry_factor(graph)
    weight = lie_weight(graph, g, pairing)
    _emit(args, [f"weight = {weight}", f"symmetry_factor = {sym}"],
          {"weight": str(weight), "symmetry_factor": sym})
    return 0


def _cmd_linking(args) -> int:
    from .confint import (framed_self_linking, framing_twist_turns,
                          gauss_linking, writhe_integral)
    if args.epsilon <= 0:
        args.parser.error("--epsilon must be positive")
    curves = _load_curves(args.curves, args.samples)
    if len(curves) == 2:
        value = gauss_linking(*curves)
        _emit(args, [f"linking = {_nine(value)}"],
              {"linking": float(_nine(value))})
        return 0
    if len(curves) != 1:
        raise ParseError(f"expected one or two curves, got {len(curves)}")
    curve = curves[0]
    wr = writhe_integral(curve)
    if curve.framing is None:
        _emit(args, [f"writhe = {_nine(wr)}"], {"writhe": float(_nine(wr))})
        return 0
    sl = framed_self_linking(curve, args.epsilon)
    tw = framing_twist_turns(curve)
    _emit(args,
          [f"self_linking = {_nine(sl)}",
           f"writhe = {_nine(wr)}",
           f"twist_turns = {_nine(tw)}"],
          {"self_linking": float(_nine(sl)),
           "writhe": float(_nine(wr)),
           "twist_turns": float(_nine(tw))})
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import default_seed, run_all
    seed = default_seed() if args.seed is None else args.seed
    results = run_all(seed)
    passed = sum(1 for r in results if r.ok)
    if args.format == "json":
        print(json.dumps({"seed": seed,
                          "criteria": [{"index": r.index, "name": r.name,
                                        "ok": r.ok, "detail": r.detail,
                                        "elapsed_s": round(r.elapsed_s, 3)}
                                       for r in results]}, indent=2))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"criterion {r.index:2d} {status} [{r.name}] {r.detail} "
                  f"({r.elapsed_s:.2f} s)")
        print(f"{passed}/{len(results)} criteria passed (seed {seed})")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtfactor",
        description="Exact quantum link invariants and their classical shadows.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text",
                        help="output rendering (default text)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def register(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = register("invariant", _cmd_invariant,
                 "link invariant from the braiding route")
    p.add_argument("--link", required=True, metavar="FILE|NAME",
                   help="catalog name, braid string B<s>:..., JSON, or file")
    p.add_argument("--algebra", required=True, choices=["sl2", "sl3", "sl4"])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--framed", action="store_true",
                      help="framed invariant, sensitive to kinks")
    mode.add_argument("--jones", action="store_true",
                      help="Jones polynomial in t (sl2 only)")
    p.add_argument("--expand", type=_nonneg_int, metavar="N",
                   help="expand around q = exp(h), truncated past h^N")
    p.add_argument("--normalize", action="store_true",
                   help="remove kinks and divide by the unknot value")

    p = register("bracket", _cmd_bracket, "Kauffman bracket in A")
    p.add_argument("--link", required=True, metavar="FILE|NAME")

    p = register("jones", _cmd_jones, "Jones polynomial by skein resolution")
    p.add_argument("--link", required=True, metavar="FILE|NAME")

    p = register("expand", _cmd_expand,
                 "expand a Laurent polynomial around q = exp(h)")
    p.add_argument("--poly", required=True,
                   help="canonical rendering, e.g. '-q^{-1/2} + 2*q^{3/2}'")
    p.add_argument("--order", required=True, type=_nonneg_int)
    p.add_argument("--normalize", action="store_true",
                   help="divide by the two-dimensional unknot value")

    p = register("cohomology", _cmd_cohomology, "Lie algebra cohomology tables")
    p.add_argument("--algebra", required=True, metavar="SPEC",
                   help="builtin name, JSON, or structure-constant file")
    p.add_argument("--coefficients", default="trivial", metavar="trivial|rep:NAME")
    p.add_argument("--deformation", default="none",
                   choices=["none", "cs", "defect", "defect-boundary"])

    p = register("character", _cmd_character,
                 "partition-function identity for a Cartan-diagonal element")
    p.add_argument("--algebra", required=True, metavar="SPEC")
    p.add_argument("--rep", required=True, metavar="NAME")
    p.add_argument("--element", required=True, type=_fraction_csv,
                   help="coordinates, comma-separated rationals")
    p.add_argument("--order", required=True, type=_nonneg_int)

    p = register("weights", _cmd_weights, "graph weight for an algebra")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="graph JSON (file or inline)")
    p.add_argument("--algebra", required=True, metavar="SPEC")
    p.add_argument("--rep", metavar="NAME",
                   help="representation for bicolored graphs")
    p.add_argument("--pairing-scale", type=_fraction, default=Fraction(1),
                   metavar="NUM/DEN",
                   help="scalar multiple of the Killing form (default 1)")

    p = register("linking", _cmd_linking, "Gauss integrals for framed curves")
    p.add_argument("--curves", required=True, metavar="FILE|NAME",
                   help="curve JSON (file or inline), or circle, hopf, "
                        "trefoil, twisted:<turns>")
    p.add_argument("--samples", type=_nonneg_int, default=_DEFAULT_SAMPLES,
                   help=f"points per built-in curve (default {_DEFAULT_SAMPLES})")
    p.add_argument("--epsilon", type=float, default=_DEFAULT_EPSILON,
                   help=f"push-off distance (default {_DEFAULT_EPSILON})")

    p = register("verify", _cmd_verify, "run the acceptance suite")
    p.add_argument("--seed", type=int, default=None,
                   help="property-test seed (default RTFACTOR_SEED or 1729)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except RTFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
