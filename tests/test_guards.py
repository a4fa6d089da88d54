"""Every size guard, in one table.

Above its limit each guard raises DimensionTooLarge with the one message
form of ``errors.check_size``, before its costly step runs (the step is
monkeypatched to fail).  At its limit the input is admitted and finishes.
A lint test keeps ``check_size`` the only place the exception is raised,
and another keeps README's size-limit table in step with the constants.
"""

import ast
import importlib
import json
import random
import re
from fractions import Fraction
from itertools import count
from math import comb, factorial, isqrt, log10
from pathlib import Path

import numpy as np
import pytest

from rtfactor import (ce, cli, clifford, confint, diagram, kauffman, lie,
                      quantum_group, ring, rt, weights)
from rtfactor._linalg import row_mul_add
from rtfactor.diagram import LinkSpec, make_braid, pd_from_sliced
from rtfactor.errors import DimensionTooLarge
from rtfactor.lie import InvariantPairing, builtin
from rtfactor.quantum_group import (quantum_dimension, ribbon_twist,
                                    sln_fundamental_ribbon)

from test_lie import (LARGEST_ABELIAN, LARGEST_CARRIER, build_estimate,
                      build_message)
from test_weights import _killing_pairing, chord_diagram, disjoint_union

SRC = Path(__file__).resolve().parents[1] / "src" / "rtfactor"
README = SRC.parents[1] / "README.md"


def _message(what, size, limit):
    return f"{what} {size} exceeds the limit {limit}"


def _trivial_case(dim):
    g, _ = builtin(f"abelian({dim})")
    return g, ce.trivial_module(g)


def _identity_pairing(dim):
    return InvariantPairing((tuple(
        tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)),))


def _prism(sides):
    """Two ``sides``-gons joined rung by rung: 2 * sides vertices."""
    edges = [(3 * i + 2, 3 * (sides + i) + 2) for i in range(sides)]
    for base in (0, sides):
        edges += [(3 * (base + i), 3 * (base + (i + 1) % sides) + 1)
                  for i in range(sides)]
    return weights.make_jacobi_graph(
        [(3 * v, 3 * v + 1, 3 * v + 2) for v in range(2 * sides)], (), edges)


def _sl3_killing():
    g, _ = builtin("sl3")
    return g, InvariantPairing((tuple(map(tuple, lie.killing_form(g))),))


def _loop_weight(loops):
    """The weight of ``loops`` bare fermion loops: (-2)^loops at sl2."""
    g, rho = builtin("sl2")
    return weights.coupled_weight(weights.make_bicolored_graph(
        fermion_loops=loops), g, rho, _identity_pairing(3))


# the most loops whose factor (-2)^k has at most MAX_LOOP_DIGITS digits
_LOOPS = int(weights.MAX_LOOP_DIGITS / log10(2))


# one vertex with a loop and a leg
_LOOP_AND_LEG = weights.make_jacobi_graph([(0, 1, 2)], [3], [(0, 1), (2, 3)])


def _circle(samples):
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    return confint.make_param_curve(
        np.stack([np.cos(t), np.sin(t), np.zeros(samples)], axis=1))


def _kinked_unknot(kinks):
    return LinkSpec(make_braid(1, ()), kinks).tangle()


def _kinked_unknot_charge(kinks):
    """quantum_group.sweep's charge of the kinked unknot at sl2, fan times
    (terms + 8 per entry) for each slice.  The opening cup costs 2 (1 + 8);
    each curl's cup 2 (2 + 2 * 8), crossing 3 (4 + 4 * 8) and cap 6 + 5 * 8,
    190 in all; the closing cap 2 + 2 * 8.  In all 190k + 36."""
    return 190 * kinks + 36


def _closure_bound(strands, letters, kinks):
    """ENTRY_COST + 1 = 9 units for each of the 2s + letters + 3|kinks|
    slices of a closure: the least its sweep charges, and what its builder
    checks."""
    return 9 * (2 * strands + letters + 3 * kinks)


def _invariant(order):
    args = cli._build_parser().parse_args(
        ["invariant", "--link", "trefoil", "--algebra", "sl3", "--framed",
         "--expand", str(order)])
    return args.handler(args)


_PAIRS = confint.MAX_SEGMENT_PAIRS
# the longest bit length whose digit estimate is at the limit: 14284
_BITS = (ring.MAX_PRINTED_DIGITS * 100000 - 1) // 30103
_RT = quantum_group.MAX_SWEEP_COST
# the most kinks an sl2 unknot sweep admits: 52631, in about 2 s
_KINKS = (_RT - _kinked_unknot_charge(0)) // 190
# The bracket of the kinked unknot holds one state of one term and two open
# ends: 2 (1 + 8) for the first crossing, 2 (1 + 2 + 8) for each other, so
# 22k - 4 after k crossings.  The most it admits: 90909.
_BRACKET_KINKS = (kauffman.MAX_SWEEP_COST + 4) // 22
# the fewest crossings the PD trace refuses, at 18 each
_TRACED = kauffman.MAX_SWEEP_COST // 18 + 1

# sl2_irrep(9) at order 4: a 10-dim determinant over 10! permutations,
# multiplied up to 8!, where the estimate passes the limit
_CHARACTER_10 = ("character of a 10-dim representation at order 4, estimate",
                 factorial(8) * 10 * 5 ** 2, clifford.MAX_CHARACTER_COST)


def _dense_json(name, steps, seed):
    """The builtin algebra ``name`` as JSON in the basis reached by
    ``steps`` seeded operations e_i += s e_j: still a Lie algebra, with
    most of its structure constants nonzero."""
    g, _ = builtin(name)
    d, rng = g.dim, random.Random(seed)
    new = [{i: 1} for i in range(d)]  # new basis vectors, old coordinates
    old = [{i: 1} for i in range(d)]  # old basis vectors, new coordinates
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        row_mul_add(new[i], {j: s}, new)
        for row in old:  # e'_i = e''_i - s e''_j
            row[j] = row.get(j, 0) - s * row.get(i, 0)
    entries = []
    for i, x in enumerate(new):
        for j, y in enumerate(new):
            bracket = {}
            for a, u in x.items():
                for b, v in y.items():
                    for c, f in g.brackets[a][b].items():
                        row_mul_add(bracket, {c: u * v * f}, old)
            entries += [[i, j, k, str(v)] for k, v in bracket.items() if v]
    return {"dim": d, "brackets": entries}


def _dense_message(data):
    """lie's refusal of a parsed algebra, with its Jacobi products: each
    listed f_ab^c meets every entry listed in plane c."""
    listed = [0] * data["dim"]
    for a, _, _, _ in data["brackets"]:
        listed[a] += 1
    products = sum(listed[c] for _, _, c, _ in data["brackets"])
    return (f"build of a {data['dim']}-dim algebra, estimate",
            build_estimate(data["dim"], 0, products), lie.MAX_BUILD_COST)


# sl6 in a basis where 32922 of its 42875 constants are nonzero: with the
# limit lifted its Jacobi check takes about 1.9 s and its Killing form 2.3 s
_DENSE_SL6 = _dense_json("sln_fundamental(6)", 100, 3)
# The 10-spoke wheel over sl2_irrep(1023): the sum stops at the prefixes of
# length 7, 3 * 1024 * (3^8 - 1) / 2 / 8, past the limit (29.8 s to finish).
_WHEEL_10 = ("weight contraction of 1 nodes, peak frontier 0, estimate",
             1 + 192 * (3 ** 8 - 1), weights.MAX_WEIGHT_COST)

# id: (refused call, (what, size, limit), costly step (module, attribute[,
# calls it makes before the guard refuses]))
GUARDS = {
    "series-order": (
        lambda: ring.HSeries.make(ring.MAX_SERIES_ORDER + 1, [1]),
        ("series order", ring.MAX_SERIES_ORDER + 1, ring.MAX_SERIES_ORDER),
        (ring, "rat")),
    "ring-order": (
        lambda: ring.laurent_to_hseries(ring.LaurentPoly.q_power(1),
                                        ring.MAX_SERIES_ORDER + 1),
        ("series order", ring.MAX_SERIES_ORDER + 1, ring.MAX_SERIES_ORDER),
        (ring, "_power_sums")),
    "invariant-expand": (
        lambda: _invariant(ring.MAX_SERIES_ORDER + 1),
        ("series order", ring.MAX_SERIES_ORDER + 1, ring.MAX_SERIES_ORDER),
        (cli, "framed_invariant")),
    "algebra-json": (
        lambda: lie.algebra_from_json('{"dim": %d}' % (LARGEST_ABELIAN + 1)),
        (f"build of a {LARGEST_ABELIAN + 1}-dim algebra, estimate",
         build_estimate(LARGEST_ABELIAN + 1), lie.MAX_BUILD_COST),
        (lie, "_checked_algebra")),
    "algebra-dense": (
        lambda: lie.algebra_from_json(json.dumps(_DENSE_SL6)),
        _dense_message(_DENSE_SL6), (lie, "combinations")),
    "builtin-abelian": (
        lambda: builtin(f"abelian({LARGEST_ABELIAN + 1})"),
        (f"build of a {LARGEST_ABELIAN + 1}-dim algebra, estimate",
         build_estimate(LARGEST_ABELIAN + 1), lie.MAX_BUILD_COST),
        (lie, "_checked_algebra")),
    "builtin-sln": (
        lambda: builtin("sln_fundamental(14)"),
        ("build of a 195-dim algebra on a 14-dim carrier, estimate",
         build_estimate(195, 14), lie.MAX_BUILD_COST),
        (lie, "row_mul_add")),
    "builtin-sl2-irrep": (
        lambda: builtin(f"sl2_irrep({LARGEST_CARRIER})"),
        (f"build of a 3-dim algebra on a {LARGEST_CARRIER + 1}-dim carrier, "
         "estimate", build_estimate(3, LARGEST_CARRIER + 1),
         lie.MAX_BUILD_COST),
        (lie, "_sl2")),
    "ce-cochains": (  # every degree of abelian(15): 2^15 cochains
        lambda: ce.ce_complex(*_trivial_case(15)),
        ("cochain count", 2 ** 15, ce.MAX_COCHAINS),
        (ce, "combinations")),
    "ce-defect": (  # 4^6 - 1 words on a 6-dim carrier, in C^0..C^3 of sl2
        lambda: ce.defect_module(*builtin("sl2_irrep(5)")),
        ("cochain count", 8 * (4 ** 6 - 1), ce.MAX_COCHAINS),
        (ce, "_defect_words")),
    # 8 (4^7200 - 1) cochains: past str()'s 4300 digits, a power of two prints
    "ce-defect-unprintable": (
        lambda: ce.defect_module(*builtin("sl2_irrep(7199)")),
        ("cochain count", "at least 2^14402", ce.MAX_COCHAINS),
        (ce, "_defect_words")),
    "clifford-hh0": (
        lambda: clifford.hh0_dimension(clifford.MAX_HH_DIM + 1),
        ("generator count", clifford.MAX_HH_DIM + 1, clifford.MAX_HH_DIM),
        (clifford, "CliffordElement")),
    "character-identity": (
        lambda: clifford.partition_function_identity(
            *builtin("sl2_irrep(9)"), [1, 0, 0], 4),
        _CHARACTER_10, (clifford, "berezin_determinant")),
    "character-determinant": (
        lambda: clifford.charged_character(*builtin("sl2_irrep(9)"),
                                           [1, 0, 0], 4),
        _CHARACTER_10, (clifford, "_series_of_matrix")),
    "character-wheel": (
        lambda: clifford.wheel_term(builtin("sl2_irrep(9)")[1], [1, 0, 0], 4),
        _CHARACTER_10, (clifford, "_series_of_matrix")),
    "character-large-carrier": (  # up to 6!, not the 4437-digit 1601!
        lambda: clifford.charged_character(*builtin("sl2_irrep(1600)"),
                                           [1, 0, 0], 1),
        ("character of a 1601-dim representation at order 1, estimate",
         factorial(6) * 1601 * 2 ** 2, clifford.MAX_CHARACTER_COST),
        (clifford, "factorial")),
    "printed-digits": (  # 2^14285 has 4301 digits
        lambda: ring.format_hseries(ring.HSeries.make(0, [Fraction(
            1, 2 ** (_BITS + 1))])),
        ("coefficient digits", ring.MAX_PRINTED_DIGITS + 1,
         ring.MAX_PRINTED_DIGITS),
        (Fraction, "__str__")),
    # The opening cup, _KINKS curls and the next curl's cup stay under the
    # limit (190 _KINKS + 54); that curl's crossing, slice 3 _KINKS + 3,
    # passes it, and every slice before it is built.
    "rt-sweep": (
        lambda: rt.framed_invariant(_kinked_unknot(_KINKS + 1),
                                    sln_fundamental_ribbon(2)),
        (f"RT sweep at slice {3 * _KINKS + 3} of {3 * _KINKS + 5}, charge",
         18 + 190 * _KINKS + 36 + 108, _RT),
        (quantum_group, "drop_zeros", 3 * _KINKS + 2)),
    "rt-matrix": (  # 4^6 input columns and 4^12 entries, refused at once
        lambda: rt.evaluate_sliced_tangle(diagram.make_sliced_tangle(6, ()),
                                          sln_fundamental_ribbon(4)),
        ("RT matrix of 6 to 6 strands, charge", 8 * (4 ** 6 + 4 ** 12), _RT),
        (rt, "sweep")),
    "closure-kinks": (
        lambda: _kinked_unknot(10 ** 12),
        (f"closure of B1 with {10 ** 12} crossings, sweep charge at least",
         _closure_bound(1, 0, 10 ** 12), _RT),
        (diagram, "make_sliced_tangle")),
    "kauffman-sweep": (
        lambda: kauffman.kauffman_bracket(
            pd_from_sliced(_kinked_unknot(_BRACKET_KINKS + 1))),
        (f"bracket sweep at step {_BRACKET_KINKS + 1} of {_BRACKET_KINKS + 1}"
         ", charge", 22 * (_BRACKET_KINKS + 1) - 4, kauffman.MAX_SWEEP_COST),
        (kauffman, "drop_zeros", _BRACKET_KINKS)),
    "bracket-trace": (
        lambda: pd_from_sliced(_kinked_unknot(_TRACED)),
        ("PD code of a closed tangle, bracket charge at least", 18 * _TRACED,
         kauffman.MAX_SWEEP_COST),
        (diagram, "PDCode")),
    "weights-cost": (  # 18 vertices, 5 open half-edges at the peak
        lambda: weights.lie_weight(_prism(9), *_sl3_killing()),
        ("weight contraction of 18 nodes, peak frontier 5, estimate",
         18 * 8 ** 5, weights.MAX_WEIGHT_COST),
        (weights, "_edge_scalars")),
    "weights-fermion-cycle": (
        lambda: weights.coupled_weight(weights.fermion_wheel(10),
                                       *builtin("sl2_irrep(1023)"),
                                       _identity_pairing(3)),
        _WHEEL_10, (weights, "_edge_scalars")),
    "weights-fermion-loops": (
        lambda: _loop_weight(_LOOPS + 1),
        (f"fermion loop factor (-2)^{_LOOPS + 1}, digits",
         weights.MAX_LOOP_DIGITS + 1, weights.MAX_LOOP_DIGITS),
        (weights, "_edge_scalars")),
    "weights-symmetry": (
        lambda: weights.symmetry_factor(
            disjoint_union(_prism(4), _LOOP_AND_LEG)),
        ("vertex count", 9, weights.MAX_AUT_VERTICES),
        (weights, "_partners")),
    "confint-linking": (
        lambda: confint.gauss_linking(_circle(2049), _circle(2048)),
        ("segment pair count", 2049 * 2048, _PAIRS),
        (confint, "_segments")),
    "confint-writhe": (
        lambda: confint.writhe_integral(_circle(2049)),
        ("segment pair count", 2049 ** 2, _PAIRS),
        (confint, "_segments")),
    "confint-builder": (
        lambda: confint.hopf_pair(2049),
        ("segment pair count", 2049 ** 2, _PAIRS),
        (confint, "make_param_curve")),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_guard_refuses_above_the_limit_before_the_costly_step(monkeypatch,
                                                              name):
    call, (what, size, limit), (module, costly, *before) = GUARDS[name]
    original, left = getattr(module, costly), count(sum(before), -1)

    def fail(*args, **kwargs):
        if next(left) <= 0:
            raise AssertionError(
                f"{module.__name__}.{costly} ran before the guard")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, costly, fail)
    with pytest.raises(DimensionTooLarge) as exc:
        call()
    assert str(exc.value) == _message(what, size, limit)


# id: (call at the limit, its answer)
ADMITTED = {
    "series-order": (
        lambda: ring.HSeries.make(ring.MAX_SERIES_ORDER, [1]).order,
        ring.MAX_SERIES_ORDER),
    # the largest bracket-free algebra, in about 2 s
    "algebra-json": (
        lambda: lie.algebra_from_json('{"dim": %d}' % LARGEST_ABELIAN).dim,
        LARGEST_ABELIAN),
    "builtin-abelian": (
        lambda: builtin(f"abelian({LARGEST_ABELIAN})")[0].dim,
        LARGEST_ABELIAN),
    # the largest sl_n by name, in about 1.5 s
    "builtin-sln": (
        lambda: builtin("sln_fundamental(12)")[1].dim, 12),
    # the largest sl2 carrier, uncached: about 1.2 s and 160 MB
    "builtin-sl2-irrep": (
        lambda: lie._sl2_irrep(LARGEST_CARRIER - 1)[1].dim, LARGEST_CARRIER),
    "ce-cochains": (  # every degree of abelian(14): 2^14 cochains
        lambda: ce.cohomology_dims(ce.ce_complex(*_trivial_case(14))),
        tuple(comb(14, k) for k in range(15))),
    "ce-defect": (  # 8 * 1023 cochains, the largest sl2 carrier admitted
        lambda: ce.defect_deformation_cohomology(*builtin("sl2_irrep(4)")),
        (0, 0)),
    "clifford-hh0": (
        lambda: clifford.hh0_dimension(clifford.MAX_HH_DIM), 1),
    # 7! * 7 * 7^2 = 1728720, the largest sl2_irrep estimate admitted at
    # order 6 or more; under a second
    "character-cost": (
        lambda: clifford.partition_function_identity(
            *builtin("sl2_irrep(6)"), [1, 0, 0], 6).holds,
        True),
    # the 8-sided prism costs 16 * 8^5, exactly the limit, and takes well
    # under a second.
    "weights-algebra-and-cost": (
        lambda: weights.lie_weight(_prism(8), *_sl3_killing()),
        Fraction(4147, 3888)),
    # sl5 degree-3 chords (0, 3), (1, 4), (2, 5) on one Wilson loop, charged
    # 1 + 518145 of the limit: about 1.2 s
    "weights-fermion-cycle": (
        lambda: weights.coupled_weight(
            chord_diagram([(0, 3), (1, 4), (2, 5)]),
            *builtin("sln_fundamental(5)"),
            _killing_pairing(builtin("sln_fundamental(5)")[0], Fraction(1, 10))),
        Fraction(-624, 25)),
    "weights-fermion-loops": (  # a 1000-digit factor, printed
        lambda: len(str(_loop_weight(_LOOPS))), 1 + weights.MAX_LOOP_DIGITS),
    "weights-symmetry": (  # the cube graph
        lambda: weights.symmetry_factor(_prism(weights.MAX_AUT_VERTICES // 2)),
        48),
    "confint-builder": (
        lambda: [len(c.points) for c in confint.hopf_pair(isqrt(_PAIRS))],
        [2048, 2048]),
    "printed-digits": (
        lambda: len(ring.format_hseries(ring.HSeries.make(0, [Fraction(
            1, 2 ** (_BITS - 1))]))),
        len("1/ + O(h^1)") + ring.MAX_PRINTED_DIGITS),
    "rt-sweep": (  # charged 190 _KINKS + 36, at the limit; about 2 s
        lambda: rt.framed_invariant(_kinked_unknot(_KINKS),
                                    sln_fundamental_ribbon(2)),
        quantum_dimension(sln_fundamental_ribbon(2))
        * ribbon_twist(sln_fundamental_ribbon(2)) ** _KINKS),
    "rt-matrix": (  # the identity on 3 strands at sl4, 64 x 64
        lambda: rt.evaluate_sliced_tangle(
            diagram.make_sliced_tangle(3, ()), sln_fundamental_ribbon(4)
        ).matrix == tuple(tuple(ring.LaurentPoly.from_terms(1, {0: int(i == j)})
                                for j in range(64)) for i in range(64)),
        True),
}


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_guard_admits_its_limit(name):
    call, answer = ADMITTED[name]
    assert call() == answer


# Guards a command line reaches, one above the limit: (argv, message)
_PRISM_9 = weights.graph_to_json(_prism(9))
CLI_REFUSALS = [
    (["expand", "--poly", "q", "--order", "101"],
     _message("series order", 101, 100)),
    (["character", "--algebra", "sl2", "--rep", "sl2_irrep(9)", "--element",
      "1,0,0", "--order", "4"], _message(*_CHARACTER_10)),
    (["cohomology", "--algebra", f"abelian({LARGEST_ABELIAN + 1})"],
     build_message(LARGEST_ABELIAN + 1)),
    (["cohomology", "--algebra", "sl2", "--coefficients",
      f"rep:sl2_irrep({LARGEST_CARRIER})"],
     build_message(3, LARGEST_CARRIER + 1)),
    (["cohomology", "--algebra", "abelian(15)"],
     _message("cochain count", 2 ** 15, 2 ** 14)),
    (["cohomology", "--algebra", "sl2", "--deformation", "defect",
      "--coefficients", "rep:sl2_irrep(5)"],
     _message("cochain count", 8 * 4095, 2 ** 14)),
    (["weights", "--algebra", "sl2", "--rep", "sl2_irrep(1023)", "--graph",
      weights.graph_to_json(weights.fermion_wheel(10))], _message(*_WHEEL_10)),
    (["weights", "--algebra", "sl3", "--graph", _PRISM_9],
     _message("weight contraction of 18 nodes, peak frontier 5, estimate",
              18 * 8 ** 5, 2 ** 19)),
    (["weights", "--algebra", "sl2", "--graph",
      '{"coupling_vertices": [], "fermion_loops": 20000}'],
     _message("fermion loop factor (-2)^20000, digits", 6021, 1000)),
    (["bracket", "--link", json.dumps({"braid": {"strands": 1, "word": []},
                                       "framing_kinks": _TRACED})],
     _message("PD code of a closed tangle, bracket charge at least",
              18 * _TRACED, 2_000_000)),
    (["linking", "--curves", "circle", "--samples", "2049"],
     _message("segment pair count", 2049 ** 2, 2048 ** 2)),
    (["linking", "--curves", "hopf", "--samples", str(10 ** 30)],
     _message("segment pair count", 10 ** 60, 2048 ** 2)),
]


_WIDE = "B9:1,2,3,4,5,6,7,8,-1,-2,-3,-4,-5,-6,-7,-8"
_HUGE_KINKS = '{"braid": {"strands": 1, "word": []}, "framing_kinks": %d}' % (
    10 ** 12)
_HUGE_CLOSURE = _message(
    f"closure of B1 with {10 ** 12} crossings, sweep charge at least",
    _closure_bound(1, 0, 10 ** 12), _RT)
# The RT sweep and closure guards, one above the limit: (id, argv, message)
LINK_REFUSALS = [
    # The cup opening the ninth strand is slice 14, charged 2801664; the
    # crossing after it would be charged 8404992 more.
    ("invariant-sweep",
     ["invariant", "--link", _WIDE, "--algebra", "sl4", "--framed"],
     _message("RT sweep at slice 15 of 34, charge", 14083492, _RT)),
    ("invariant-kinks",
     ["invariant", "--link", _HUGE_KINKS, "--algebra", "sl2", "--framed"],
     _HUGE_CLOSURE),
    ("bracket-kinks", ["bracket", "--link", _HUGE_KINKS], _HUGE_CLOSURE),
    ("jones-kinks", ["jones", "--link", _HUGE_KINKS], _HUGE_CLOSURE),
]


def _assert_exits_1_with(capsys, argv, message):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", CLI_REFUSALS,
                         ids=[argv[0] for argv, _ in CLI_REFUSALS])
def test_cli_refusal_exits_1_with_the_uniform_message(capsys, argv, message):
    _assert_exits_1_with(capsys, argv, message)


@pytest.mark.parametrize("argv, message",
                         [(argv, message) for _, argv, message in LINK_REFUSALS],
                         ids=[name for name, _, _ in LINK_REFUSALS])
def test_link_refusal_exits_1_with_the_uniform_message(capsys, argv, message):
    _assert_exits_1_with(capsys, argv, message)


# Defect complexes refused before any word of the module is built:
# (algebra, carrier representation or None, variant, dim M, cochain spaces)
DEFECT_REFUSALS = [
    ("sl2", "sl2_irrep(5)", "defect", 4 ** 6 - 1, 8),
    ("sl2", "sl2_irrep(5)", "defect-boundary", 4 ** 6 - 2 ** 6, 8),
    ("sl2", "sl2_irrep(1023)", "defect", 4 ** 1024 - 1, 8),
    ("sln_fundamental(4)", None, "defect", 4 ** 4 - 1, 1 + 15 + 105 + 455),
]


@pytest.mark.parametrize("algebra, rep, variant, dim_m, cochains",
                         DEFECT_REFUSALS,
                         ids=[f"{a}-{r}-{v}" for a, r, v, _, _ in DEFECT_REFUSALS])
def test_defect_refused_before_any_word_is_built(monkeypatch, capsys, algebra,
                                                 rep, variant, dim_m, cochains):
    def fail(*args):
        raise AssertionError("ce._defect_words ran before the guard")

    monkeypatch.setattr(ce, "_defect_words", fail)
    argv = ["cohomology", "--algebra", algebra, "--deformation", variant]
    if rep is not None:
        argv += ["--coefficients", f"rep:{rep}"]
    _assert_exits_1_with(capsys, argv, _message(
        "cochain count", cochains * dim_m, ce.MAX_COCHAINS))


def test_every_size_limit_has_its_readme_row():
    """Each module-level MAX_* constant of the package has a row with its
    value in README's size-limit table, and every row names one."""
    constants = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"rtfactor.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            constants.update(
                (f"{path.stem}.{t.id}", str(getattr(module, t.id)))
                for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    section = README.read_text(encoding="utf-8").split("### Size limits")[1]
    section = section.split("\n#")[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| (\S+) \|", section, re.M)
    assert constants and rows
    assert {name for name, _ in rows} == set(constants)
    assert [(name, constants[name]) for name, _ in rows] == rows


def _raises(tree):
    """(innermost enclosing def or class, raised name) for every raise."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((scope, getattr(exc, "id", getattr(exc, "attr", None))))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_check_size_is_the_only_raise_of_dimension_too_large():
    raisers, defined = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        raisers += [f"{path.stem}.{scope}" for scope, name in _raises(tree)
                    if name == "DimensionTooLarge"]
    assert raisers == ["errors.check_size"]
    assert not defined & {"TooLarge", "NotClosed", "_check_algebra_dim",
                          "check_series_order"}
