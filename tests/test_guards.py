"""Every size guard, in one table.

Above its limit each guard raises DimensionTooLarge with the one message
form of ``errors.check_size``, before its costly step runs (the step is
monkeypatched to fail).  At its limit the input is admitted and finishes.
A lint test keeps ``check_size`` the only place the exception is raised,
and another keeps README's size-limit table in step with the constants.
"""

import ast
import importlib
import re
from fractions import Fraction
from itertools import count
from math import comb, factorial, isqrt, log10
from pathlib import Path

import numpy as np
import pytest

from rtfactor import (ce, cli, clifford, confint, diagram, kauffman, lie, ring,
                      rt, weights)
from rtfactor.diagram import (LinkSpec, braid_closure_sliced, make_braid,
                              pd_from_sliced)
from rtfactor.errors import DimensionTooLarge
from rtfactor.lie import InvariantPairing, builtin
from rtfactor.quantum_group import (quantum_dimension, ribbon_twist,
                                    sln_fundamental_ribbon)

from test_weights import disjoint_union

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


def _thetas(count):
    graph = weights.theta_graph()
    for _ in range(count - 1):
        graph = disjoint_union(graph, weights.theta_graph())
    return graph


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


def _two_strand_twist(crossings):
    return pd_from_sliced(braid_closure_sliced(make_braid(2, [1] * crossings)))


def _kinked_unknot(kinks):
    return LinkSpec(make_braid(1, ()), kinks).tangle()


def _kinked_unknot_cost(kinks):
    """rt.sweep_cost of the kinked unknot at sl2.  The opening cup costs 2;
    curl i costs 6 (2i - 1) + 6 (2i) + 2 (2i + 1) for its cup, crossing and
    cap; the closing cap 2k + 2.  In all 14k^2 + 12k + 4."""
    return 14 * kinks ** 2 + 12 * kinks + 4


def _closure_bound(strands, letters, kinks):
    """1 + 2 + ... + m over the m crossings and caps of a closure: less
    than its RT estimate, and what its builder checks."""
    m = letters + strands + 2 * kinks
    return m * (m + 1) // 2


def _invariant(order):
    args = cli._build_parser().parse_args(
        ["invariant", "--link", "trefoil", "--algebra", "sl3", "--framed",
         "--expand", str(order)])
    return args.handler(args)


_PAIRS = confint.MAX_SEGMENT_PAIRS
# the longest bit length whose digit estimate is at the limit: 14284
_BITS = (ring.MAX_PRINTED_DIGITS * 100000 - 1) // 30103
_SWEEP = isqrt(kauffman.MAX_SWEEP_COST) + 1  # sigma_1^c costs c^2
_RT = rt.MAX_SWEEP_COST
# the most kinks an sl2 unknot sweep admits
_KINKS = next(k for k in count() if _kinked_unknot_cost(k + 1) > _RT)

# sl2_irrep(9) at order 4: a 10-dim determinant over 10! permutations
_CHARACTER_10 = ("character of a 10-dim representation at order 4, estimate",
                 factorial(10) * 10 * 5 ** 2, clifford.MAX_CHARACTER_COST)

# id: (refused call, (what, size, limit), costly step (module, attribute))
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
        lambda: lie.algebra_from_json('{"dim": 16}'),
        ("algebra dimension", 16, lie.MAX_PARSED_ALGEBRA_DIM),
        (lie, "Fraction")),
    "builtin-abelian": (
        lambda: builtin("abelian(16)"),
        ("algebra dimension", 16, lie.MAX_PARSED_ALGEBRA_DIM),
        (lie, "Fraction")),
    "builtin-sln": (
        lambda: builtin("sln_fundamental(5)"),
        ("algebra dimension", 24, lie.MAX_PARSED_ALGEBRA_DIM),
        (lie, "Fraction")),
    "builtin-sl2-irrep": (
        lambda: builtin(f"sl2_irrep({lie.MAX_IRREP_DIM})"),
        ("sl2_irrep carrier dimension", lie.MAX_IRREP_DIM + 1,
         lie.MAX_IRREP_DIM),
        (lie, "Fraction")),
    "ce-cochains": (  # every degree of abelian(15): 2^15 cochains
        lambda: ce.ce_complex(*_trivial_case(15)),
        ("cochain count", 2 ** 15, ce.MAX_COCHAINS),
        (ce, "combinations")),
    "ce-defect": (  # 4^6 - 1 words on a 6-dim carrier, in C^0..C^3 of sl2
        lambda: ce.defect_module(*builtin("sl2_irrep(5)")),
        ("cochain count", 8 * (4 ** 6 - 1), ce.MAX_COCHAINS),
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
    "printed-digits": (  # 2^14285 has 4301 digits
        lambda: ring.format_hseries(ring.HSeries.make(0, [Fraction(
            1, 2 ** (_BITS + 1))])),
        ("coefficient digits", ring.MAX_PRINTED_DIGITS + 1,
         ring.MAX_PRINTED_DIGITS),
        (Fraction, "__str__")),
    "rt-sweep": (
        lambda: rt.framed_invariant(_kinked_unknot(_KINKS + 1),
                                    sln_fundamental_ribbon(2)),
        (f"RT sweep of {3 * _KINKS + 5} slices, peak width 4, estimate",
         _kinked_unknot_cost(_KINKS + 1), _RT),
        (rt, "sweep")),
    "closure-kinks": (
        lambda: _kinked_unknot(10 ** 12),
        (f"closure of B1 with {10 ** 12} crossings, sweep estimate at least",
         _closure_bound(1, 0, 10 ** 12), _RT),
        (diagram, "make_sliced_tangle")),
    "kauffman-sweep": (
        lambda: kauffman.kauffman_bracket(_two_strand_twist(_SWEEP)),
        (f"bracket sweep of {_SWEEP} crossings, peak 4 open ends, estimate",
         _SWEEP ** 2, kauffman.MAX_SWEEP_COST),
        (kauffman, "loop_value")),
    "weights-algebra": (
        lambda: weights.lie_weight(_thetas(1), builtin("abelian(9)")[0],
                                   _identity_pairing(9)),
        ("algebra dimension", 9, weights.MAX_WEIGHT_ALGEBRA_DIM),
        (weights, "_edge_scalars")),
    "weights-cost": (  # 18 vertices, 5 open half-edges at the peak
        lambda: weights.lie_weight(_prism(9), *_sl3_killing()),
        ("weight contraction of 18 nodes, peak frontier 5, estimate",
         18 * 8 ** 5, weights.MAX_WEIGHT_COST),
        (weights, "_edge_scalars")),
    "weights-fermion-cycle": (  # one cycle tensor of 8^8 entries
        lambda: weights.coupled_weight(weights.fermion_wheel(8),
                                       *builtin("sl3"), _identity_pairing(8)),
        ("weight contraction of 1 nodes, peak frontier 0, estimate",
         1 + 8 ** 8, weights.MAX_WEIGHT_COST),
        (weights, "_edge_scalars")),
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
    call, (what, size, limit), (module, costly) = GUARDS[name]

    def fail(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{costly} ran before the guard")

    monkeypatch.setattr(module, costly, fail)
    with pytest.raises(DimensionTooLarge) as exc:
        call()
    assert str(exc.value) == _message(what, size, limit)


# id: (call at the limit, its answer)
ADMITTED = {
    "series-order": (
        lambda: ring.HSeries.make(ring.MAX_SERIES_ORDER, [1]).order,
        ring.MAX_SERIES_ORDER),
    "algebra-json": (
        lambda: lie.algebra_from_json(
            '{"dim": %d}' % lie.MAX_PARSED_ALGEBRA_DIM).dim,
        lie.MAX_PARSED_ALGEBRA_DIM),
    "builtin-abelian": (
        lambda: builtin(f"abelian({lie.MAX_PARSED_ALGEBRA_DIM})")[0].dim,
        lie.MAX_PARSED_ALGEBRA_DIM),
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
    # sl3 has the largest dimension admitted; the 8-sided prism costs
    # 16 * 8^5, exactly the limit, and takes well under a second.
    "weights-algebra-and-cost": (
        lambda: weights.lie_weight(_prism(8), *_sl3_killing()),
        Fraction(4147, 3888)),
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
    "rt-sweep": (  # at the limit; the slowest admitted sweeps take seconds
        lambda: rt.framed_invariant(_kinked_unknot(_KINKS),
                                    sln_fundamental_ribbon(2)),
        quantum_dimension(sln_fundamental_ribbon(2))
        * ribbon_twist(sln_fundamental_ribbon(2)) ** _KINKS),
}


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_guard_admits_its_limit(name):
    call, answer = ADMITTED[name]
    assert call() == answer


# Guards a command line reaches, one above the limit: (argv, message)
_FOUR_THETAS = weights.graph_to_json(_thetas(4))
_PRISM_9 = weights.graph_to_json(_prism(9))
CLI_REFUSALS = [
    (["expand", "--poly", "q", "--order", "101"],
     _message("series order", 101, 100)),
    (["character", "--algebra", "sl2", "--rep", "sl2_irrep(9)", "--element",
      "1,0,0", "--order", "4"], _message(*_CHARACTER_10)),
    (["cohomology", "--algebra", "abelian(16)"],
     _message("algebra dimension", 16, 15)),
    (["cohomology", "--algebra", "sl2", "--coefficients",
      "rep:sl2_irrep(1024)"],
     _message("sl2_irrep carrier dimension", 1025, 1024)),
    (["cohomology", "--algebra", "abelian(15)"],
     _message("cochain count", 2 ** 15, 2 ** 14)),
    (["cohomology", "--algebra", "sl2", "--deformation", "defect",
      "--coefficients", "rep:sl2_irrep(5)"],
     _message("cochain count", 8 * 4095, 2 ** 14)),
    (["weights", "--algebra", "abelian(9)", "--graph", _FOUR_THETAS],
     _message("algebra dimension", 9, 8)),
    (["weights", "--algebra", "sl3", "--graph", _PRISM_9],
     _message("weight contraction of 18 nodes, peak frontier 5, estimate",
              18 * 8 ** 5, 2 ** 19)),
    (["weights", "--algebra", "sl2", "--graph",
      '{"coupling_vertices": [], "fermion_loops": 20000}'],
     _message("fermion loop factor (-2)^20000, digits", 6021, 1000)),
    (["bracket", "--link", "B2:" + ",".join(["1"] * 1415)],
     _message("bracket sweep of 1415 crossings, peak 4 open ends, estimate",
              1415 ** 2, 2_000_000)),
    (["linking", "--curves", "circle", "--samples", "2049"],
     _message("segment pair count", 2049 ** 2, 2048 ** 2)),
    (["linking", "--curves", "hopf", "--samples", str(10 ** 30)],
     _message("segment pair count", 10 ** 60, 2048 ** 2)),
]


_WIDE = "B9:1,2,3,4,5,6,7,8,-1,-2,-3,-4,-5,-6,-7,-8"
_HUGE_KINKS = '{"braid": {"strands": 1, "word": []}, "framing_kinks": %d}' % (
    10 ** 12)
_HUGE_CLOSURE = _message(
    f"closure of B1 with {10 ** 12} crossings, sweep estimate at least",
    _closure_bound(1, 0, 10 ** 12), _RT)
# The RT sweep and closure guards, one above the limit: (id, argv, message)
LINK_REFUSALS = [
    ("invariant-sweep",
     ["invariant", "--link", _WIDE, "--algebra", "sl4", "--framed"],
     _message("RT sweep of 34 slices, peak width 18, estimate",
              rt.sweep_cost(diagram.resolve_link(_WIDE).tangle(), 4)[0], _RT)),
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
