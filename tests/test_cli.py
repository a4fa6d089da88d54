"""End-to-end runs of the command-line front end."""

import json
import re
from fractions import Fraction

import pytest

from rtfactor import cli
from rtfactor.cli import main
from rtfactor.confint import curve_to_json, twisted_circle, unit_circle
from rtfactor.diagram import CATALOG, pd_from_sliced, resolve_link, writhe
from rtfactor.kauffman import jones_polynomial, kauffman_bracket
from rtfactor.lie import algebra_to_json, builtin
from rtfactor.quantum_group import sln_fundamental_ribbon
from rtfactor.ring import (MAX_SERIES_ORDER, LaurentPoly, parse_hseries,
                           parse_laurent)
from rtfactor.rt import framed_invariant, jones_from_quantum
from rtfactor.weights import graph_to_json, theta_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

def test_invariant_jones_trefoil(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--link", "trefoil",
                           "--algebra", "sl2", "--jones")
    assert code == 0
    assert out == "t + t^{3} - t^{4}\n"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_invariant_jones_matches_skein_route(capsys, name):
    code, out, _ = run_cli(capsys, "invariant", "--link", name,
                           "--algebra", "sl2", "--jones")
    assert code == 0
    tangle = CATALOG[name].tangle()
    oracle = jones_polynomial(pd_from_sliced(tangle), writhe(tangle))
    assert parse_laurent(out.strip(), "t") == oracle


def test_invariant_framed_json_round_trip(capsys):
    code, payload = run_json(capsys, "invariant", "--link", "figure_eight",
                             "--algebra", "sl3", "--framed")
    assert code == 0
    value = parse_laurent(payload["invariant"], payload["variable"])
    tangle = CATALOG["figure_eight"].tangle()
    assert value == framed_invariant(tangle, sln_fundamental_ribbon(3))


def test_invariant_normalized_expansion_starts_at_one(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--link", "trefoil_right",
                           "--algebra", "sl2", "--framed",
                           "--expand", "4", "--normalize")
    assert code == 0
    series = parse_hseries(out.strip())
    assert series.coeffs[0] == 1
    assert series.coeffs[1] == 0
    assert series.coeffs[2] == -3


def test_invariant_jones_requires_sl2():
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "--link", "trefoil", "--algebra", "sl3", "--jones"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# bracket and jones
# ---------------------------------------------------------------------------

def test_bracket_json_round_trip(capsys):
    code, payload = run_json(capsys, "bracket", "--link", "hopf_pos")
    assert code == 0
    value = parse_laurent(payload["bracket"], payload["variable"])
    assert value == kauffman_bracket(pd_from_sliced(CATALOG["hopf_pos"].tangle()))


def test_jones_mirror_pair(capsys):
    _, right, _ = run_cli(capsys, "jones", "--link", "trefoil_right")
    _, left, _ = run_cli(capsys, "jones", "--link", "trefoil_left")
    a = parse_laurent(right.strip(), "t")
    b = parse_laurent(left.strip(), "t")
    assert a != b
    assert a.scale_exponents(-1) == b


def test_jones_accepts_link_file(capsys, tmp_path):
    path = tmp_path / "link.json"
    path.write_text('{"braid": {"strands": 2, "word": [1, 1, 1]}}')
    _, from_file, _ = run_cli(capsys, "jones", "--link", str(path))
    _, from_name, _ = run_cli(capsys, "jones", "--link", "trefoil_right")
    assert from_file == from_name


def test_unknown_link_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "jones", "--link", "nosuch")
    assert code == 1
    assert err.startswith("error:")


def test_bracket_and_jones_of_a_40_letter_braid(capsys):
    braid = "B2:" + ",".join(["1", "1", "-1", "1"] * 10)
    tangle = resolve_link(braid).tangle()
    quantum = jones_from_quantum(tangle)
    code, out, _ = run_cli(capsys, "bracket", "--link", braid)
    assert code == 0
    bracket = parse_laurent(out.strip(), "A")
    kink = LaurentPoly.q_power(3, 1, -1)
    assert (bracket * kink ** (-writhe(tangle))).scale_exponents(
        Fraction(-1, 4)) == quantum
    code, out, _ = run_cli(capsys, "jones", "--link", braid)
    assert code == 0
    assert parse_laurent(out.strip(), "t") == quantum


@pytest.mark.parametrize("subcommand", ["bracket", "jones"])
def test_braid_over_the_width_limit_is_a_domain_error(capsys, subcommand):
    wide = "B16:" + ",".join([str(i) for i in range(1, 16)] * 2)
    code, _, err = run_cli(capsys, subcommand, "--link", wide)
    assert code == 1
    assert err.startswith("error:") and "exceeds the limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_round_trip(capsys):
    code, payload = run_json(capsys, "expand",
                             "--poly", "q^{-1/2} + q^{1/2}", "--order", "4")
    assert code == 0
    series = parse_hseries(payload["series"], payload["variable"])
    assert series.order == 4
    assert series.coeffs[0] == 2
    assert series.coeffs[1] == 0
    assert series.coeffs[2] == Fraction(1, 4)


def test_expand_rejects_negative_order():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--poly", "q^{1}", "--order", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("poly", ["q +", "-", "q^{2} - "])
def test_expand_refuses_a_dangling_sign(capsys, poly):
    code, out, err = run_cli(capsys, "expand", "--poly", poly, "--order", "2")
    assert code == 1
    assert not out
    assert err.startswith("error:") and "sign with no term after it" in err


_CHARACTER = ["character", "--algebra", "sl2", "--rep", "sl2",
              "--element", "1,0,0", "--order"]
_ORDERED = [["expand", "--poly", "q + q^{-1}", "--normalize", "--order"],
            ["invariant", "--link", "trefoil", "--algebra", "sl3", "--framed",
             "--normalize", "--expand"],
            _CHARACTER]


@pytest.mark.parametrize("argv", _ORDERED)
@pytest.mark.parametrize("order", [MAX_SERIES_ORDER + 1, 10 ** 30])
def test_order_above_the_limit_is_a_domain_error(capsys, argv, order):
    code, _, err = run_cli(capsys, *argv, str(order))
    assert code == 1
    assert err.startswith("error:")
    assert str(MAX_SERIES_ORDER) in err and str(order) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _ORDERED)
def test_order_at_the_limit_finishes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, str(MAX_SERIES_ORDER))
    assert code == 0
    if argv is not _CHARACTER:
        assert parse_hseries(out.strip()).order == MAX_SERIES_ORDER


@pytest.mark.parametrize("mode", ["--framed", "--jones"])
@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_invariant_order_refused_before_the_sweep(capsys, monkeypatch, mode,
                                                  normalize):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the order was checked")

    for name in ("framed_invariant", "writhe_corrected_invariant",
                 "jones_from_quantum"):
        monkeypatch.setattr(cli, name, sweep)
    algebra = "sl2" if mode == "--jones" else "sl3"
    code, _, err = run_cli(
        capsys, "invariant", "--link", "B5:1,2,3,4,-1,-2,-3,-4,1,2,3,4,2,-3,1,4",
        "--algebra", algebra, mode, *normalize, "--expand",
        str(MAX_SERIES_ORDER + 1))
    assert code == 1
    assert err == (f"error: series order {MAX_SERIES_ORDER + 1} exceeds the "
                   f"limit {MAX_SERIES_ORDER}\n")


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

def test_cohomology_bulk_deformation(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--algebra", "sl2",
                           "--deformation", "cs")
    assert code == 0
    assert out == "H3=1 H4=0\n"


def test_cohomology_sl4_bulk_deformation(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--algebra",
                           "sln_fundamental(4)", "--deformation", "cs")
    assert code == 0
    assert out == "H3=1 H4=0\n"


def test_cohomology_betti_table(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--algebra", "sl2")
    assert code == 0
    assert out == "H0=1 H1=0 H2=0 H3=1\n"


@pytest.mark.parametrize("variant", ["defect", "defect-boundary"])
def test_cohomology_defect_vanishes(capsys, variant):
    code, out, _ = run_cli(capsys, "cohomology", "--algebra", "sl2",
                           "--deformation", variant)
    assert code == 0
    assert out == "H1=0 H2=0\n"


def test_cohomology_rep_coefficients(capsys):
    code, payload = run_json(capsys, "cohomology", "--algebra", "sl2",
                             "--coefficients", "rep:sl2_irrep(3)")
    assert code == 0
    assert payload["betti"] == [0, 0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["cohomology", "--algebra", "{bad"],
    ["cohomology", "--algebra", '{"brackets": []}'],
    ["cohomology", "--algebra", '{"dim": 2, "brackets": [[0, 1, 1, "abc"]]}'],
    ["cohomology", "--algebra", '{"dim": 2, "brackets": [[0, 1]]}'],
    ["cohomology", "--algebra", '{"dim": 2, "brackets": [["x", 1, 1, "1"]]}'],
    ["jones", "--link",
     '{"braid": {"strands": 1, "word": []}, "framing_kinks": "abc"}'],
    ["jones", "--link",
     '{"braid": {"strands": 2.9, "word": [1.7, -1.2]}, "framing_kinks": 2.5}'],
    ["cohomology", "--algebra", '{"dim": 100000}'],
    ["expand", "--poly", "q^{1/0}", "--order", "2"],
])
def test_malformed_json_is_a_domain_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cohomology_bulk_rejects_rep_coefficients():
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--algebra", "sl2",
              "--coefficients", "rep:sl2", "--deformation", "cs"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# character
# ---------------------------------------------------------------------------

def test_character_identity_holds(capsys):
    code, out, _ = run_cli(capsys, "character", "--algebra", "sl2",
                           "--rep", "sl2", "--element", "1,0,0", "--order", "6")
    assert code == 0
    assert "identity holds" in out
    lines = dict(line.split(" = ", 1)
                 for line in out.splitlines() if " = " in line)
    assert lines["lhs"] == lines["rhs"]


def test_character_json_round_trip(capsys):
    code, payload = run_json(capsys, "character", "--algebra", "sl3",
                             "--rep", "sl3", "--element", "0,0,0,0,0,0,1,3",
                             "--order", "6")
    assert code == 0
    assert payload["holds"] is True
    lhs = parse_hseries(payload["lhs"], payload["variable"])
    rhs = parse_hseries(payload["rhs"], payload["variable"])
    assert lhs == rhs
    assert any(c != 0 for c in lhs.coeffs)


def test_character_rejects_malformed_element():
    with pytest.raises(SystemExit) as exc:
        main(["character", "--algebra", "sl2", "--rep", "sl2",
              "--element", "1,zebra,0", "--order", "4"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

THETA_JSON = graph_to_json(theta_graph())


def test_weights_theta(capsys):
    code, payload = run_json(capsys, "weights", "--graph", THETA_JSON,
                             "--algebra", "sl2")
    assert code == 0
    assert Fraction(payload["weight"]) == 3
    assert payload["symmetry_factor"] == 12


def test_weights_pairing_scale(capsys):
    code, payload = run_json(capsys, "weights", "--graph", THETA_JSON,
                             "--algebra", "sl2", "--pairing-scale", "3")
    assert code == 0
    assert Fraction(payload["weight"]) == 1


def test_weights_graph_file(capsys, tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(THETA_JSON)
    code, out, _ = run_cli(capsys, "weights", "--graph", str(path),
                           "--algebra", "so3")
    assert code == 0
    assert out.splitlines()[0] == "weight = 3"


def test_weights_bicolored_needs_rep(capsys):
    wheel = ('{"gauge_vertices": [], "coupling_vertices": [[0, 1, 2], '
             '[3, 4, 5]], "legs": [], "gauge_edges": [[0, 3]], '
             '"fermion_edges": [[1, 5], [4, 2]], "fermion_loops": 0}')
    bare = algebra_to_json(builtin("sl2")[0])
    code, _, err = run_cli(capsys, "weights", "--graph", wheel,
                           "--algebra", bare)
    assert code == 1
    assert "representation" in err
    code, payload = run_json(capsys, "weights", "--graph", wheel,
                             "--algebra", bare, "--rep", "sl2")
    assert code == 0
    assert Fraction(payload["weight"]) == Fraction(-3, 4)


def test_weights_refuses_the_symmetry_factor_before_contracting(
        capsys, monkeypatch):
    def contracted(*args, **kwargs):
        raise AssertionError("lie_weight ran before the refusal")

    monkeypatch.setattr(cli, "lie_weight", contracted)
    prism = {"vertices": [[3 * v, 3 * v + 1, 3 * v + 2] for v in range(10)],
             "edges": [[3 * i + 2, 3 * (5 + i) + 2] for i in range(5)]
             + [[3 * (b + i), 3 * (b + (i + 1) % 5) + 1]
                for b in (0, 5) for i in range(5)]}
    code, out, err = run_cli(capsys, "weights", "--graph", json.dumps(prism),
                             "--algebra", "sl3")
    assert code == 1 and out == ""
    assert "vertex count 10 exceeds the limit 8" in err


_LEG_GRAPH = ('{"coupling_vertices": [[0, 1, 2]], "legs": [3], '
              '"gauge_edges": [[0, 3]], "fermion_edges": [[1, 2]]}')


@pytest.mark.parametrize("argv, message", [
    (["--algebra", "sl2", "--pairing-scale", "0"], "singular"),
    (["--algebra", "abelian(2)"], "singular"),
    (["--algebra", "abelian(100000)"],
     "algebra dimension 100000 exceeds the limit 15"),
    (["--algebra", "sl2", "--graph", _LEG_GRAPH], "open legs"),
    (["--algebra", "sl2", "--graph",
      '{"coupling_vertices": [], "fermion_loops": 2.5}'], "fermion_loops"),
    (["--algebra", "sl2", "--graph",
      '{"coupling_vertices": [], "fermion_loops": true}'], "fermion_loops"),
    (["--algebra", "sl2", "--graph",
      '{"coupling_vertices": [], "fermion_loops": -1}'], "fermion_loops"),
])
def test_weights_domain_errors_exit_1(capsys, argv, message):
    if "--graph" not in argv:
        argv = argv + ["--graph", THETA_JSON]
    code, out, err = run_cli(capsys, "weights", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------

def test_linking_hopf_builder(capsys):
    code, payload = run_json(capsys, "linking", "--curves", "hopf",
                             "--samples", "256")
    assert code == 0
    assert abs(payload["linking"] + 1.0) < 1e-3


def test_linking_framed_curve_file(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(curve_to_json(twisted_circle(256, 2)))
    code, payload = run_json(capsys, "linking", "--curves", str(path),
                             "--epsilon", "0.1")
    assert code == 0
    assert abs(payload["self_linking"] - 2.0) < 1e-2
    assert abs(payload["twist_turns"] - 2.0) < 1e-9
    assert abs(payload["writhe"]) < 1e-6


def test_linking_intersecting_pair_is_a_domain_error(capsys):
    circle = curve_to_json(unit_circle(64))
    code, _, err = run_cli(capsys, "linking",
                           "--curves", f"[{circle}, {circle}]")
    assert code == 1
    assert err.startswith("error:")


def test_linking_bare_curve_reports_writhe_only(capsys):
    code, payload = run_json(capsys, "linking", "--curves", "circle")
    assert code == 0
    assert payload == {"writhe": 0.0}


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "0"),
    ("--epsilon", "-1"), ("--epsilon", "x"), ("--samples", "-1"),
    ("--samples", "x")])
def test_linking_bad_flag_value_exits_2_naming_only_its_flag(capsys, flag,
                                                              value):
    with pytest.raises(SystemExit) as exc:
        main(["linking", "--curves", "twisted:1", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {value!r} is not " in err
    assert "order" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_names_every_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("criterion")]
    assert len(lines) == 11
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"criterion {i:2d} PASS [")
        assert re.search(r" \(\d+\.\d\d s\)$", line), line
    assert "11/11 criteria passed" in out


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RTFACTOR_SEED", "7")
    code, payload = run_json(capsys, "verify")
    assert code == 0
    assert payload["seed"] == 7
    assert all(item["ok"] for item in payload["criteria"])
    assert [item["index"] for item in payload["criteria"]] == list(range(1, 12))
    assert all(isinstance(item["elapsed_s"], float) and item["elapsed_s"] >= 0
               for item in payload["criteria"])


def test_verify_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("RTFACTOR_SEED", "7")
    code, payload = run_json(capsys, "verify", "--seed", "11")
    assert code == 0
    assert payload["seed"] == 11


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["nosuchcommand"],
    ["invariant", "--algebra", "sl2", "--framed"],
    ["invariant", "--link", "trefoil", "--algebra", "sl5", "--framed"],
    ["invariant", "--link", "trefoil", "--algebra", "sl2"],
    ["jones", "--link", "trefoil", "--format", "xml"],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
