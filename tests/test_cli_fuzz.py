"""Fuzzed command lines: every subcommand exits 0, 1 or 2 and never raises.

Each example calls ``rtfactor.cli.main`` in-process.  Success and domain
errors return 0 or 1; usage errors leave through argparse's SystemExit(2).
Any other exception fails the test and names the command line, and so does
exit 0 with an order above ``MAX_SERIES_ORDER``, a built-in curve with more
segment pairs than ``MAX_SEGMENT_PAIRS``, a link of 10^6 or more framing
kinks, an ``invariant`` of a wide braid whose sweep estimate is above
``rt.MAX_SWEEP_COST``, a ``character`` estimate above
``clifford.MAX_CHARACTER_COST``, or an ``--epsilon`` that is not a finite
positive number.  Inputs stay small: braids of at most 4 strands and
8 letters (30 for ``bracket`` and ``jones``) or a few fixed wide braids,
orders up to 8 or above the limit, curve samples up to 128 or above the
limit, small algebras or representations refused by their size limit, and
``verify`` only with malformed seeds.
"""

import contextlib
import io
import json
import random
import shlex
from math import factorial, isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rtfactor import rt
from rtfactor.cli import main
from rtfactor.clifford import MAX_CHARACTER_COST
from rtfactor.confint import MAX_SEGMENT_PAIRS, hopf_pair
from rtfactor.diagram import CATALOG, LINK_ALIASES, resolve_link
from rtfactor.lie import algebra_to_json, builtin
from rtfactor.ring import MAX_SERIES_ORDER
from rtfactor.weights import (fermion_wheel, generate_trivalent_family,
                              graph_to_json)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100, suppress_health_check=list(HealthCheck))

# past Python's int/str conversion limit of 4300 digits
_LONG = "9" * 5000
_GARBAGE = st.sampled_from(["", " ", "{", "[]", "null", "x", "-1", "1/0",
                            "nan", "B", "{\"a\": 1}", "éé", _LONG])


def _mostly(valid, invalid):
    """Draws from ``valid`` three times in four (one_of would weight its
    distinct branches evenly)."""
    return st.sampled_from((valid, valid, valid, invalid)).flatmap(lambda x: x)


def _numbers(low, high):
    """A flag value: mostly an in-range integer, sometimes not a number."""
    return _mostly(st.integers(low, high).map(str),
                   st.sampled_from(["-1", "1.5", "abc", ""]))


# -- links --------------------------------------------------------------------

@st.composite
def _braid(draw, max_letters):
    """A braid string whose letters are mostly in range."""
    strands = draw(_mostly(st.integers(1, 4), st.integers(-1, 0)))
    top = max(strands - 1, 1)
    letter = _mostly(st.integers(1, top) | st.integers(-top, -1),
                     st.integers(-5, 5))
    letters = draw(st.lists(letter, max_size=max_letters))
    return f"B{strands}:" + ",".join(str(x) for x in letters)


@st.composite
def _link_json(draw):
    scalars = st.one_of(st.integers(-5, 5),
                        st.sampled_from([2.5, True, None, "1"]))
    braid = {"strands": draw(st.one_of(st.integers(0, 4), scalars)),
             "word": draw(st.lists(st.one_of(st.integers(-4, 4), scalars),
                                   max_size=8))}
    payload = {"braid": braid}
    if draw(st.booleans()):
        payload["framing_kinks"] = draw(st.one_of(
            st.integers(-3, 3), st.sampled_from(HUGE_KINKS), scalars))
    return json.dumps(payload)


# Refused before any closure is built: the least sweep estimate of k kinks
# is about 2k^2.
HUGE_KINKS = [10 ** 6, -10 ** 6, 10 ** 12]
HUGE_KINK_LINKS = [json.dumps({"braid": {"strands": strands, "word": word},
                               "framing_kinks": kinks})
                   for strands, word in ((1, []), (2, [1, 1, 1]))
                   for kinks in HUGE_KINKS]
# Up to 18 strands wide; some are above the sweep limit at sl3 or sl4.
WIDE_BRAIDS = ["B9:1,2,3,4,5,6,7,8,-1,-2,-3,-4,-5,-6,-7,-8",
               "B8:1,2,3,4,5,6,7", "B6:1,2,3,4,5", "B5:1,2,3,4,1,2,3,4",
               "B12:11"]
WIDE_REFUSED = {(braid, f"sl{n}") for braid in WIDE_BRAIDS for n in (2, 3, 4)
                if rt.sweep_cost(resolve_link(braid).tangle(), n)[0]
                > rt.MAX_SWEEP_COST}


def _links(max_letters):
    named = st.sampled_from(sorted(CATALOG) + sorted(LINK_ALIASES))
    return _mostly(
        st.one_of(named, _braid(max_letters), st.sampled_from(WIDE_BRAIDS),
                  st.sampled_from(HUGE_KINK_LINKS)),
        st.one_of(_link_json(), _GARBAGE))


LINKS = _links(8)
LONG_LINKS = _links(30)

# -- algebras and graphs ------------------------------------------------------

SMALL_ALGEBRAS = ["sl2", "so3", "abelian(1)", "abelian(2)", "abelian(3)",
                  "sl2_irrep(1)", "sl2_irrep(2)"]
# Refused by a size guard or by name.  Kept near the size limits, so that
# without the guards an example costs seconds, not the machine's memory.
REFUSED_ALGEBRAS = ["e8", "sl2(3)", "abelian(0)", "abelian(9)", "abelian(16)",
                    "sln_fundamental(1)", "sln_fundamental(5)",
                    "sl2_irrep(1024)", "abelian(" + "9" * 40 + ")"]


@st.composite
def _algebra_json(draw):
    dim = draw(st.one_of(st.integers(0, 3),
                         st.sampled_from([2.5, True, 100000])))
    index = st.one_of(st.integers(-1, 3), st.sampled_from([1.0, True]))
    entry = st.tuples(index, index, index,
                      st.sampled_from(["1", "-1", "1/2", "0", "x", 1]))
    brackets = draw(st.lists(entry.map(list), max_size=4))
    return json.dumps({"dim": dim, "brackets": brackets})


ALGEBRAS = _mostly(
    st.sampled_from(SMALL_ALGEBRAS + [algebra_to_json(builtin("sl2")[0])]),
    st.one_of(st.sampled_from(REFUSED_ALGEBRAS), _algebra_json(), _GARBAGE))

_FAMILY = generate_trivalent_family(4, random.Random(5))


@st.composite
def _bicolored_json(draw):
    wheel = fermion_wheel(draw(st.sampled_from([2, 4])))
    payload = json.loads(graph_to_json(wheel))
    payload["fermion_loops"] = draw(st.one_of(
        st.integers(-1, 2), st.sampled_from([2.5, True, None, "1"])))
    if draw(st.booleans()):  # cut one gauge edge into two legs
        a, b = payload["gauge_edges"].pop()
        payload["legs"] = [100, 101]
        payload["gauge_edges"] += [[a, 100], [b, 101]]
    return json.dumps(payload)


GRAPHS = _mostly(
    st.one_of(st.sampled_from([graph_to_json(g) for g in _FAMILY]),
              _bicolored_json()),
    st.one_of(_GARBAGE, st.sampled_from(
        ['{"vertices": [[0, 1]]}',
         '{"vertices": [], "legs": [0, 1], "edges": [[0, 1]]}'])))

# -- curves -------------------------------------------------------------------

_POINT = st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), min_size=3,
                  max_size=3)


@st.composite
def _curve_json(draw):
    count = draw(st.integers(0, 6))
    curve = {"points": draw(st.lists(_POINT, min_size=count, max_size=count))}
    if draw(st.booleans()):
        curve["framing"] = draw(st.lists(_POINT, max_size=6))
    return json.dumps(curve if draw(st.booleans()) else [curve, curve])


BUILT_IN_CURVES = ["circle", "hopf", "trefoil", "twisted:2", "twisted:-1"]
CURVES = _mostly(st.sampled_from(BUILT_IN_CURVES),
                 st.one_of(st.just("twisted:x"), _curve_json(), _GARBAGE))
# A built-in curve of n samples has n^2 segment pairs.
SAMPLE_LIMIT = isqrt(MAX_SEGMENT_PAIRS)
# Half above the limit: refusing them allocates nothing.
SAMPLES = st.one_of(_numbers(0, 128),
                    st.sampled_from([str(SAMPLE_LIMIT + 1), str(10 ** 30)]))

# -- command lines ------------------------------------------------------------

_FORMAT = st.sampled_from([[], [], ["--format", "json"], ["--format", "xml"]])


def _required(name, values):
    return values.map(lambda v: [name, v])


def _flag(name, values):
    """Either nothing or the flag followed by one drawn value."""
    return st.one_of(st.just([]), _required(name, values))


def _switch(name):
    return st.sampled_from([[], [name]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda chunks: [x for c in chunks for x in c])


# Mostly small orders; one in four above the limit, or not a number.
_OVER_LIMIT = [MAX_SERIES_ORDER + 1, 10 ** 6, 10 ** 30]
ORDERS = _mostly(st.integers(0, 8).map(str),
                 st.sampled_from([str(n) for n in _OVER_LIMIT]
                                 + ["-1", "1.5", "abc", ""]))

# Carriers of 10, 13 and 1024 dimensions: the character estimate
# n! * n * (order + 1)^2 is above its limit at every order.
REFUSED_IRREPS = [9, 12, 1023]
_IRREP_DIM = {f"sl2_irrep({k})": k + 1 for k in REFUSED_IRREPS}

POLYS = st.one_of(
    st.sampled_from(["q + q^{-1}", "-q^{-1/2} + 2*q^{3/2}", "q^{1/0}", "1",
                     "q^{2} - 3", "0", "q^{1/3}*2"]),
    st.text(alphabet="q^{}-+*/0123 ", max_size=12))

ARGV = {
    "invariant": _argv(
        st.just(["invariant"]), _required("--link", LINKS),
        _required("--algebra", st.sampled_from(["sl2", "sl3", "sl4", "sl5"])),
        st.sampled_from([["--framed"], ["--framed"], ["--jones"], [],
                         ["--framed", "--jones"]]),
        _flag("--expand", ORDERS), _switch("--normalize"), _FORMAT),
    "bracket": _argv(st.just(["bracket"]), _required("--link", LONG_LINKS),
                     _FORMAT),
    "jones": _argv(st.just(["jones"]), _required("--link", LONG_LINKS),
                   _FORMAT),
    "expand": _argv(st.just(["expand"]), _required("--poly", POLYS),
                    _required("--order", ORDERS),
                    _switch("--normalize"), _FORMAT),
    "cohomology": _argv(
        st.just(["cohomology"]), _required("--algebra", ALGEBRAS),
        _flag("--coefficients", st.sampled_from(
            ["trivial", "rep:sl2", "rep:sl2_irrep(2)", "rep:so3", "rep:e8",
             "rep:abelian(2)", "bogus"])),
        _flag("--deformation", st.sampled_from(
            ["none", "cs", "defect", "defect-boundary", "other"])),
        _FORMAT),
    "character": _argv(
        st.just(["character"]),
        _mostly(st.sampled_from([
            ["--algebra", "sl2", "--rep", "sl2"],
            ["--algebra", "sl2", "--rep", "sl2_irrep(2)"],
            ["--algebra", "so3", "--rep", "so3"],
            ["--algebra", "abelian(1)", "--rep", "abelian(1)"]]
            + [["--algebra", "sl2", "--rep", f"sl2_irrep({k})"]
               for k in REFUSED_IRREPS]),
            st.tuples(_required("--algebra", ALGEBRAS),
                      _required("--rep", st.sampled_from(["sl2", "e8"])))
            .map(lambda pair: pair[0] + pair[1])),
        _required("--element", _mostly(
            st.lists(st.sampled_from(["0", "0", "1", "-1", "2", "1/2"]),
                     min_size=3, max_size=3).map(",".join),
            st.sampled_from(["", "x", "1,,2", "1/0", "0,0,0,0,0,0,1,1"]))),
        _required("--order", ORDERS), _FORMAT),
    "weights": _argv(
        st.just(["weights"]), _required("--graph", GRAPHS),
        _required("--algebra", ALGEBRAS),
        _flag("--rep", st.sampled_from(["sl2", "so3", "e8", "abelian(2)"])),
        _flag("--pairing-scale",
              st.sampled_from(["1", "0", "-2", "1/3", "x"])),
        _FORMAT),
    "linking": _argv(
        st.just(["linking"]), _required("--curves", CURVES),
        _flag("--samples", SAMPLES),
        _flag("--epsilon", st.sampled_from(["0.1", "0", "-1", "nan", "inf",
                                            "1e-9", "x"])),
        _FORMAT),
    "verify": _argv(st.just(["verify"]),
                    st.sampled_from(["", "x", "1.5", "0x10", "--", "1e3"])
                    .map(lambda seed: ["--seed", seed])),
}


def _run(argv) -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, f"rtfactor {shlex.join(argv)} exited {exc.code}"
        return 2
    except Exception as exc:
        raise AssertionError(
            f"rtfactor {shlex.join(argv)} raised {exc!r}") from exc
    assert code in (0, 1), f"rtfactor {shlex.join(argv)} returned {code}"
    if code == 0 and dict(zip(argv, argv[1:])).get("--format") == "json":
        json.loads(sink.getvalue(), parse_constant=_not_json)
    return code


def _not_json(constant):
    raise AssertionError(f"JSON output holds {constant}, which is not JSON")


def _huge_kinks(link) -> bool:
    try:
        kinks = json.loads(link).get("framing_kinks")
    except (ValueError, AttributeError):
        return False
    return isinstance(kinks, int) and abs(kinks) >= 10 ** 6


def _float(text) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _must_refuse(argv) -> bool:
    flags = dict(zip(argv, argv[1:]))
    link = flags.get("--link", "")
    if _huge_kinks(link) or (link, flags.get("--algebra")) in WIDE_REFUSED:
        return True
    epsilon = flags.get("--epsilon")
    if epsilon is not None and not 0 < _float(epsilon) < float("inf"):
        return True
    n, order = _IRREP_DIM.get(flags.get("--rep")), flags.get("--order", "")
    if n and order.isdigit() and (
            factorial(n) * n * (int(order) + 1) ** 2 > MAX_CHARACTER_COST):
        return True
    limits = {"--order": MAX_SERIES_ORDER, "--expand": MAX_SERIES_ORDER}
    if set(argv) & set(BUILT_IN_CURVES):
        limits["--samples"] = SAMPLE_LIMIT
    return any(flag in limits and value.isdigit() and int(value) > limits[flag]
               for flag, value in zip(argv, argv[1:]))


@pytest.mark.parametrize("subcommand", sorted(ARGV))
@FUZZ
@given(data=st.data())
def test_cli_exits_0_1_or_2(subcommand, data):
    argv = data.draw(ARGV[subcommand], label="argv")
    code = _run(argv)
    assert code != 0 or not _must_refuse(argv), (
        f"rtfactor {shlex.join(argv)} accepted an input it must refuse")


# Inputs that once ended in a traceback or printed nan: numbers past the
# int/str digit limit in each reader and in printed answers, and curve
# integrals that overflow or whose segment midpoints coincide (two
# diagonals of a cube face).
_CUBE = ('{"points": [[0,0,0],[1,0,0],[1,1,0],[0,1,0],'
         '[0,0,1],[1,0,1],[1,1,1],[0,1,1]]}')
_FAR_HOPF = json.dumps([{"points": (c.points * 1e103).tolist()}
                        for c in hopf_pair(16)])
_SL2 = ["--algebra", "sl2"]
_K4 = ('{"vertices": [[0,1,2],[3,4,5],[6,7,8],[9,10,11]], "edges": '
       '[[0,3],[1,6],[2,9],[4,7],[5,10],[8,11]]}')
EDGE_CASES = {
    "braid-strands": ["invariant", "--link", f"B{_LONG}:", *_SL2, "--framed"],
    "braid-letter": ["invariant", "--link", f"B2:1,{_LONG}", *_SL2,
                     "--framed"],
    "link-json": ["jones", "--link",
                  '{"braid": {"strands": %s, "word": []}}' % _LONG],
    "algebra-json": ["cohomology", "--algebra", '{"dim": %s}' % _LONG],
    "graph-json": ["weights", "--graph", '{"vertices": [], "legs": [%s]}'
                   % _LONG, *_SL2],
    "curve-json": ["linking", "--curves", '{"points": [[%s, 0, 0]]}' % _LONG],
    "poly-coefficient": ["expand", "--poly", f"{_LONG}*q", "--order", "2"],
    "poly-exponent": ["expand", "--poly", f"q^{{{_LONG}}}", "--order", "2"],
    # answers found in under a second whose coefficients pass the limit
    "expanded-coefficient": ["expand", "--poly", f"q^{{{'9' * 60}}}",
                             "--order", "100"],
    "character-coefficient": ["character", *_SL2, "--rep", "sl2",
                              "--element", f"{'9' * 1000},0,0",
                              "--order", "10"],
    "weight-coefficient": ["weights", "--graph", _K4, *_SL2,
                           "--pairing-scale", f"1/{'9' * 3000}"],
    "coincident-midpoints": ["linking", "--curves", _CUBE],
    "overflowing-curves": ["linking", "--curves", _FAR_HOPF],
    "overflowing-push-off": ["linking", "--curves", "twisted:2",
                             "--epsilon", "1e300"],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("form", ["text", "json"])
def test_edge_case_exits_1_with_an_error_line(capsys, name, form):
    assert main(EDGE_CASES[name] + ["--format", form]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
