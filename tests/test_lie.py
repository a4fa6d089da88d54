import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from rtfactor import ce, weights
from rtfactor._linalg import exact_rank
from rtfactor.errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    DimensionTooLarge,
    JacobiViolation,
    ParseError,
    UnknownName,
)
from rtfactor.lie import (
    MAX_IRREP_DIM,
    MAX_PARSED_ALGEBRA_DIM,
    Representation,
    algebra_from_json,
    algebra_to_json,
    builtin,
    check_representation,
    killing_form,
)

from test_linalg import _dense_algebra, _rebased

ALL_BUILTINS = ["sl2", "sl3", "so3", "sl2_irrep(3)", "sln_fundamental(4)", "abelian(3)"]


def test_sl2_constants_accepted():
    g, rep = builtin("sl2")
    assert g.dim == 3
    # [H,E] = 2E, [E,F] = H
    assert g.structure_constants[0][1] == (Fraction(0), Fraction(2), Fraction(0))
    assert g.structure_constants[1][2] == (Fraction(1), Fraction(0), Fraction(0))
    assert g.brackets[0][1] == {1: 2} and g.brackets[1][2] == {0: 1}
    assert rep.dim == 2
    assert rep.matrices[0] == ((1, 0), (0, -1))


def test_antisymmetry_rejected():
    f = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    f[1][2][0] = 1
    f[2][1][0] = 1
    with pytest.raises(AntisymmetryViolation) as exc:
        _dense_algebra(f)
    assert exc.value.indices == (1, 2, 0)
    assert str(exc.value).count("not antisymmetric") == 1


def test_jacobi_rejected():
    # antisymmetric but non-Jacobi: [e0,e1]=e2, [e0,e2]=e0, [e1,e2]=0
    # (the cyclic sum on (e0,e1,e2) leaves -e2)
    f = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b, c) in [(0, 1, 2), (0, 2, 0)]:
        f[a][b][c] = Fraction(1)
        f[b][a][c] = Fraction(-1)
    with pytest.raises(JacobiViolation) as exc:
        _dense_algebra(f)
    assert exc.value.indices == (0, 1, 2, 2)
    assert str(exc.value).count("Jacobi identity fails") == 1


def _first_jacobi_failure(f):
    """Dense oracle: the first (a, b, c, k), a < b < c, whose cyclic sum
    over every m is nonzero, or None."""
    d = len(f)
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                for k in range(d):
                    acc = sum((f[a][b][m] * f[m][c][k]
                               + f[b][c][m] * f[m][a][k]
                               + f[c][a][m] * f[m][b][k] for m in range(d)),
                              Fraction(0))
                    if acc:
                        return (a, b, c, k)
    return None


@pytest.mark.parametrize("seed", range(12))
def test_jacobi_violation_indices_match_dense_oracle(seed):
    g, _ = builtin("sl3")
    f = [[list(row) for row in plane] for plane in g.structure_constants]
    rng = random.Random(seed)
    a, b = rng.sample(range(g.dim), 2)
    c = rng.randrange(g.dim)
    delta = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    f[a][b][c] += delta
    f[b][a][c] -= delta
    expected = _first_jacobi_failure(f)
    assert expected is not None
    with pytest.raises(JacobiViolation) as exc:
        _dense_algebra(f)
    assert exc.value.indices == expected


def test_abelian_accepted():
    g, _ = builtin("abelian(3)")
    assert g.dim == 3
    assert all(not any(row) for plane in g.structure_constants for row in plane)


def test_killing_form_sl2():
    g, _ = builtin("sl2")
    k = killing_form(g)
    assert k[0][0] == 8
    assert k[1][2] == k[2][1] == 4
    assert k[0][1] == k[0][2] == k[1][1] == k[2][2] == 0
    assert exact_rank(k) == 3  # nondegenerate: sl2 is semisimple


def test_killing_form_so3():
    g, _ = builtin("so3")
    k = killing_form(g)
    assert k == [[-2 if i == j else 0 for j in range(3)] for i in range(3)]


def _dense_killing_form(g):
    """Oracle: all d^4 products f_am^k f_bk^m of the dense constants."""
    d, f = g.dim, g.structure_constants
    return [[sum((f[a][m][k] * f[b][k][m] for m in range(d) for k in range(d)),
                 Fraction(0)) for b in range(d)] for a in range(d)]


@pytest.mark.parametrize("name, rebase", [
    ("sl2", False), ("so3", False), ("sl3", False),
    ("sln_fundamental(4)", False), ("sl3", True)])
def test_killing_form_matches_dense_oracle(name, rebase):
    g, rep = builtin(name)
    if rebase:
        g, _ = _rebased(g, rep, random.Random(5))
    k = killing_form(g)
    assert k == _dense_killing_form(g)
    assert all(type(v) is Fraction for row in k for v in row)


def test_killing_form_abelian_zero():
    g, _ = builtin("abelian(3)")
    k = killing_form(g)
    assert all(v == 0 for row in k for v in row)
    assert exact_rank(k) == 0


def test_killing_pairing_invariant_for_semisimple():
    # ad-invariance: K([e_a, e_b], e_c) + K(e_b, [e_a, e_c]) = 0
    for name in ALL_BUILTINS:
        g, _ = builtin(name)
        k, f, d = killing_form(g), g.structure_constants, g.dim
        assert not any(sum(f[a][b][m] * k[m][c] + f[a][c][m] * k[b][m]
                           for m in range(d))
                       for a in range(d) for b in range(d) for c in range(d)), name


def test_all_builtins_validate():
    for name in ALL_BUILTINS:
        g, rep = builtin(name)
        _dense_algebra([[list(g.structure_constants[a][b]) for b in range(g.dim)]
                          for a in range(g.dim)])
        if rep is not None:
            check_representation(g, rep)


def test_sl2_irrep_dimensions_and_weights():
    g, rep = builtin("sl2_irrep(4)")
    assert rep.dim == 5
    h = rep.matrices[0]
    assert [h[i][i] for i in range(5)] == [4, 2, 0, -2, -4]
    check_representation(g, rep)


def test_sln_fundamental_is_traceless():
    _, rep = builtin("sln_fundamental(3)")
    assert rep.dim == 3
    for m in rep.matrices:
        assert sum(m[i][i] for i in range(3)) == 0


# -- the sparse builtins against their dense construction ---------------------

def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _dense_sl2():
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    f = [_zeros(3) for _ in range(3)]
    for a, b, c, v in [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]:
        f[a][b][c], f[b][a][c] = Fraction(v), Fraction(-v)
    return f, [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]


def _dense_sln(n):
    """sl_n constants from dense matrix commutators expanded in the basis
    E_ij (i != j, lexicographic), then H_i = E_ii - E_{i+1,i+1}."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    basis = []
    for i, j in offdiag:
        m = _zeros(n)
        m[i][j] = Fraction(1)
        basis.append(m)
    for i in range(n - 1):
        m = _zeros(n)
        m[i][i], m[i + 1][i + 1] = Fraction(1), Fraction(-1)
        basis.append(m)

    def expand(m):
        partial, diagonal = Fraction(0), []
        for i in range(n - 1):
            partial += m[i][i]
            diagonal.append(partial)
        return [m[i][j] for i, j in offdiag] + diagonal

    def commutator(x, y):
        return [[sum(x[i][t] * y[t][j] - y[i][t] * x[t][j] for t in range(n))
                 for j in range(n)] for i in range(n)]

    return [[expand(commutator(x, y)) for y in basis] for x in basis], basis


def _dense_so3():
    # [L_i, L_j] = sum_k epsilon_ijk L_k; the rep is the adjoint
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    f = [[[Fraction(eps.get((a, b, c), 0)) for c in range(3)] for b in range(3)]
         for a in range(3)]
    return f, [[[f[a][b][c] for b in range(3)] for c in range(3)] for a in range(3)]


def _dense_sl2_irrep(k):
    n = k + 1
    H, E, F = _zeros(n), _zeros(n), _zeros(n)
    for i in range(n):
        H[i][i] = Fraction(k - 2 * i)
        if i >= 1:
            E[i - 1][i] = Fraction(i * (k - i + 1))
        if i + 1 < n:
            F[i + 1][i] = Fraction(1)
    return _dense_sl2()[0], [H, E, F]


_DENSE_BUILTINS = {
    "sl2": _dense_sl2,
    "sl3": lambda: _dense_sln(3),
    "so3": _dense_so3,
    "sln_fundamental(4)": lambda: _dense_sln(4),
    "abelian(3)": lambda: ([_zeros(3) for _ in range(3)], [[[0]]] * 3),
    **{f"sl2_irrep({k})": lambda k=k: _dense_sl2_irrep(k) for k in (0, 1, 4, 31)},
}


@pytest.mark.parametrize("name", list(_DENSE_BUILTINS))
def test_builtin_matches_dense_construction(name):
    f, mats = _DENSE_BUILTINS[name]()
    g, rep = builtin(name)
    assert g.structure_constants == tuple(tuple(map(tuple, plane)) for plane in f)
    assert g == _dense_algebra(f)
    assert rep.matrices == tuple(tuple(map(tuple, m)) for m in mats)
    assert all(type(v) is Fraction for m in rep.matrices for row in m for v in row)
    dense = Representation(rep.dim, mats)
    assert dense.rows == rep.rows
    assert dense.matrices == tuple(tuple(map(tuple, m)) for m in mats)
    assert all(v and type(v) is int for m in rep.rows for row in m
               for v in row.values())


def test_builtin_is_cached():
    assert builtin("sl3") is builtin("sl3")


def test_unknown_name_raises():
    for bad in ["e8", "sl2_irrep", "abelian", "sl(2)", ""]:
        with pytest.raises(UnknownName):
            builtin(bad)


def test_bad_representation_rejected():
    g, _ = builtin("sl2")
    bad = Representation(2, (((1, 0), (0, -1)),) * 3)
    with pytest.raises(ValueError):
        check_representation(g, bad)
    with pytest.raises(DimensionMismatch):
        check_representation(g, Representation(2, (((1, 0), (0, -1)),)))
    for dim, short in [(2, ((1, 0),)), (3, ((1, 0), (0, -1), (0, 0)))]:
        with pytest.raises(DimensionMismatch, match="wrong shape"):
            Representation(dim, (((1, 0), (0, -1)), short))


@pytest.mark.parametrize("name, a, entry, delta, pair", [
    ("sl2", 1, (0, 1), Fraction(1, 3), (1, 2)),
    ("sl2", 2, (1, 0), 1, (1, 2)),
    ("so3", 1, (0, 2), Fraction(1, 3), (0, 1)),
    ("sl3", 1, (0, 2), Fraction(1, 3), (0, 3)),
    ("sl3", 7, (2, 0), 1, (0, 7)),
    ("sl2_irrep(3)", 2, (3, 0), 1, (0, 2))])
def test_representation_perturbed_in_one_entry_rejected(name, a, entry, delta, pair):
    g, rep = builtin(name)
    mats = [[list(row) for row in m] for m in rep.matrices]
    mats[a][entry[0]][entry[1]] += delta
    bad = Representation(rep.dim, tuple(tuple(map(tuple, m)) for m in mats))
    message = f"representation not bracket compatible on basis pair {pair}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check_representation(g, bad)


def test_json_roundtrip_all_builtins():
    for name in ALL_BUILTINS:
        g, _ = builtin(name)
        assert algebra_from_json(algebra_to_json(g)).structure_constants == g.structure_constants


def test_json_rational_coefficients():
    g = algebra_from_json('{"dim": 2, "brackets": [[0, 1, 1, "1/2"], [1, 0, 1, "-1/2"]]}')
    assert g.structure_constants[0][1] == (Fraction(0), Fraction(1, 2))
    assert g.brackets[0][1] == {1: Fraction(1, 2)}


@pytest.mark.parametrize("text", [
    '{bad',
    '[1, 2]',
    '{"brackets": []}',
    '{"dim": 2, "brackets": [[0, 1, 1, "abc"]]}',
    '{"dim": 2, "brackets": [[0, 1, 1, "1/0"]]}',
    '{"dim": 2, "brackets": [[0, 1]]}',
    '{"dim": 2, "brackets": [["x", 1, 1, "1"]]}',
    '{"dim": 2, "brackets": [[0, 1, 1.0, "1"]]}',
    '{"dim": 2, "brackets": 5}',
])
def test_algebra_json_parse_errors(text):
    with pytest.raises(ParseError):
        algebra_from_json(text)


def test_algebra_json_index_out_of_range():
    with pytest.raises(DimensionMismatch):
        algebra_from_json('{"dim": 2, "brackets": [[0, 2, 1, "1"]]}')


@pytest.mark.parametrize("dim", ["0", "2.5", "true", '"3"'])
def test_algebra_json_dim_must_be_positive_integer(dim):
    with pytest.raises(DimensionMismatch):
        algebra_from_json('{"dim": %s}' % dim)


def test_algebra_json_size_limit_admits_every_command():
    assert MAX_PARSED_ALGEBRA_DIM >= weights.MAX_WEIGHT_ALGEBRA_DIM
    # the cochain guard admits the bulk complex of every parsed algebra
    g, _ = builtin(f"abelian({MAX_PARSED_ALGEBRA_DIM})")
    assert ce.cs_deformation_cohomology(g) == (
        comb(MAX_PARSED_ALGEBRA_DIM, 3), comb(MAX_PARSED_ALGEBRA_DIM, 4))
    # character takes a JSON algebra equal to a builtin with a representation
    assert MAX_PARSED_ALGEBRA_DIM >= builtin("sln_fundamental(4)")[0].dim
    dim = MAX_PARSED_ALGEBRA_DIM
    with pytest.raises(DimensionTooLarge, match=re.escape(
            f"algebra dimension {dim + 1} exceeds the limit {dim}") + "$"):
        algebra_from_json(json.dumps({"dim": dim + 1}))


def _refusal_under_memory_cap(call: str) -> str:
    """Run ``call`` in a child process under a 1 GiB address-space cap and
    return the DimensionTooLarge message it raises.  Allocating the
    10^10 bracket rows of a 100000-dim algebra there fails with
    MemoryError instead of exhausting the machine."""
    code = ("import json\n"
            "from rtfactor.errors import DimensionTooLarge\n"
            "from rtfactor.lie import algebra_from_json, builtin\n"
            "try:\n"
            f"    {call}\n"
            "except DimensionTooLarge as exc:\n"
            "    print(exc)\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_memory,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_huge_algebra_json_refused_before_allocating():
    assert _refusal_under_memory_cap(
        "algebra_from_json(json.dumps({'dim': 100000}))") == (
        f"algebra dimension 100000 exceeds the limit {MAX_PARSED_ALGEBRA_DIM}")


def test_huge_builtin_refused_before_allocating():
    assert _refusal_under_memory_cap("builtin('abelian(100000)')") == (
        f"algebra dimension 100000 exceeds the limit {MAX_PARSED_ALGEBRA_DIM}")


@pytest.mark.parametrize("name, message", [
    ("abelian(16)",
     f"algebra dimension 16 exceeds the limit {MAX_PARSED_ALGEBRA_DIM}"),
    ("sln_fundamental(5)",
     f"algebra dimension 24 exceeds the limit {MAX_PARSED_ALGEBRA_DIM}"),
    ("sl2_irrep(1024)",
     f"sl2_irrep carrier dimension 1025 exceeds the limit {MAX_IRREP_DIM}"),
])
def test_builtin_size_guard_refuses_before_building(name, message):
    # Refused by name and size, before any bracket row or matrix is built.
    with pytest.raises(DimensionTooLarge, match=re.escape(message) + "$"):
        builtin(name)


def test_builtin_size_guard_admits_the_limits():
    assert builtin(f"abelian({MAX_PARSED_ALGEBRA_DIM})")[0].dim == (
        MAX_PARSED_ALGEBRA_DIM)
    assert builtin("sln_fundamental(4)")[0].dim <= MAX_PARSED_ALGEBRA_DIM


def test_builtin_parameter_with_too_many_digits_is_unknown():
    with pytest.raises(UnknownName):
        builtin("abelian(" + "9" * 5000 + ")")
