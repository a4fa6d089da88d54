import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from rtfactor.clifford import (
    CliffordElement,
    berezin_determinant,
    charged_character,
    cl_element,
    clifford_multiply,
    hh0_dimension,
    partition_function_identity,
    spinor_matrix,
    supertrace_via_top,
    todd_series,
    wheel_term,
)
from rtfactor.errors import DimensionMismatch, DimensionTooLarge, TraceNotZero
from rtfactor.lie import Representation, builtin
from rtfactor.ring import HSeries, series_exp, series_log


def leibniz_det(m):
    n = len(m)
    acc = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(sign)
        for i in range(n):
            prod *= m[i][perm[i]]
        acc += prod
    return acc


def cl_one(d):
    return cl_element(d, {(0, 0): 1})


def x_gen(d, i):
    return cl_element(d, {(0, 1 << i): 1})


def xbar_gen(d, i):
    return cl_element(d, {(1 << i, 0): 1})


def rand_element(rng, d):
    return cl_element(d, {
        (rng.randrange(1 << d), rng.randrange(1 << d)): Fraction(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 5))
    })


# -- algebra relations ---------------------------------------------------------

def test_defining_relations_d1():
    x, xb = x_gen(1, 0), xbar_gen(1, 0)
    assert clifford_multiply(x, xb) + clifford_multiply(xb, x) == cl_one(1)
    assert clifford_multiply(x, x).is_zero
    assert clifford_multiply(xb, xb).is_zero
    xxb = clifford_multiply(x, xb)
    assert clifford_multiply(xxb, xxb) == xxb


def test_anticommutators_distinct_indices():
    d = 3
    for i in range(d):
        for j in range(d):
            x_i, x_j = x_gen(d, i), x_gen(d, j)
            b_i, b_j = xbar_gen(d, i), xbar_gen(d, j)
            acomm = clifford_multiply(x_i, b_j) + clifford_multiply(b_j, x_i)
            want = cl_one(d) if i == j else CliffordElement(d, ())
            assert acomm == want, (i, j)
            assert (clifford_multiply(x_i, x_j) + clifford_multiply(x_j, x_i)).is_zero
            assert (clifford_multiply(b_i, b_j) + clifford_multiply(b_j, b_i)).is_zero


def test_multiplication_associative_random():
    rng = random.Random(31)
    for _ in range(30):
        d = rng.choice([1, 2])
        a, b, c = (rand_element(rng, d) for _ in range(3))
        assert clifford_multiply(clifford_multiply(a, b), c) == \
            clifford_multiply(a, clifford_multiply(b, c))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        clifford_multiply(x_gen(1, 0), x_gen(2, 0))


# -- spinor representation ----------------------------------------------------

def test_spinor_generators_d1():
    assert spinor_matrix(x_gen(1, 0)).matrix == ((0, 0), (1, 0))
    assert spinor_matrix(xbar_gen(1, 0)).matrix == ((0, 1), (0, 0))
    assert spinor_matrix(cl_one(1)).matrix == ((1, 0), (0, 1))


def test_spinor_is_algebra_map_random():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        a, b = rand_element(rng, d), rand_element(rng, d)
        pa, pb = spinor_matrix(a).matrix, spinor_matrix(b).matrix
        prod = spinor_matrix(clifford_multiply(a, b)).matrix
        n = 1 << d
        direct = tuple(tuple(sum((pa[i][k] * pb[k][j] for k in range(n)), Fraction(0))
                             for j in range(n)) for i in range(n))
        assert prod == direct


def test_spinor_surjective():
    # the linearized map word -> matrix has full rank 4^d
    from rtfactor._linalg import exact_rank
    for d in [1, 2]:
        rows = []
        for b in range(1 << d):
            for x in range(1 << d):
                m = spinor_matrix(CliffordElement(d, (((b, x), Fraction(1)),))).matrix
                rows.append([v for row in m for v in row])
        assert exact_rank(rows) == 4 ** d


def test_supertrace_examples():
    # a*xbar x + b*xbar + c*x + e*x xbar  ->  a - e
    d = 1
    a, b, c, e = Fraction(5), Fraction(-2), Fraction(7), Fraction(3)
    elem = (clifford_multiply(xbar_gen(1, 0), x_gen(1, 0)).scale(a)
            + xbar_gen(1, 0).scale(b) + x_gen(1, 0).scale(c)
            + clifford_multiply(x_gen(1, 0), xbar_gen(1, 0)).scale(e))
    assert supertrace_via_top(elem) == a - e
    assert supertrace_via_top(cl_one(1)) == 0
    assert supertrace_via_top(x_gen(2, 0)) == 0


def test_supertrace_matches_spinor_supertrace_random():
    rng = random.Random(13)
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        a = rand_element(rng, d)
        assert supertrace_via_top(a) == spinor_matrix(a).supertrace()


# -- Hochschild degree zero ----------------------------------------------------

def test_hh0_is_one_dimensional():
    assert hh0_dimension(1) == 1
    assert hh0_dimension(2) == 1
    assert hh0_dimension(3) == 1


def test_hh0_guard():
    with pytest.raises(DimensionTooLarge):
        hh0_dimension(4)


# -- Todd series and wheel -----------------------------------------------------

def test_todd_series_pinned():
    td = todd_series(4)
    assert td.coeffs == (Fraction(1), Fraction(1, 2), Fraction(1, 12),
                         Fraction(0), Fraction(-1, 720))


def test_wheel_zero_representation():
    g, rep = builtin("abelian(2)")
    w = wheel_term(rep, [1, 1], 6)
    assert not w  # trivial rep: Td(0) = 1, det = 1


def test_wheel_sl2_cartan():
    g, rep = builtin("sl2")
    w = wheel_term(rep, [1, 0, 0], 6)
    assert w.coeffs[0] == 0
    assert w.coeffs[2] == Fraction(1, 12)
    assert w.coeffs[1] == w.coeffs[3] == w.coeffs[5] == 0


def test_wheel_matches_trace_route():
    # independent route: wheel = -sum_k L_k * trace(M^{2k}) where
    # L(s) = log(e^{-s/2} Td(s)) is an even scalar series
    order = 8
    td = todd_series(order)
    half = HSeries.make(order, [Fraction((-1) ** k, 2 ** k * factorial(k))
                                for k in range(order + 1)])  # e^{-s/2}
    L = series_log(half * td)
    assert all(L.coeffs[k] == 0 for k in range(1, order + 1, 2))
    for name, coords in [("sl2", [1, 0, 0]), ("sl2", [2, 1, 1]),
                         ("sl3", [0, 0, 0, 0, 0, 0, 1, 3])]:
        g, rep = builtin(name)
        n = rep.dim
        m = [[Fraction(0)] * n for _ in range(n)]
        for a, ca in enumerate(coords):
            for i in range(n):
                for j in range(n):
                    m[i][j] += ca * rep.matrices[a][i][j]
        expected = HSeries.zero(order)
        power = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        traces = [Fraction(n)]
        for _ in range(order):
            power = [[sum((power[i][k] * m[k][j] for k in range(n)), Fraction(0))
                      for j in range(n)] for i in range(n)]
            traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
        expected = HSeries.make(order, [
            -L.coeffs[k] * traces[k] for k in range(order + 1)])
        assert wheel_term(rep, coords, order) == expected, (name, coords)


# -- charged character ---------------------------------------------------------

def test_character_sl2_cartan():
    g, rep = builtin("sl2")
    ch = charged_character(g, rep, [1, 0, 0], 6)
    # -(e^{t/2} - e^{-t/2})^2 = -t^2 - t^4/12 - t^6/360
    assert ch.coeffs[2] == -1
    assert ch.coeffs[4] == Fraction(-1, 12)
    assert ch.coeffs[6] == Fraction(-1, 360)
    assert all(ch.coeffs[k] == 0 for k in [0, 1, 3, 5])


def test_character_nilpotent_is_zero():
    g, rep = builtin("sl2")
    ch = charged_character(g, rep, [0, 1, 0], 6)
    assert not ch


def test_character_requires_traceless():
    g, rep = builtin("abelian(1)")
    one = Representation(1, (((Fraction(1),),),))
    with pytest.raises(TraceNotZero):
        charged_character(g, one, [1], 4)


def test_character_weight_product():
    # diagonal image: product over weights of (e^{t w/2} - e^{-t w/2})
    order = 6
    g, rep = builtin("sl2_irrep(2)")  # weights 2, 0, -2
    ch = charged_character(g, rep, [1, 0, 0], order)
    assert not ch  # zero weight kills the product
    g, rep = builtin("sl3")
    coords = [0] * 6 + [1, 3]  # diag(1, 2, -3)
    ch = charged_character(g, rep, coords, order)
    expected = HSeries.const(1, order)
    for w in [1, 2, -3]:
        plus = HSeries.make(order, [Fraction(w) ** k / (2 ** k * factorial(k))
                                    for k in range(order + 1)])
        minus = HSeries.make(order, [Fraction(-w) ** k / (2 ** k * factorial(k))
                                     for k in range(order + 1)])
        expected = expected * (plus - minus)
    assert ch == expected


def _exp_minus_identity(m, order):
    """e^{tM} - I as a matrix of series: sum over k >= 1 of t^k M^k / k!."""
    n = len(m)
    power = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    coeffs = [[[Fraction(0)] for _ in range(n)] for _ in range(n)]
    for k in range(1, order + 1):
        power = [[sum((power[i][a] * m[a][j] for a in range(n)), Fraction(0))
                  for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                coeffs[i][j].append(power[i][j] / factorial(k))
    return [[HSeries.make(order, c) for c in row] for row in coeffs]


@pytest.mark.parametrize("name", ["sl2", "so3", "sl2_irrep(2)",
                                  "sl2_irrep(3)", "sl3"])
def test_character_non_diagonal_matches_exp_minus_identity(name):
    # trace M = 0 gives det(e^{tM/2} - e^{-tM/2}) = det(e^{tM} - I)
    rng = random.Random(9025)
    g, rep = builtin(name)
    n = rep.dim
    for order in [0, 1, rng.randint(2, 5), 6]:
        coords = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(g.dim)]
        m = [[sum((c * rep.matrices[a][i][j] for a, c in enumerate(coords)),
                  Fraction(0)) for j in range(n)] for i in range(n)]
        assert any(m[i][j] for i in range(n) for j in range(i)), coords
        assert any(m[i][j] for i in range(n) for j in range(i + 1, n)), coords
        expected = leibniz_det(_exp_minus_identity(m, order))
        got = charged_character(g, rep, coords, order)
        assert got == expected, (coords, order)


# -- Berezin route and the partition function identity --------------------------

def test_berezin_equals_determinant_random():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert berezin_determinant(m) == leibniz_det(m)


def test_partition_identity_sl2():
    g, rep = builtin("sl2")
    res = partition_function_identity(g, rep, [1, 0, 0], 6)
    assert res.holds
    assert res.hbar_power == -4
    assert res.lhs == res.rhs
    assert res.lhs.coeffs[2] == -1


def test_partition_identity_sl3():
    g, rep = builtin("sl3")
    res = partition_function_identity(g, rep, [0] * 6 + [1, 3], 6)
    assert res.holds
    assert res.hbar_power == -6


def test_partition_identity_generic_cartan_plus_nilpotent():
    # non-diagonal but traceless element
    g, rep = builtin("sl2")
    res = partition_function_identity(g, rep, [2, 1, 1], 8)
    assert res.holds


def test_partition_identity_zero_rep():
    g, rep = builtin("abelian(1)")
    res = partition_function_identity(g, rep, [5], 6)
    assert res.holds
    assert not res.lhs
    assert not res.rhs
    assert res.hbar_power == -2
