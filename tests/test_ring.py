import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfactor.errors import ConstantTermViolation, DimensionTooLarge, ParseError
from rtfactor.ring import (
    MAX_SERIES_ORDER,
    HSeries,
    LaurentPoly,
    format_hseries,
    format_laurent,
    laurent_to_hseries,
    parse_hseries,
    parse_laurent,
    series_exp,
    series_inverse,
    series_log,
)


def q(num, den=1, coeff=1):
    return LaurentPoly.q_power(num, den, coeff)


# -- Laurent canonical form -------------------------------------------------

def test_root_order_reduces_to_gcd():
    p = q(2, 4)  # q^(2/4) stored as q^(1/2)
    assert p.root_order == 2
    assert p.terms == ((1, Fraction(1)),)


def test_equality_across_root_orders():
    assert q(1, 2) + q(-1, 2) == q(2, 4) + q(-3, 6)


def test_zero_collapses():
    assert (q(1) - q(1)).is_zero
    assert q(1) - q(1) == LaurentPoly.zero()


def test_mixed_root_order_product():
    # q^(1/2) * q^(1/3) = q^(5/6)
    p = q(1, 2) * q(1, 3)
    assert p == q(5, 6)
    assert p.root_order == 6


def test_difference_of_squares():
    s = q(1, 2)
    sinv = q(-1, 2)
    assert (s - sinv) * (s + sinv) == q(1) - q(-1)


def test_monomial_negative_power():
    p = q(3, 2, -1)
    assert p ** -2 == q(-3)
    with pytest.raises(ValueError):
        (q(1) + q(2)) ** -1


def test_unit_monomial_negative_powers_are_exact():
    for sign in (1, -1):
        for k in (-1, -2, -3):
            p = q(3, 2, sign) ** k
            assert p == q(3 * k, 2, sign ** -k)
            assert all(type(c) is int for _, c in p.terms)
    assert q(1, 3, Fraction(-1)) ** -1 == q(-1, 3, -1)


def test_int_and_fraction_coefficient_forms_agree():
    as_int = LaurentPoly(2, ((-1, 3), (1, -1)))
    as_fraction = LaurentPoly(2, ((-1, Fraction(3)), (1, Fraction(-1))))
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert {as_int: "x"}[as_fraction] == "x"
    assert LaurentPoly.from_terms(2, {-1: Fraction(6, 2), 1: -1}) == as_int
    # integral coefficients are stored as int, the others as Fraction
    mixed = q(1, 2, Fraction(4, 2)) + q(1, 1, Fraction(1, 3))
    assert [type(c) for _, c in mixed.terms] == [int, Fraction]
    assert (mixed * 3).terms == ((1, 6), (2, 1))


def test_at_one_and_coeff():
    p = 2 * q(3, 2) - q(-1, 2)
    assert p.at_one() == 1
    assert p.coeff(3, 2) == 2
    assert p.coeff(-1, 2) == -1
    assert p.coeff(7) == 0
    assert type(p.at_one()) is Fraction
    assert type(p.coeff(3, 2)) is Fraction
    assert type(p.coeff(7)) is Fraction
    assert all(type(c) is Fraction for c in p.exponents().values())
    assert type(LaurentPoly.zero().at_one()) is Fraction


def test_scale_exponents_mirror():
    p = 2 * q(3, 2) - q(-1, 2)
    m = p.scale_exponents(Fraction(-1))
    assert m == 2 * q(-3, 2) - q(1, 2)
    assert p.scale_exponents(Fraction(1, 2)) == 2 * q(3, 4) - q(-1, 4)


def test_divide_exact():
    a = q(1) - q(-1)
    b = q(1, 2) - q(-1, 2)
    quo = a.divide_exact(b)
    assert quo == q(1, 2) + q(-1, 2)
    with pytest.raises(ValueError):
        (q(1) + LaurentPoly.const(1)).divide_exact(q(1) - LaurentPoly.const(1))


def test_divide_exact_long_quotient():
    # the quotient has 100 terms, more than any fixed slack past len(a) + len(b)
    one = LaurentPoly.one()
    quo = (q(100) - one).divide_exact(q(1) - one)
    assert quo == LaurentPoly.from_terms(1, {k: 1 for k in range(100)})
    assert (q(-50) - q(50)).divide_exact(q(-1, 2) - q(1, 2)) * (q(-1, 2) - q(1, 2)) \
        == q(-50) - q(50)
    with pytest.raises(ValueError):
        (q(100) + one).divide_exact(q(1) - one)
    with pytest.raises(ValueError):
        q(1).divide_exact(q(2) + one)


def test_divide_exact_undoes_multiplication():
    # seeded p * d / d == p over int and Fraction coefficients, with divisors
    # whose lowest coefficient is 1, 2 (2 + q) or a Fraction; int inputs give
    # int quotients
    rng = random.Random(19)
    one = LaurentPoly.one()
    # the loop value -q^2 - q^-2, a quantum dimension q^-1 + 1 + q, ...
    divisors = [-q(2) - q(-2), q(-1) + 1 + q(1), 2 * q(1) + one, q(1) + 2,
                q(-1, 2) * Fraction(3, 4) + q(3, 2) * 5]
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) if rng.random() < 0.5 else
                  Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(0, 6))]
        p = LaurentPoly.from_terms(rng.choice([1, 2]), {
            rng.randint(-8, 8): c for c in coeffs})
        for d in divisors:
            quo = (p * d).divide_exact(d)
            assert quo == p
            if all(type(c) is int for _, c in (p * d).terms + d.terms):
                assert all(type(c) is int for _, c in quo.terms)
            if p and len(d.terms) > 1:
                with pytest.raises(ValueError, match="not exactly divisible"):
                    (p * d + q(40)).divide_exact(d)


def test_divide_exact_non_integral_quotient():
    one = LaurentPoly.one()
    quo = (q(2) - one).divide_exact(2 * q(1) - 2)
    assert quo == q(1, 1, Fraction(1, 2)) + LaurentPoly.const(Fraction(1, 2))
    assert quo * (2 * q(1) - 2) == q(2) - one
    assert (q(1) * 3).divide_exact(LaurentPoly.const(6)) == q(1, 1, Fraction(1, 2))


def test_laurent_ring_axioms_random():
    rng = random.Random(20260816)

    def rand_poly():
        den = rng.choice([1, 2, 3, 4])
        return LaurentPoly.from_terms(den, {
            rng.randint(-6, 6): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))
        })

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert (a - a).is_zero


# -- Laurent rendering / parsing ---------------------------------------------

def test_format_laurent_canonical():
    p = 2 * q(3, 2) - q(-1, 2)
    assert format_laurent(p) == "-q^{-1/2} + 2*q^{3/2}"
    assert format_laurent(LaurentPoly.zero()) == "0"
    assert format_laurent(LaurentPoly.const(-3)) == "-3"
    assert format_laurent(q(1)) == "q"
    assert format_laurent(q(1, 1, Fraction(1, 2)) + q(2)) == "1/2*q + q^{2}"


def test_format_laurent_other_variable():
    p = q(-4, 1, -1) + q(-3) + q(-1)
    assert format_laurent(p, var="t") == "-t^{-4} + t^{-3} + t^{-1}"


def test_parse_laurent_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        den = rng.choice([1, 2, 3, 6])
        p = LaurentPoly.from_terms(den, {
            rng.randint(-8, 8): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(0, 5))
        })
        assert parse_laurent(format_laurent(p)) == p
        assert parse_laurent(format_laurent(p, var="A"), var="A") == p


def test_parse_laurent_rejects_garbage():
    with pytest.raises(ParseError):
        parse_laurent("")
    with pytest.raises(ParseError):
        parse_laurent("q + *")
    with pytest.raises(ParseError):
        parse_laurent("t^{2}", var="q")
    for dangling in ("q +", "-", "+", "q - ", "1 + q -"):
        with pytest.raises(ParseError, match="sign with no term after it"):
            parse_laurent(dangling)


def test_parse_laurent_reads_repeated_signs():
    assert parse_laurent("q - - q") == 2 * q(1)
    assert parse_laurent("- - q + -1") == q(1) - 1


@pytest.mark.parametrize("text", ["q^{1/0}", "q^{-3/0}", "3/0*q", "1 + 1/0"])
def test_parse_laurent_rejects_zero_denominator(text):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_laurent(text)


def test_parse_hseries_rejects_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_hseries("1/0*h + O(h^2)")


# -- Series ------------------------------------------------------------------

def test_series_order_limit():
    assert HSeries.zero(MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    for order in (MAX_SERIES_ORDER + 1, 10 ** 30, 10 ** 12 - 1):
        message = f"^series order {order} exceeds the limit {MAX_SERIES_ORDER}$"
        with pytest.raises(DimensionTooLarge, match=message):
            HSeries.make(order)
        with pytest.raises(DimensionTooLarge, match=message):
            laurent_to_hseries(q(1), order)
        with pytest.raises(DimensionTooLarge, match=message):
            parse_hseries(f"1 + O(h^{{{order + 1}}})")


def test_series_truncation_to_min_order():
    a = HSeries.make(5, [1, 1, 1, 1, 1, 1])
    b = HSeries.make(3, [1, 0, 0, 0])
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_series_exp_small():
    e = series_exp(HSeries.variable(3))
    assert e.coeffs == (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6))


def test_series_exp_requires_zero_constant():
    with pytest.raises(ConstantTermViolation):
        series_exp(HSeries.const(1, 3))


def test_series_log_requires_unit_constant():
    with pytest.raises(ConstantTermViolation):
        series_log(HSeries.const(2, 3))


def test_series_log_exp_roundtrip():
    s = HSeries.make(4, [0, 1, 1, 0, 0])  # h + h^2
    assert series_log(series_exp(s)) == s
    t = HSeries.make(4, [1, 2, Fraction(1, 3), 0, 5])
    # exp(log t) needs constant term 1
    t = t - 0  # keep as-is; constant is 1
    assert series_exp(series_log(t)) == t


def _dense_power_series(x, outer):
    """sum outer[k] x^k with every power scaled and added in full."""
    power = HSeries.const(1, x.order)
    result = power * outer[0]
    for a in outer[1:]:
        power = power * x
        result = result + power * a
    return result


def test_exp_and_log_match_the_dense_power_sum():
    rng = random.Random(11)
    for order in range(13):
        exp_outer = [Fraction(1, factorial(k)) for k in range(order + 1)]
        log_outer = [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                                     for k in range(1, order + 1)]
        for _ in range(8):
            x = HSeries.make(order, [0] + [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                if rng.random() < 0.6 else 0 for _ in range(order)])
            assert series_exp(x) == _dense_power_series(x, exp_outer)
            assert series_log(x + 1) == _dense_power_series(x, log_outer)


def test_series_inverse():
    s = HSeries.make(4, [1, 1])  # 1 + h
    inv = series_inverse(s)
    assert inv.coeffs == (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
    assert (s * inv) == HSeries.const(1, 4)
    with pytest.raises(ValueError):
        series_inverse(HSeries.zero(3))


def test_series_ring_axioms_random():
    rng = random.Random(99)

    def rand_series(order):
        return HSeries.make(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(order + 1)])

    for _ in range(40):
        order = rng.randint(1, 5)
        a, b, c = (rand_series(order) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


# -- the classical-limit substitution ----------------------------------------

def test_laurent_to_hseries_on_quantum_two():
    # q + q^{-1} at q = e^h: 2 + h^2 + h^4/12 + ...
    p = q(1) + q(-1)
    s = laurent_to_hseries(p, 4)
    assert s.coeffs == (Fraction(2), Fraction(0), Fraction(1),
                        Fraction(0), Fraction(1, 12))


def test_laurent_to_hseries_is_ring_map():
    rng = random.Random(123)
    for _ in range(25):
        den = rng.choice([1, 2, 3])
        mk = lambda: LaurentPoly.from_terms(den, {
            rng.randint(-4, 4): Fraction(rng.randint(-3, 3))
            for _ in range(rng.randint(0, 3))
        })
        a, b = mk(), mk()
        order = 5
        fa, fb = laurent_to_hseries(a, order), laurent_to_hseries(b, order)
        assert laurent_to_hseries(a + b, order) == fa + fb
        assert laurent_to_hseries(a * b, order) == fa * fb
    assert laurent_to_hseries(LaurentPoly.one(), 3) == HSeries.const(1, 3)


def _per_term_expansion(p, order):
    """The expansion one term at a time: c * u^e -> c * exp(e h / N)."""
    result = HSeries.zero(order)
    for e, c in p.terms:
        r = Fraction(e, p.root_order)
        result = result + HSeries.make(
            order, [r ** m / factorial(m) for m in range(order + 1)]) * c
    return result


def test_laurent_to_hseries_matches_per_term_exp_series():
    rng = random.Random(20261019)
    for root_order in range(1, 13):
        for order in range(9):
            p = LaurentPoly.from_terms(root_order, {
                rng.randint(-30, 30): Fraction(rng.randint(-9, 9),
                                               rng.choice([1, 1, 2, 3, 7]))
                for _ in range(rng.randint(0, 6))})
            s = laurent_to_hseries(p, order)
            assert s == _per_term_expansion(p, order), (p, order)
            assert all(type(c) is Fraction for c in s.coeffs)
    # u^1 at N = 2 is exp(h/2)
    assert laurent_to_hseries(q(1, 2), 3).coeffs == (
        Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 48))


# -- series rendering / parsing ------------------------------------------------

def test_format_hseries_canonical():
    s = HSeries.make(4, [2, 0, 1, 0, Fraction(1, 12)])
    assert format_hseries(s) == "2 + h^2 + 1/12*h^4 + O(h^5)"
    assert format_hseries(HSeries.zero(2)) == "0 + O(h^3)"
    assert format_hseries(HSeries.make(1, [-1, -1])) == "-1 - h + O(h^2)"


def test_parse_hseries_roundtrip_random():
    rng = random.Random(5)
    for _ in range(30):
        order = rng.randint(0, 6)
        s = HSeries.make(order, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                 for _ in range(order + 1)])
        assert parse_hseries(format_hseries(s)) == s


@pytest.mark.parametrize("text", ["3^2 + O(h^3)", "h^{-1} + O(h^3)",
                                  "h^{1/2} + O(h^3)", "1 + h^3 + O(h^3)",
                                  "1 + h - + O(h^3)", "- + O(h^3)"])
def test_parse_hseries_rejects_terms_that_are_not_powers_of_h(text):
    with pytest.raises(ParseError):
        parse_hseries(text)


def test_parse_hseries_needs_bigo():
    with pytest.raises(ParseError):
        parse_hseries("1 + h")
    with pytest.raises(ParseError):
        parse_hseries("1 + h^9 + O(h^3)")


# -- round trips of the canonical renderings -------------------------------------

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=200,
                      deadline=None)
VARIABLES = st.sampled_from(["q", "t", "A", "h"])
COEFFS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
LAURENT = st.builds(LaurentPoly.from_terms, st.integers(1, 12),
                    st.dictionaries(st.integers(-40, 40), COEFFS, max_size=8))
SERIES = st.integers(0, 10).flatmap(lambda order: st.lists(
    COEFFS, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HSeries.make(order, cs)))


@ROUND_TRIP
@given(p=LAURENT, var=VARIABLES)
def test_laurent_rendering_round_trips(p, var):
    text = format_laurent(p, var)
    assert parse_laurent(text, var) == p
    assert format_laurent(parse_laurent(text, var), var) == text


@ROUND_TRIP
@given(s=SERIES, var=VARIABLES)
def test_series_rendering_round_trips(s, var):
    text = format_hseries(s, var)
    assert parse_hseries(text, var) == s
    assert format_hseries(parse_hseries(text, var), var) == text
