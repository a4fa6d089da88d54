"""Exact arithmetic kernel.

Three value types, all immutable:

* ``Rational`` -- alias of ``fractions.Fraction``.
* ``LaurentPoly`` -- Laurent polynomial in ``u = q^(1/N)`` for a stored root
  order ``N``; binary operations align root orders by lcm.  Integral
  coefficients are stored as ``int`` and only the others as ``Fraction``;
  the two forms compare and hash equal, and the queries return ``Fraction``.
* ``HSeries`` -- power series in ``h`` truncated at an explicit inclusive
  order, with ``Fraction`` coefficients.

``laurent_to_hseries`` substitutes q = e^h through power sums of the
exponents, taken over ints.  ``series_exp`` and ``series_log`` share one
power loop.  The canonical text formats of both types share one term
renderer and one signed-term parser, and round-trip exactly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

from .errors import ConstantTermViolation, ParseError, check_size

Rational = Fraction

# Largest HSeries order; at 100 `character` with a 3-dimensional rep takes ~1 s.
MAX_SERIES_ORDER = 100
# Python's default int/str limit: a longer numerator or denominator cannot print.
MAX_PRINTED_DIGITS = 4300


def rat(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to an exact Rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to Rational; pass int/str/Fraction")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Laurent polynomials in u = q^(1/N)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in u = q^(1/root_order), exact rational coefficients.

    Values are kept in a reduced canonical form: no zero coefficients, terms
    sorted by exponent, integral coefficients stored as int, and the root
    order divided down by the gcd of itself and all exponents.  Because of
    that, structural equality implements "equal after re-expressing to a
    common root order".
    """

    root_order: int
    terms: tuple[tuple[int, int | Fraction], ...]  # (exponent of u, coefficient)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_terms(root_order: int, coeffs: dict[int, Fraction] | None = None) -> "LaurentPoly":
        if root_order <= 0:
            raise ValueError("root order must be a positive integer")
        return _canon(root_order, dict(coeffs or {}))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(1, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(1, ((0, 1),))

    @staticmethod
    def const(c) -> "LaurentPoly":
        return _canon(1, {0: rat(c)})

    @staticmethod
    def q_power(num: int, den: int = 1, coeff=1) -> "LaurentPoly":
        """coeff * q^(num/den)."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        return _canon(den, {num: rat(coeff)})

    # -- ring structure ----------------------------------------------------

    def _aligned(self, other: "LaurentPoly"):
        """Common root order and both term tuples re-expressed in it."""
        m, k = self.root_order, other.root_order
        if m == k:
            return m, self.terms, other.terms
        n = lcm(m, k)
        return (n, tuple((e * (n // m), c) for e, c in self.terms),
                tuple((e * (n // k), c) for e, c in other.terms))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b:
            out[e] = out.get(e, 0) + c
        return _canon(n, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.root_order, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canon(self.root_order, {e: c * other for e, c in self.terms})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, a, b = self._aligned(other)
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((eb, cb),) = b
            return _canon(n, {ea + eb: ca * cb for ea, ca in a})
        out: dict[int, int | Fraction] = {}
        for ea, ca in a:
            for eb, cb in b:
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return _canon(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only for monomials")
            e, c = self.terms[0]
            if c * c != 1:
                raise ValueError("negative powers only for unit-coefficient monomials")
            return _canon(self.root_order, {e * k: rat(c) ** k})
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, num: int, den: int = 1) -> Fraction:
        """Coefficient of q^(num/den)."""
        # exponent num/den in units of 1/root_order; a Fraction key equal to
        # an int hashes equal to it
        return rat(dict(self.terms).get(Fraction(num, den) * self.root_order, 0))

    def exponents(self) -> dict[Fraction, Fraction]:
        """Map from q-exponent (as a Fraction) to coefficient."""
        return {Fraction(e, self.root_order): rat(c) for e, c in self.terms}

    def at_one(self) -> Fraction:
        """Evaluate at q = 1."""
        return sum((c for _, c in self.terms), Fraction(0))

    def scale_exponents(self, r: Fraction) -> "LaurentPoly":
        """Substitute q -> q^r for a rational r (e.g. r = -1 mirrors the variable)."""
        r = rat(r)
        if r == 0:
            raise ValueError("exponent scale must be nonzero")
        return _canon(self.root_order * r.denominator,
                      {e * r.numerator: c for e, c in self.terms})

    def divide_exact(self, d: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when d does not divide self."""
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        n, a, b = self._aligned(d)
        rem = dict(a)
        d_low, d_low_c = b[0]
        # every quotient exponent lies in [min a - min b, max a - max b]
        top = max(rem, default=0) - b[-1][0]
        quo: dict[int, int | Fraction] = {}
        # peel from the bottom; each step strictly raises the lowest exponent
        while rem:
            r_low = min(rem)
            t_e = r_low - d_low
            if t_e > top:
                raise ValueError("not exactly divisible")
            t_c, r = divmod(rem[r_low], d_low_c)  # an int when d_low_c divides
            quo[t_e] = t_c = rat(rem[r_low]) / d_low_c if r else t_c
            for eb, cb in b:
                e = eb + t_e
                if v := rem.get(e, 0) - cb * t_c:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        return _canon(n, quo)


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return NotImplemented


def _coefficient(c) -> int | Fraction:
    """Canonical form of a non-int coefficient: int when integral, else a
    reduced Fraction."""
    c = rat(c)
    return c.numerator if c.denominator == 1 else c


def _canon(root_order: int, coeffs: dict[int, int | Fraction]) -> LaurentPoly:
    clean = {e: c if type(c) is int else _coefficient(c)
             for e, c in coeffs.items() if c}
    if not clean:
        return LaurentPoly(1, ())
    if root_order > 1:
        g = gcd(root_order, *clean)
        if g > 1:
            clean = {e // g: c for e, c in clean.items()}
            root_order //= g
    return LaurentPoly(root_order, tuple(sorted(clean.items())))


def drop_zeros(entries: dict) -> dict:
    """Drop zero terms, then empty keys, of {key: {exponent: c}} in place."""
    for key in [key for key, poly in entries.items() if 0 in poly.values()]:
        if kept := {e: c for e, c in entries[key].items() if c}:
            entries[key] = kept
        else:
            del entries[key]
    return entries


# ---------------------------------------------------------------------------
# Truncated series in h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HSeries:
    """Power series in h truncated at degree `order` (inclusive), exact coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(order: int, coeffs=()) -> "HSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        check_size("series order", order, MAX_SERIES_ORDER)
        cs = [rat(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return HSeries(order, tuple(cs))

    @staticmethod
    def const(c, order: int) -> "HSeries":
        return HSeries.make(order, [rat(c)])

    @staticmethod
    def zero(order: int) -> "HSeries":
        return HSeries.make(order, [])

    @staticmethod
    def variable(order: int) -> "HSeries":
        """The series h itself."""
        return HSeries.make(order, [0, 1])

    def __add__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        m = min(self.order, other.order)
        return HSeries.make(m, [self.coeffs[k] + other.coeffs[k] for k in range(m + 1)])

    __radd__ = __add__

    def __neg__(self):
        return HSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return HSeries(self.order, tuple(c * other for c in self.coeffs))
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        m = min(self.order, other.order)
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if not a:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return HSeries(m, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = HSeries.const(1, self.order)
        for _ in range(k):
            result = result * self
        return result

    def __bool__(self):
        return any(self.coeffs)

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]


def _coerce_series(x, order: int):
    if isinstance(x, HSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return HSeries.const(x, order)
    return NotImplemented


def _power_series(x: HSeries, outer) -> HSeries:
    """outer[0] + outer[1]*x + outer[2]*x^2 + ... for x with zero constant
    term, where ``outer`` holds x.order + 1 coefficients."""
    out = [Fraction(outer[0])] + [Fraction(0)] * x.order
    power = HSeries.const(1, x.order)
    for a in outer[1:]:
        power = power * x
        if not power:
            break
        if a:
            for k, c in enumerate(power.coeffs):
                if c:
                    out[k] += c * a
    return HSeries(x.order, tuple(out))


def series_exp(s: HSeries) -> HSeries:
    """exp of a series with zero constant term."""
    if s.coeffs[0] != 0:
        raise ConstantTermViolation("series_exp needs constant term 0")
    return _power_series(s, [Fraction(1, factorial(k)) for k in range(s.order + 1)])


def series_log(s: HSeries) -> HSeries:
    """log of a series with constant term 1."""
    if s.coeffs[0] != 1:
        raise ConstantTermViolation("series_log needs constant term 1")
    return _power_series(s - 1, [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                                                 for k in range(1, s.order + 1)])


def series_inverse(s: HSeries) -> HSeries:
    """Multiplicative inverse; requires nonzero constant term."""
    a0 = s.coeffs[0]
    if a0 == 0:
        raise ValueError("series inverse needs nonzero constant term")
    out = [Fraction(0)] * (s.order + 1)
    out[0] = 1 / a0
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += s.coeffs[k] * out[n - k]
        out[n] = -acc / a0
    return HSeries(s.order, tuple(out))


def _power_sums(p: LaurentPoly, order: int) -> list[Fraction]:
    """sum c * e^m / (N^m m!) over the terms c*u^e of p, for m = 0..order.
    The sums run over ints: the coefficients' denominators are cleared once."""
    den = lcm(*(c.denominator for _, c in p.terms))
    exps = [e for e, _ in p.terms]
    weighted = [c.numerator * (den // c.denominator) for _, c in p.terms]
    sums = []
    for m in range(order + 1):
        if m:
            weighted = [w * e for w, e in zip(weighted, exps)]
            den *= p.root_order * m
        sums.append(Fraction(sum(weighted), den))
    return sums


def laurent_to_hseries(p: LaurentPoly, order: int) -> HSeries:
    """Substitute q = e^h, truncated at `order`: with u = q^(1/N), the h^m
    coefficient of sum c*u^e is sum c*e^m / (N^m m!)."""
    check_size("series order", order, MAX_SERIES_ORDER)  # before any power sum
    return HSeries.make(order, _power_sums(p, order))


# ---------------------------------------------------------------------------
# Canonical text renderings + parsers
# ---------------------------------------------------------------------------

def coefficient_text(c) -> str:
    """str(c) of an int or Fraction, after refusing a numerator or
    denominator of more than MAX_PRINTED_DIGITS digits: the count comes from
    bit lengths and is never below the true one."""
    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    check_size("coefficient digits", bits * 30103 // 100000 + 1,
               MAX_PRINTED_DIGITS)
    return str(c)


def _render(terms, var: str, power: str) -> str:
    """'c0 + c1*x - c2*x^2 ...': the (exponent, coefficient) terms in order,
    zero coefficients left out; x^e is var + power.format(e) for e other than
    0 and 1.  '0' when no term is left."""
    parts = []
    for e, c in terms:
        if not c:
            continue
        a = -c if c < 0 else c
        if e == 0:
            body = coefficient_text(a)
        else:
            head = var if e == 1 else var + power.format(e)
            body = head if a == 1 else f"{coefficient_text(a)}*{head}"
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def format_laurent(p: LaurentPoly, var: str = "q") -> str:
    """Canonical rendering, ascending exponents: e.g. '-q^{-1/2} + 2*q^{3/2}'."""
    n = p.root_order
    terms = p.terms if n == 1 else ((Fraction(e, n), c) for e, c in p.terms)
    return _render(terms, var, "^{{{}}}")


def format_hseries(s: HSeries, var: str = "h") -> str:
    """Render 'c0 + c1*h + c2*h^2 + O(h^{order+1})', omitting zero terms."""
    return _render(enumerate(s.coeffs), var, "^{}") + f" + O({var}^{s.order + 1})"


# A sign separates terms unless it follows one of ^ { ( * /
_SIGN_RE = re.compile(r"(?<![\^{(*/])([+-])")
_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?P<var>[A-Za-z]\w*)?"
    r"(?:\^\{?(?P<exp>-?\d+(?:/\d+)?)\}?)?\s*$"
)


def _parse_rational(text: str) -> int | Fraction:
    """A matched '3', '-3' or '3/4'; a zero denominator, or a number past
    the int/str digit limit, is a ParseError."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ValueError as exc:
        raise ParseError(f"bad number: {exc}") from None
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def _parse_terms(text: str, var: str) -> list[tuple]:
    """(exponent, signed coefficient) of each term of a rendering in `var`,
    as int or Fraction, in the order written."""
    out = []
    sign = 1
    pieces = _SIGN_RE.split(text)
    if len(pieces) > 1 and not pieces[-1].strip():
        raise ParseError(f"sign with no term after it in {text!r}")
    for chunk, separator in zip(pieces[::2], pieces[1::2] + [""]):
        chunk = chunk.strip()
        if chunk:
            m = _TERM_RE.match(chunk)
            if not m or not (m["coeff"] or m["var"]):
                raise ParseError(f"cannot parse term {chunk!r}")
            coeff, name, exp = m.group("coeff", "var", "exp")
            if name not in (None, var):
                raise ParseError(f"unexpected variable {name!r}, wanted {var!r}")
            if exp and not name:
                raise ParseError(f"exponent without variable in {chunk!r}")
            e = _parse_rational(exp) if exp else (1 if name else 0)
            out.append((e, sign * _parse_rational(coeff) if coeff else sign))
            sign = 1
        if separator == "-":
            sign = -sign
    return out


def parse_laurent(text: str, var: str = "q") -> LaurentPoly:
    """Parse the canonical Laurent rendering back to a value."""
    if not text.strip():
        raise ParseError("empty polynomial text")
    terms = _parse_terms(text, var)
    n = lcm(*(e.denominator for e, _ in terms))
    coeffs: dict[int, int | Fraction] = {}
    for e, c in terms:
        k = e.numerator * (n // e.denominator)
        coeffs[k] = coeffs.get(k, 0) + c
    return _canon(n, coeffs)


_BIGO_RE = re.compile(r"\+\s*O\(\s*([A-Za-z]\w*)\^\{?(\d+)\}?\s*\)\s*$")


def parse_hseries(text: str, var: str = "h") -> HSeries:
    """Parse the canonical series rendering back to a value."""
    m = _BIGO_RE.search(text)
    if not m:
        raise ParseError("series text must end with '+ O(h^k)'")
    if m.group(1) != var:
        raise ParseError(f"unexpected variable {m.group(1)!r}, wanted {var!r}")
    order = _parse_rational(m.group(2)) - 1
    if order < 0:
        raise ParseError("O-term exponent must be >= 1")
    coeffs = list(HSeries.zero(order).coeffs)
    for e, c in _parse_terms(text[: m.start()], var):
        if e.denominator != 1 or not 0 <= e <= order:
            raise ParseError(f"term {var}^{{{e}}} is not {var}^k with 0 <= k <= {order}")
        coeffs[int(e)] += c
    return HSeries(order, tuple(coeffs))
