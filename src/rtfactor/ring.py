"""Exact arithmetic kernel.

Three value types, all immutable:

* ``Rational``      -- alias of ``fractions.Fraction`` (already reduced, positive
  denominator), used everywhere exactness matters.
* ``LaurentPoly``   -- Laurent polynomial in ``u = q^(1/N)`` for a stored root
  order ``N``; binary operations align root orders by lcm.  Integral
  coefficients are stored as ``int`` and only the others as ``Fraction``,
  so the common integer case pays no gcd per operation; the two forms
  compare and hash equal, and the queries return ``Fraction``.
* ``HSeries``       -- power series in ``h`` truncated at an explicit inclusive
  order, with exact rational coefficients.

Canonical text renderings (and exact round-trip parsers) live here too, since
several front ends print the same formats.
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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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
        # exponent num/den in units of 1/root_order
        scaled = Fraction(num, den) * self.root_order
        if scaled.denominator != 1:
            return Fraction(0)
        for e, c in self.terms:
            if e == scaled:
                return rat(c)
        return Fraction(0)

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
        if self.is_zero:
            return LaurentPoly.zero()
        n, a, b = self._aligned(d)
        rem = dict(a)
        d_low, d_low_c = b[0]
        # every quotient exponent lies in [min a - min b, max a - max b]
        top = max(rem) - b[-1][0]
        quo: dict[int, int | Fraction] = {}
        # peel from the bottom; each step strictly raises the lowest exponent
        while rem:
            r_low = min(rem)
            t_e = r_low - d_low
            if t_e > top:
                raise ValueError("not exactly divisible")
            t_c = rat(rem[r_low]) / d_low_c
            quo[t_e] = t_c
            for eb, cb in b:
                e = eb + t_e
                v = rem.get(e, 0) - cb * t_c
                if v:
                    rem[e] = v
                elif e in rem:
                    del rem[e]
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

    def truncate(self, order: int) -> "HSeries":
        return HSeries.make(order, self.coeffs)

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
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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


def series_exp(s: HSeries) -> HSeries:
    """exp of a series with zero constant term."""
    if s.coeffs[0] != 0:
        raise ConstantTermViolation("series_exp needs constant term 0")
    result = HSeries.const(1, s.order)
    power = HSeries.const(1, s.order)
    for k in range(1, s.order + 1):
        power = power * s
        if not power:
            break
        result = result + power * Fraction(1, factorial(k))
    return result


def series_log(s: HSeries) -> HSeries:
    """log of a series with constant term 1."""
    if s.coeffs[0] != 1:
        raise ConstantTermViolation("series_log needs constant term 1")
    x = s - 1
    result = HSeries.zero(s.order)
    power = HSeries.const(1, s.order)
    for k in range(1, s.order + 1):
        power = power * x
        if not power:
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


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


def series_div(a: HSeries, b: HSeries) -> HSeries:
    return a * series_inverse(b.truncate(min(a.order, b.order)))


def exp_rational_series(r: Fraction, order: int) -> HSeries:
    """The series of exp(r*h)."""
    r = rat(r)
    return HSeries.make(order, [r**m / factorial(m) for m in range(order + 1)])


def laurent_to_hseries(p: LaurentPoly, order: int) -> HSeries:
    """Substitute q = e^h, i.e. u^k -> exp(k*h/N) truncated at `order`."""
    result = HSeries.zero(order)
    for e, c in p.terms:
        result = result + exp_rational_series(Fraction(e, p.root_order), order) * c
    return result


# ---------------------------------------------------------------------------
# Canonical text renderings + parsers
# ---------------------------------------------------------------------------

def _fmt_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_laurent(p: LaurentPoly, var: str = "q") -> str:
    """Canonical rendering, ascending exponents: e.g. '-q^{-1/2} + 2*q^{3/2}'."""
    if p.is_zero:
        return "0"
    parts = []
    for e, c in p.terms:
        exp = Fraction(e, p.root_order)
        if exp == 0:
            body = _fmt_rational(abs(c))
        else:
            head = var if exp == 1 else f"{var}^{{{_fmt_rational(exp)}}}"
            body = head if abs(c) == 1 else f"{_fmt_rational(abs(c))}*{head}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?P<var>[A-Za-z]\w*)?"
    r"(?:\^\{?(?P<exp>-?\d+(?:/\d+)?)\}?)?\s*$"
)


def _parse_rational(text: str) -> Fraction:
    """A matched '3' or '3/4'; a zero denominator is a ParseError."""
    den = text.partition("/")[2]
    if den and int(den) == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(text)


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    out = []
    i = 0
    sign = 1
    buf = []
    stripped = text.strip()
    while i < len(stripped):
        ch = stripped[i]
        if ch in "+-" and (not buf or buf[-1] not in "^{(*/"):
            # separator between terms (a leading sign also lands here)
            chunk = "".join(buf).strip()
            if chunk:
                out.append((sign, chunk))
                sign = 1
            if ch == "-":
                sign = -sign
            buf = []
        else:
            buf.append(ch)
        i += 1
    chunk = "".join(buf).strip()
    if chunk:
        out.append((sign, chunk))
    return out


def parse_laurent(text: str, var: str = "q") -> LaurentPoly:
    """Parse the canonical Laurent rendering back to a value."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial text")
    if text == "0":
        return LaurentPoly.zero()
    result = LaurentPoly.zero()
    for sign, chunk in _split_signed_terms(text):
        m = _TERM_RE.match(chunk)
        if not m or (not m.group("coeff") and not m.group("var")):
            raise ParseError(f"cannot parse term {chunk!r}")
        if m.group("var") not in (None, var):
            raise ParseError(f"unexpected variable {m.group('var')!r}, wanted {var!r}")
        if m.group("exp") and not m.group("var"):
            raise ParseError(f"exponent without variable in {chunk!r}")
        coeff = _parse_rational(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var") is None:
            exp = Fraction(0)
        elif m.group("exp") is None:
            exp = Fraction(1)
        else:
            exp = _parse_rational(m.group("exp"))
        result = result + LaurentPoly.q_power(exp.numerator, exp.denominator, sign * coeff)
    return result


def format_hseries(s: HSeries, var: str = "h") -> str:
    """Render 'c0 + c1*h + c2*h^2 + O(h^{order+1})', omitting zero terms."""
    parts = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = _fmt_rational(abs(c))
        else:
            head = var if k == 1 else f"{var}^{k}"
            body = head if abs(c) == 1 else f"{_fmt_rational(abs(c))}*{head}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    if not parts:
        parts = ["0"]
    return "".join(parts) + f" + O({var}^{s.order + 1})"


_BIGO_RE = re.compile(r"\+\s*O\(\s*([A-Za-z]\w*)\^\{?(\d+)\}?\s*\)\s*$")


def parse_hseries(text: str, var: str = "h") -> HSeries:
    """Parse the canonical series rendering back to a value."""
    m = _BIGO_RE.search(text)
    if not m:
        raise ParseError("series text must end with '+ O(h^k)'")
    if m.group(1) != var:
        raise ParseError(f"unexpected variable {m.group(1)!r}, wanted {var!r}")
    order = int(m.group(2)) - 1
    if order < 0:
        raise ParseError("O-term exponent must be >= 1")
    body = text[: m.start()].strip()
    coeffs = list(HSeries.zero(order).coeffs)
    if body and body != "0":
        for sign, chunk in _split_signed_terms(body):
            tm = _TERM_RE.match(chunk)
            if not tm or (not tm.group("coeff") and not tm.group("var")):
                raise ParseError(f"cannot parse series term {chunk!r}")
            if tm.group("var") not in (None, var):
                raise ParseError(f"unexpected variable in {chunk!r}")
            coeff = _parse_rational(tm.group("coeff")) if tm.group("coeff") else Fraction(1)
            if tm.group("var") is None:
                k = 0
            elif tm.group("exp") is None:
                k = 1
            else:
                k = int(tm.group("exp"))
            if k > order:
                raise ParseError(f"term h^{k} beyond truncation order {order}")
            coeffs[k] += sign * coeff
    return HSeries(order, tuple(coeffs))
