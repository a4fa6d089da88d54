"""Clifford algebra on V + V*, its spinor representation, and the charged
fermion character identities.

Elements are stored in a canonical basis of words: all barred generators
before all unbarred ones, each block strictly ascending.  The defining
relations

    x_i xbar_j + xbar_j x_i = delta_ij,   x_i x_j + x_j x_i = 0,
    xbar_i xbar_j + xbar_j xbar_i = 0

are applied during multiplication.  Generator indices are 0-based.

The series identities at the end (character, wheel term, partition function)
compare a Grassmann-integral route against a matrix-determinant route; both
sides are computed independently.  Each matrix there is a scalar series f
taken at tM, f(tM) = sum_k f_k t^k M^k, formed by one helper from the
powers of M: e^{s/2} - e^{-s/2} for the character, e^{-s/2} Td(s) for the
wheel, the product taken on scalars.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from ._linalg import exact_rank, mat_mul, row_mul_add
from .errors import DimensionMismatch, TraceNotZero, check_size
from .lie import LieAlgebra, Representation
from .ring import (MAX_SERIES_ORDER, HSeries, rat, series_exp, series_inverse,
                   series_log)

MAX_HH_DIM = 3
# n! * n * (order + 1)^2 for an n-dim representation: the work of the
# determinant over all n! permutations.  Measured with the slowest elements
# tried: n = 4 at order 100 takes 1.3 s, n = 8 at order 1 2.6 s, n = 7 at
# order 6 0.5 s; n = 8 at order 4 (8064000) takes 3.4 s, n = 9 at order 4 34 s.
MAX_CHARACTER_COST = 2 ** 21


@dataclass(frozen=True)
class CliffordElement:
    d: int
    # sorted tuple of ((bar_mask, x_mask), coeff); masks over d bits
    terms: tuple

    def coeff(self, bar_mask: int, x_mask: int) -> Fraction:
        for (b, x), c in self.terms:
            if b == bar_mask and x == x_mask:
                return c
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if self.d != other.d:
            raise DimensionMismatch("mismatched generator counts")
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, Fraction(0)) + c
        return cl_element(self.d, acc)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + other.scale(-1)

    def scale(self, c) -> "CliffordElement":
        c = rat(c)
        return cl_element(self.d, {w: cc * c for w, cc in self.terms})


def cl_element(d: int, terms: dict) -> CliffordElement:
    clean = {}
    for (b, x), c in terms.items():
        c = rat(c)
        if not (0 <= b < (1 << d) and 0 <= x < (1 << d)):
            raise ValueError("word mask out of range")
        if c:
            clean[(b, x)] = c
    return CliffordElement(d, tuple(sorted(clean.items())))


def _count_above(mask: int, i: int) -> int:
    return bin(mask >> (i + 1)).count("1")


def _append_x(word: tuple[int, int], i: int):
    """Words (with signs) for (canonical word) * x_i."""
    b, x = word
    if (x >> i) & 1:
        return []
    sign = -1 if _count_above(x, i) % 2 else 1
    return [(((b, x | (1 << i))), sign)]


def _append_bar(word: tuple[int, int], j: int):
    """Words (with signs) for (canonical word) * xbar_j."""
    b, x = word
    out = []
    if (x >> j) & 1:
        # contraction branch: delta from x_j xbar_j
        sign = -1 if _count_above(x, j) % 2 else 1
        out.append(((b, x & ~(1 << j)), sign))
    if not (b >> j) & 1:
        sign = (-1 if bin(x).count("1") % 2 else 1) * (-1 if _count_above(b, j) % 2 else 1)
        out.append(((b | (1 << j), x), sign))
    return out


def clifford_multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    if a.d != b.d:
        raise DimensionMismatch("mismatched generator counts")
    d = a.d
    acc: dict[tuple[int, int], Fraction] = {}
    for (wb, xb), cb in b.terms:
        gens = ([("bar", j) for j in range(d) if (wb >> j) & 1]
                + [("x", i) for i in range(d) if (xb >> i) & 1])
        for wa, ca in a.terms:
            current = {wa: ca * cb}
            for kind, idx in gens:
                nxt: dict[tuple[int, int], Fraction] = {}
                step = _append_bar if kind == "bar" else _append_x
                for w, c in current.items():
                    for w2, s in step(w, idx):
                        nxt[w2] = nxt.get(w2, Fraction(0)) + c * s
                current = nxt
                if not current:
                    break
            for w, c in current.items():
                acc[w] = acc.get(w, Fraction(0)) + c
    return cl_element(d, acc)


def word_parity(word: tuple[int, int]) -> int:
    b, x = word
    return (bin(b).count("1") + bin(x).count("1")) % 2


# ---------------------------------------------------------------------------
# Spinor representation on subsets of {0..d-1}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinorMatrix:
    d: int
    matrix: tuple  # 2^d x 2^d, indexed by subset bitmasks

    def supertrace(self) -> Fraction:
        acc = Fraction(0)
        for s in range(1 << self.d):
            v = self.matrix[s][s]
            acc += -v if bin(s).count("1") % 2 else v
        return acc


def spinor_matrix(a: CliffordElement) -> SpinorMatrix:
    """Action on the exterior algebra of V: x_i by wedging, xbar_i by contraction."""
    d = a.d
    n = 1 << d
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (b, x), c in a.terms:
        xs = [i for i in range(d) if (x >> i) & 1]
        bars = [j for j in range(d) if (b >> j) & 1]
        for s0 in range(n):
            s, sign = s0, 1
            dead = False
            for i in reversed(xs):  # rightmost operator acts first
                if (s >> i) & 1:
                    dead = True
                    break
                if bin(s & ((1 << i) - 1)).count("1") % 2:
                    sign = -sign
                s |= 1 << i
            if dead:
                continue
            for j in reversed(bars):
                if not (s >> j) & 1:
                    dead = True
                    break
                if bin(s & ((1 << j) - 1)).count("1") % 2:
                    sign = -sign
                s &= ~(1 << j)
            if dead:
                continue
            mat[s][s0] += sign * c
    return SpinorMatrix(d, tuple(tuple(row) for row in mat))


def supertrace_via_top(a: CliffordElement) -> Fraction:
    """Coefficient of the interleaved top word xbar_0 x_0 xbar_1 x_1 ... after
    normalization; equals the supertrace of the spinor action."""
    d = a.d
    full = (1 << d) - 1
    # canonical storage has all bars first; the interleaved word differs by
    # moving each xbar_k past x_0..x_{k-1}, a pure sign
    swaps = d * (d - 1) // 2
    sign = -1 if swaps % 2 else 1
    return sign * a.coeff(full, full)


def hh0_dimension(d: int) -> int:
    """Codimension of the span of graded commutators of basis words."""
    check_size("generator count", d, MAX_HH_DIM)
    words = [(b, x) for b in range(1 << d) for x in range(1 << d)]
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    rows = []
    for w1 in words:
        e1 = CliffordElement(d, ((w1, Fraction(1)),))
        p1 = word_parity(w1)
        for w2 in words:
            e2 = CliffordElement(d, ((w2, Fraction(1)),))
            ab = clifford_multiply(e1, e2)
            ba = clifford_multiply(e2, e1)
            koszul = -1 if (p1 and word_parity(w2)) else 1
            comm = ab - ba.scale(koszul)
            if comm.is_zero:
                continue
            rows.append({index[w]: c for w, c in comm.terms})
    return n - exact_rank(rows)


# ---------------------------------------------------------------------------
# Series identities for the charged fermion system
# ---------------------------------------------------------------------------

def _coordinate_matrix(rho: Representation, coords, order: int) -> list[list[Fraction]]:
    """The image M of the coordinate vector, once the series order and the
    n! * n * (order + 1)^2 cost of a series determinant are checked."""
    if len(coords) != len(rho.rows):
        raise DimensionMismatch(
            f"coordinate vector has length {len(coords)}, algebra has {len(rho.rows)}")
    n = rho.dim
    check_size("series order", order, MAX_SERIES_ORDER)
    cost = n * (order + 1) ** 2
    for i in range(2, n + 1):  # n!, until the estimate passes the limit
        if cost > MAX_CHARACTER_COST:
            break
        cost *= i
    check_size(f"character of a {n}-dim representation at order {order}, estimate",
               cost, MAX_CHARACTER_COST)
    coeffs = dict(enumerate(map(rat, coords)))
    sparse = [row_mul_add({}, coeffs, [rows[i] for rows in rho.rows]) for i in range(n)]
    return [[Fraction(row.get(j, 0)) for j in range(n)] for row in sparse]


def _series_of_matrix(m, f: HSeries):
    """f(tM) = sum_k f_k t^k M^k as a matrix of HSeries; each power of M is
    formed once."""
    n = len(m)
    power = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    coeffs = [[[] for _ in range(n)] for _ in range(n)]
    for k, fk in enumerate(f.coeffs):
        if k:
            power = mat_mul(power, m)
        for i in range(n):
            for j in range(n):
                coeffs[i][j].append(fk * power[i][j])
    return [[HSeries.make(f.order, cs) for cs in row] for row in coeffs]


def _series_det(mat, order: int) -> HSeries:
    n = len(mat)
    acc = HSeries.zero(order)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = HSeries.const(-1 if inversions % 2 else 1, order)
        for i in range(n):
            term = term * mat[i][perm[i]]
        acc = acc + term
    return acc


def todd_series(order: int) -> HSeries:
    """s/(1 - e^{-s}) as a truncated series: 1 + s/2 + s^2/12 - s^4/720 + ..."""
    # (1 - e^{-s})/s = sum_k (-1)^k s^k / (k+1)!
    g = HSeries.make(order, [Fraction((-1) ** k, factorial(k + 1))
                             for k in range(order + 1)])
    return series_inverse(g)


def charged_character(g: LieAlgebra, rho: Representation, coords, order: int) -> HSeries:
    """det(e^{tM/2} - e^{-tM/2}) as a t-series, M the image of the coordinate
    vector under the representation.  Requires trace M = 0."""
    m = _coordinate_matrix(rho, coords, order)
    n = rho.dim
    if sum((m[i][i] for i in range(n)), Fraction(0)) != 0:
        raise TraceNotZero("representation image must be traceless")
    half = HSeries.variable(order) * Fraction(1, 2)
    f = series_exp(half) - series_exp(-half)
    return _series_det(_series_of_matrix(m, f), order)


def wheel_term(rho: Representation, coords, order: int) -> HSeries:
    """-log det(e^{-tM/2} Td(tM)) as a t-series."""
    m = _coordinate_matrix(rho, coords, order)
    half = HSeries.variable(order) * Fraction(1, 2)
    f = series_exp(-half) * todd_series(order)
    return -series_log(_series_det(_series_of_matrix(m, f), order))


# -- Grassmann (Berezin) side of the partition function ----------------------

def berezin_determinant(m) -> Fraction:
    """Top coefficient of exp(sum m[i][j] psibar_i psi_j) in the exterior
    algebra on interleaved generators psibar_0 < psi_0 < psibar_1 < ...

    Equals det(m); computed by honest Grassmann expansion, not by a
    determinant routine, so it can serve as an independent route.
    """
    n = len(m)
    total = 2 * n
    # quadratic element: mask with bits 2i (psibar_i) and 2j+1 (psi_j)
    quad: dict[int, Fraction] = {}
    for i in range(n):
        for j in range(n):
            v = rat(m[i][j])
            if v:
                mask = (1 << (2 * i)) | (1 << (2 * j + 1))
                sign = 1 if 2 * i < 2 * j + 1 else -1  # store as psibar wedge psi
                quad[mask] = quad.get(mask, Fraction(0)) + sign * v

    def wedge(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                if ma & mb:
                    continue
                sign = 1
                rest = mb
                while rest:
                    low = rest & -rest
                    if bin(ma >> (low.bit_length())).count("1") % 2:
                        sign = -sign
                    rest ^= low
                mm = ma | mb
                out[mm] = out.get(mm, Fraction(0)) + sign * ca * cb
        return {k: v for k, v in out.items() if v}

    result = {0: Fraction(1)}
    power = {0: Fraction(1)}
    for k in range(1, n + 1):
        power = wedge(power, quad)
        if not power:
            break
        inv = Fraction(1, factorial(k))
        for mask, c in power.items():
            result[mask] = result.get(mask, Fraction(0)) + c * inv
    return result.get((1 << total) - 1, Fraction(0))


@dataclass(frozen=True)
class PartitionIdentity:
    holds: bool
    lhs: HSeries
    rhs: HSeries
    hbar_power: int


def partition_function_identity(g: LieAlgebra, rho: Representation, coords,
                                order: int) -> PartitionIdentity:
    """Tree-level Berezin integral times the exponentiated wheel term versus
    the charged character, as t-series.  hbar_power reports the filtration
    degree of the top fermion word."""
    m = _coordinate_matrix(rho, coords, order)
    n = rho.dim
    if sum((m[i][i] for i in range(n)), Fraction(0)) != 0:
        raise TraceNotZero("representation image must be traceless")
    top = berezin_determinant(m)
    tree = HSeries.make(order, [Fraction(0)] * n + [top]) if n <= order \
        else HSeries.zero(order)
    lhs = tree * series_exp(wheel_term(rho, coords, order))
    rhs = charged_character(g, rho, coords, order)
    return PartitionIdentity(lhs == rhs, lhs, rhs, -2 * n)
