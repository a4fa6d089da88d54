"""Small exact linear algebra helpers shared across modules.

* ``mat_mul``: matrix product, skipping zero entries.
* ``linear_combination``: the sum of c_a M_a over paired coefficients and
  matrices.
* ``exact_rank``: rank over the rationals.
* ``mat_inv``: inverse of a square matrix over the rationals.

Everything here works on lists-of-lists over an exact ring (Fraction, or any
type with +, -, * and a truthy zero test); ``mat_mul`` takes the ring's zero
as an argument.  No pivoting strategy games: these matrices are small and
exact, so plain Gaussian elimination is enough.
"""
from __future__ import annotations

from fractions import Fraction


def mat_mul(a, b, zero=Fraction(0)):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if not v:
                continue
            bt = b[t]
            for j in range(m):
                w = bt[j]
                if w:
                    oi[j] = oi[j] + v * w
    return out


def linear_combination(coeffs, mats):
    """Sum of c * M over paired coefficients and equal-shape matrices."""
    out = [[Fraction(0)] * len(row) for row in mats[0]] if mats else []
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        for orow, mrow in zip(out, m):
            for j, x in enumerate(mrow):
                if x:
                    orow[j] = orow[j] + c * x
    return out


def exact_rank(rows) -> int:
    """Rank over the rationals by fraction-exact row reduction.

    Accepts any iterable of rows of Fractions/ints; the input is copied.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    nrows = len(m)
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        prow = m[rank]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                ratio = f / pv
                row = m[r]
                for c in range(col, ncols):
                    row[c] -= ratio * prow[c]
        rank += 1
        col += 1
    return rank


def mat_inv(a):
    """Inverse of a square Fraction matrix; raises ValueError when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]
