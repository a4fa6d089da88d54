"""Small exact linear algebra helpers shared across modules.

* ``mat_mul``: matrix product, skipping zero entries.
* ``sparse_rows`` and ``row_mul_add``: matrices as lists of sparse
  {column: value} rows, and a sparse row times such a matrix.
* ``exact_rank``: rank over the rationals, by sparse fraction-free
  elimination over the integers with Markowitz pivots: a column index
  maps each column to the rows holding it, so a pivot touches only the
  rows of its column, and the pivot is taken in a shortest row at its
  least-held column.
* ``mat_inv``: inverse of a square matrix over the rationals.

Sparse rows are the one matrix format of the Lie and cohomology layer:
brackets, representations, module actions and Chevalley-Eilenberg
differentials, the last thousands of rows with a few small integer entries
each.  They keep integral values as ints, several times cheaper than
Fractions.  Dense matrices are lists-of-lists over an exact ring (Fraction,
or any type with +, -, * and a truthy zero test), for the small matrices
of pairings and the dense views of representations; ``mat_mul`` takes the
ring's zero as an argument and ``mat_inv`` eliminates on sparse rows.
``exact_rank`` takes either form.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, count
from math import gcd, lcm


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


def sparse_rows(m) -> list[dict]:
    """The rows of a dense matrix as {column: value} over its nonzeros."""
    return [{j: x.numerator if (x := row[j]).denominator == 1 else x
             for j in compress(count(), row)} for row in m]


def row_mul_add(acc: dict, row: dict, mat, scale=1) -> dict:
    """acc += scale * (row . mat) for a sparse row and sparse rows mat;
    returns acc, in which entries that cancel stay as zeros."""
    for t, v in row.items():
        v *= scale
        for j, w in mat[t].items():
            acc[j] = acc.get(j, 0) + v * w
    return acc


def exact_rank(rows) -> int:
    """Rank over the rationals by sparse fraction-free elimination over Z.

    Takes any iterable of rows, each a {column: value} dict or a dense list
    or tuple, of Fractions/ints, and does not mutate them.  Rows become
    {column: int} dicts, scaled by the lcm of their denominators unless
    already all ints.  A column index maps each column to the live rows
    holding it, so a pivot visits only the rows of its own column.  The
    pivot row is a shortest live row, from a heap keyed by length whose
    stale entries are skipped; its pivot column is the one held by the
    fewest rows (Markowitz), ties to the least |value| p.  Every other row
    holding f in that column becomes row*(p/g) - pivot_row*(f/g),
    g = gcd(p, f), divided by the gcd of its entries and dropped once empty.
    """
    work = []
    for row in rows:
        row = {c: v for c, v in
               (row.items() if isinstance(row, dict) else enumerate(row)) if v}
        if not row:
            continue
        if any(type(v) is not int for v in row.values()):
            scale = lcm(*[v.denominator for v in row.values()])
            row = {c: v.numerator * (scale // v.denominator)
                   for c, v in row.items()}
        work.append(row)
    holders = {}
    for r, row in enumerate(work):
        for c in row:
            holders.setdefault(c, set()).add(r)
    heap = [(len(row), r) for r, row in enumerate(work)]
    heapify(heap)
    rank = 0
    while heap:
        n, r = heappop(heap)
        prow = work[r]
        if prow is None or len(prow) != n:
            continue  # eliminated or changed since this entry was pushed
        work[r] = None
        for c in prow:
            holders[c].discard(r)
        col = min(prow, key=lambda c: (len(holders[c]), abs(prow[c])))
        p = prow[col]
        rank += 1
        for s in holders.pop(col):
            row = work[s]
            n = len(row)
            f = row[col]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in prow.items():
                x = row.get(c, 0) - b * v
                if x:
                    if c not in row:
                        holders[c].add(s)
                    row[c] = x
                else:
                    del row[c]
                    if c != col:
                        holders[c].discard(s)
            if not row:
                work[s] = None
                continue
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            if len(row) != n:
                heappush(heap, (len(row), s))
    return rank


def mat_inv(a):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination on
    sparse rows [A | I]; raises ValueError when singular."""
    n = len(a)
    m = [{j: Fraction(x) for j, x in enumerate(row) if x}
         | {n + i: Fraction(1)} for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in m[r]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        prow = m[col] = {j: x / pv for j, x in m[col].items()}
        for r, row in enumerate(m):
            f = row.get(col)
            if f is not None and r != col:
                for j, x in prow.items():
                    row[j] = row.get(j, 0) - f * x
                m[r] = {j: x for j, x in row.items() if x}
    return [[row.get(n + j, Fraction(0)) for j in range(n)] for row in m]
