"""Ribbon representation data for the fundamental representations of
quantum sl_n, with axiom checkers.

Conventions (fixed here, validated by the invariants, and relied on by the
tangle evaluator):

* root order N = 2n, u = q^(1/2n), s = q^(1/2) = u^n;
* the R field stores the BRAIDING (flip composed with the R-matrix), so it
  satisfies the braid form of the Yang-Baxter equation used below;
* braiding eigenvalue on e_i (x) e_i is u^(n-1); crossing resolution
  R - R_inv = (u^n - u^(-n)) * u^(-1) * permutation-free part is not stored,
  it follows from the entries;
* cups are antidiagonal with alternating signs, caps are the inverse matrix,
  and the pivot is cup . cap^T (diagonal with entries of the form
  +-q^(half-integer));
* the twist is computed by evaluating an actual Reidemeister-I kink, never
  just read off a formula.

All matrices are tuples of tuples of LaurentPoly over a shared root order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from ._linalg import mat_mul
from .errors import DimensionMismatch, KinkNotScalar, NotASquareOfSquare
from .ring import LaurentPoly

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def lmat(rows) -> tuple:
    return tuple(tuple(rows[i][j] for j in range(len(rows[i])))
                 for i in range(len(rows)))


def lmat_identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def lmat_mul(a, b) -> tuple:
    return lmat(mat_mul(a, b, zero=ZERO))


def lmat_kron(a, b) -> tuple:
    """Kronecker product of two (possibly rectangular) matrices."""
    out = []
    for arow in a:
        for brow in b:
            row = []
            for aij in arow:
                if aij:
                    row.extend(aij * v for v in brow)
                else:
                    row.extend([ZERO] * len(brow))
            out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class RibbonRep:
    n: int                 # carrier dimension
    root_order: int        # N with u = q^(1/N)
    R: tuple               # n^2 x n^2 braiding matrix
    R_inv: tuple           # its inverse
    cup: tuple             # n x n: image of 1 in V (x) V, as a matrix of coefficients
    cap: tuple             # n x n: pairing V (x) V -> scalars; inverse of cup
    pivot: tuple           # n x n: cup . cap^T, diagonal for the builtins
    twist: LaurentPoly     # scalar of the positive kink


def quantum_dimension(rep: RibbonRep) -> LaurentPoly:
    """Value of a closed loop: the trace of the pivot."""
    acc = ZERO
    for a in range(rep.n):
        acc = acc + rep.pivot[a][a]
    return acc


def check_yang_baxter(R) -> bool:
    """Exact test of (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)."""
    m = len(R)
    if any(len(row) != m for row in R):
        raise NotASquareOfSquare("matrix is not square")
    n = isqrt(m)
    if n * n != m:
        raise NotASquareOfSquare(f"matrix size {m} is not a perfect square")
    eye = lmat_identity(n)
    a = lmat_kron(R, eye)
    b = lmat_kron(eye, R)
    return lmat_mul(lmat_mul(a, b), a) == lmat_mul(lmat_mul(b, a), b)


def _kink_matrix(braiding, cup, cap, n: int) -> list:
    """Evaluate a curl: strand goes up, loops to the right, comes back up.

    As a composite (I x cap)(braiding x I)(I x cup): V -> V.
    """
    out = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                cupbc = cup[b][c]
                if not cupbc:
                    continue
                for x in range(n):
                    for y in range(n):
                        r = braiding[x * n + y][a * n + b]
                        if r:
                            capyc = cap[y][c]
                            if capyc:
                                out[x][a] = out[x][a] + cupbc * r * capyc
    return out


def _scalar_of(matrix, n: int, what: str) -> LaurentPoly:
    scalar = matrix[0][0]
    for i in range(n):
        for j in range(n):
            want = scalar if i == j else ZERO
            if matrix[i][j] != want:
                raise KinkNotScalar(f"{what} evaluation is not a scalar multiple of identity")
    return scalar


def ribbon_twist(rep: RibbonRep) -> LaurentPoly:
    """The scalar of a positive kink, recomputed from the matrices."""
    kink = _kink_matrix(rep.R, rep.cup, rep.cap, rep.n)
    return _scalar_of(kink, rep.n, "positive kink")


def make_ribbon_rep(n: int, root_order: int, R, R_inv, cup, cap,
                    twist: LaurentPoly) -> RibbonRep:
    """Assemble and validate a ribbon representation.

    Checks: shapes, R.R_inv = identity, Yang-Baxter, cap inverse to cup,
    positive kink = twist (scalar), quantum dimension nonzero.
    """
    m = n * n
    for mat, size, name in [(R, m, "R"), (R_inv, m, "R_inv"),
                            (cup, n, "cup"), (cap, n, "cap")]:
        if len(mat) != size or any(len(row) != size for row in mat):
            raise DimensionMismatch(f"{name} has wrong shape")
    if lmat_mul(R, R_inv) != lmat_identity(m):
        raise ValueError("R_inv is not inverse to R")
    if not check_yang_baxter(R):
        raise ValueError("R fails the Yang-Baxter equation")
    if lmat_mul(cap, cup) != lmat_identity(n) or lmat_mul(cup, cap) != lmat_identity(n):
        raise ValueError("cap is not inverse to cup")
    pivot = lmat_mul(cup, tuple(zip(*cap)))
    rep = RibbonRep(n, root_order, lmat(R), lmat(R_inv), lmat(cup), lmat(cap),
                    pivot, twist)
    scalar = ribbon_twist(rep)
    if scalar != twist:
        raise ValueError("declared twist does not match the kink evaluation")
    if quantum_dimension(rep).is_zero:
        raise ValueError("quantum dimension vanishes")
    return rep


@lru_cache(maxsize=None)
def sln_fundamental_ribbon(n: int) -> RibbonRep:
    """The fundamental n-dimensional ribbon representation of quantum sl_n."""
    if n < 2:
        raise ValueError("need n >= 2")
    N = 2 * n

    def u(k: int, coeff: int = 1) -> LaurentPoly:
        return LaurentPoly.q_power(k, N, coeff)

    m = n * n
    R = [[ZERO] * m for _ in range(m)]
    R_inv = [[ZERO] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            if i == j:
                R[col][col] = u(n - 1)
                R_inv[col][col] = u(1 - n)
            else:
                R[j * n + i][col] = u(-1)
                R_inv[j * n + i][col] = u(1)
                if i > j:
                    R[col][col] = u(n - 1) - u(-n - 1)
                else:
                    R_inv[col][col] = u(1 - n) - u(n + 1)

    cup = [[ZERO] * n for _ in range(n)]
    cap = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        # 0-based antidiagonal: entry at (a, n-1-a)
        e = n * (n - 1 - 2 * a)
        assert e % 2 == 0
        cup[a][n - 1 - a] = u(e // 2, -1 if a % 2 else 1)
        # inverse antidiagonal: cap[a][n-1-a] = 1 / cup[n-1-a][a]
        cap[a][n - 1 - a] = u(-(n * (2 * a + 1 - n)) // 2,
                              -1 if (n - 1 - a) % 2 else 1)

    twist = u(n * n - 1, 1 if n % 2 else -1)
    return make_ribbon_rep(n, N, lmat(R), lmat(R_inv), lmat(cup), lmat(cap), twist)
