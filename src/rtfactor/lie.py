"""Finite-dimensional Lie algebras over the rationals.

An algebra is stored as its structure constants: ``structure_constants[a][b][c]``
is the coefficient of basis element c in the bracket of basis elements a and b.
Construction validates antisymmetry and the Jacobi identity exactly.

Builtin algebras come with a distinguished matrix representation where one
exists (defining/fundamental); all matrices act on column vectors.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ._linalg import exact_rank, mat_mul, row_mul_add, sparse_rows
from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    JacobiViolation,
    ParseError,
    UnknownName,
    check_size,
)
from .ring import rat

# JSON parsing and builtin() refuse larger algebras before allocating their
# dim^3 structure constants; 15 admits sln_fundamental(4).
MAX_PARSED_ALGEBRA_DIM = 15
# builtin() refuses larger sl2_irrep carriers: checking the representation
# costs about the square of the carrier dimension (10 s at 1024).
MAX_IRREP_DIM = 1024


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    structure_constants: tuple  # structure_constants[a][b][c]: Fraction

    def bracket(self, a: int, b: int) -> list[Fraction]:
        """Coordinates of [e_a, e_b]."""
        return list(self.structure_constants[a][b])

    def ad(self, a: int) -> list[list[Fraction]]:
        """Matrix of ad(e_a) acting on coordinates (columns indexed by b)."""
        d = self.dim
        return [[self.structure_constants[a][b][c] for b in range(d)] for c in range(d)]


@dataclass(frozen=True)
class Representation:
    dim: int  # dimension of the carrier space
    matrices: tuple  # one (dim x dim) matrix per basis element of the algebra


@dataclass(frozen=True)
class InvariantPairing:
    """Bilinear form on the algebra, graded by powers of h: G0 + h*G1 + ..."""

    orders: tuple  # tuple of square matrices, orders[k] at h^k


@dataclass(frozen=True)
class PairingViolation:
    kind: str       # "shape" | "symmetry" | "degenerate" | "invariance"
    order: int      # h-order where the check failed
    indices: tuple  # offending index tuple (empty for rank failures)


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    violations: tuple


def make_lie_algebra(structure_constants) -> LieAlgebra:
    """Validate structure constants and freeze them into a LieAlgebra.

    Raises AntisymmetryViolation or JacobiViolation naming the offending
    indices; DimensionMismatch when the array is not cubic.
    """
    f = [[[rat(c) for c in row] for row in plane] for plane in structure_constants]
    d = len(f)
    for a in range(d):
        if len(f[a]) != d or any(len(f[a][b]) != d for b in range(d)):
            raise DimensionMismatch("structure constant array is not cubic")
    for a in range(d):
        for b in range(a, d):
            for c in range(d):
                if f[a][b][c] != -f[b][a][c]:
                    raise AntisymmetryViolation((a, b, c))
    # Jacobi, summed over nonzero constants only: f_xy^m f_mz^k for the
    # three cyclic orders (x, y, z) of each triple a < b < c.
    nonzero = [[[(m, v) for m, v in enumerate(row) if v] for row in plane]
               for plane in f]
    for a, b, c in combinations(range(d), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for m, v in nonzero[x][y]:
                for k, w in nonzero[m][z]:
                    acc[k] = acc.get(k, 0) + v * w
        broken = [k for k, v in acc.items() if v]
        if broken:
            raise JacobiViolation((a, b, c, min(broken)))
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in f)
    return LieAlgebra(d, frozen)


def killing_form(g: LieAlgebra) -> list[list[Fraction]]:
    """kappa(a, b) = trace(ad e_a . ad e_b)."""
    d = g.dim
    f = g.structure_constants
    out = [[Fraction(0)] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            acc = Fraction(0)
            for m in range(d):
                for k in range(d):
                    acc += f[a][m][k] * f[b][k][m]
            out[a][b] = acc
            out[b][a] = acc
    return out


def is_semisimple(g: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return exact_rank(killing_form(g)) == g.dim


def check_invariant_pairing(g: LieAlgebra, pairing: InvariantPairing) -> PairingReport:
    """Verify symmetry, order-0 nondegeneracy, and ad-invariance per h-order."""
    d = g.dim
    f = g.structure_constants
    violations = []
    for k, G in enumerate(pairing.orders):
        if len(G) != d or any(len(row) != d for row in G):
            violations.append(PairingViolation("shape", k, ()))
            continue
        for i in range(d):
            for j in range(i + 1, d):
                if G[i][j] != G[j][i]:
                    violations.append(PairingViolation("symmetry", k, (i, j)))
    if not violations:
        if exact_rank(pairing.orders[0]) != d:
            violations.append(PairingViolation("degenerate", 0, ()))
        for k, G in enumerate(pairing.orders):
            for a in range(d):
                for b in range(d):
                    for c in range(d):
                        acc = Fraction(0)
                        for m in range(d):
                            acc += f[a][b][m] * G[m][c] + f[a][c][m] * G[b][m]
                        if acc:
                            violations.append(PairingViolation("invariance", k, (a, b, c)))
    return PairingReport(not violations, tuple(violations))


def check_bracket_compatible(g: LieAlgebra, mats, n: int, what: str) -> None:
    """Assert one n x n matrix per basis element with
    [rho(e_a), rho(e_b)] = sum_c f_ab^c rho(e_c) on all basis pairs.

    ``what`` names the matrices in error messages.  Raises DimensionMismatch
    on a wrong count or shape, ValueError on a failing pair.
    """
    d = g.dim
    if len(mats) != d:
        raise DimensionMismatch(
            f"{what} has {len(mats)} matrices for a {d}-dim algebra")
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise DimensionMismatch(f"{what} matrix has wrong shape")
    rows = [sparse_rows(m) for m in mats]
    consts = [sparse_rows(plane) for plane in g.structure_constants]
    for a in range(d):
        for b in range(a + 1, d):
            f_ab = consts[a][b]
            for i in range(n):
                acc = row_mul_add({}, rows[a][i], rows[b])
                row_mul_add(acc, rows[b][i], rows[a], -1)
                row_mul_add(acc, f_ab, {c: rows[c][i] for c in f_ab}, -1)
                if any(acc.values()):
                    raise ValueError(
                        f"{what} not bracket compatible on basis pair ({a}, {b})")


def check_representation(g: LieAlgebra, rep: Representation) -> None:
    """Assert rho([x, y]) = rho(x) rho(y) - rho(y) rho(x) on all basis pairs."""
    check_bracket_compatible(g, rep.matrices, rep.dim, "representation")


def _commutator(x, y):
    xy = mat_mul(x, y)
    yx = mat_mul(y, x)
    return [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(xy, yx)]


def _freeze_matrix(rows):
    return tuple(tuple(rat(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _sl2() -> tuple[LieAlgebra, Representation]:
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    d = 3
    f = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]

    def setpair(a, b, coords):
        for c, v in coords.items():
            f[a][b][c] = Fraction(v)
            f[b][a][c] = -Fraction(v)

    H, E, F = 0, 1, 2
    setpair(H, E, {E: 2})
    setpair(H, F, {F: -2})
    setpair(E, F, {H: 1})
    g = make_lie_algebra(f)
    rep = Representation(2, (
        _freeze_matrix([[1, 0], [0, -1]]),
        _freeze_matrix([[0, 1], [0, 0]]),
        _freeze_matrix([[0, 0], [1, 0]]),
    ))
    return g, rep


def _sl2_irrep(k: int) -> tuple[LieAlgebra, Representation]:
    """(k+1)-dimensional irreducible of sl2 on v_0..v_k (v_0 highest weight)."""
    if k < 0:
        raise UnknownName("sl2_irrep needs a nonnegative highest weight")
    check_size("sl2_irrep carrier dimension", k + 1, MAX_IRREP_DIM)
    g, _ = _sl2()
    n = k + 1
    H = [[Fraction(0)] * n for _ in range(n)]
    E = [[Fraction(0)] * n for _ in range(n)]
    F = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        H[i][i] = Fraction(k - 2 * i)
        if i >= 1:
            E[i - 1][i] = Fraction(i * (k - i + 1))
        if i + 1 < n:
            F[i + 1][i] = Fraction(1)
    rep = Representation(n, (_freeze_matrix(H), _freeze_matrix(E), _freeze_matrix(F)))
    check_representation(g, rep)
    return g, rep


def _sln_fundamental(n: int) -> tuple[LieAlgebra, Representation]:
    """sl_n on its defining n-dimensional representation.

    Basis: E_ij for i != j in lexicographic order, then the n-1 diagonal
    elements H_i = E_ii - E_{i+1,i+1}.  Structure constants are read off by
    expanding matrix commutators in this basis.
    """
    if n < 2:
        raise UnknownName("sln_fundamental needs n >= 2")
    check_size("algebra dimension", n * n - 1, MAX_PARSED_ALGEBRA_DIM)
    basis = []
    index_of_offdiag = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[Fraction(0)] * n for _ in range(n)]
                m[i][j] = Fraction(1)
                index_of_offdiag[(i, j)] = len(basis)
                basis.append(m)
    diag_start = len(basis)
    for i in range(n - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i] = Fraction(1)
        m[i + 1][i + 1] = Fraction(-1)
        basis.append(m)
    d = len(basis)

    def expand(mat) -> list[Fraction]:
        coords = [Fraction(0)] * d
        for i in range(n):
            for j in range(n):
                if i != j and mat[i][j]:
                    coords[index_of_offdiag[(i, j)]] = mat[i][j]
        # diagonal part: partial sums give the H_i coordinates
        partial = Fraction(0)
        for i in range(n - 1):
            partial += mat[i][i]
            coords[diag_start + i] = partial
        return coords

    f = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            coords = expand(_commutator(basis[a], basis[b]))
            for c, v in enumerate(coords):
                f[a][b][c] = v
                f[b][a][c] = -v
    g = make_lie_algebra(f)
    rep = Representation(n, tuple(_freeze_matrix(m) for m in basis))
    check_representation(g, rep)
    return g, rep


def _so3() -> tuple[LieAlgebra, Representation]:
    # [L_i, L_j] = sum_k epsilon_ijk L_k; defining rep = adjoint
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    f = [[[Fraction(eps.get((a, b, c), 0)) for c in range(3)]
          for b in range(3)] for a in range(3)]
    g = make_lie_algebra(f)
    rep = Representation(3, tuple(_freeze_matrix(g.ad(a)) for a in range(3)))
    check_representation(g, rep)
    return g, rep


def _abelian(d: int) -> tuple[LieAlgebra, Representation]:
    if d < 1:
        raise UnknownName("abelian needs a positive dimension")
    check_size("algebra dimension", d, MAX_PARSED_ALGEBRA_DIM)
    f = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    g = make_lie_algebra(f)
    # the trivial 1-dimensional representation, handy for defect computations
    rep = Representation(1, tuple(_freeze_matrix([[0]]) for _ in range(d)))
    return g, rep


# Parameters of more than nine significant digits do not parse: any such
# size is refused anyway, and int() rejects very long digit strings.
_BUILTIN_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(?:\(\s*0*(\d{1,9})\s*\))?\s*$")


@lru_cache(maxsize=32)
def builtin(name: str) -> tuple[LieAlgebra, Representation | None]:
    """Look up a named algebra: sl2, sl3, so3, sl2_irrep(k), sln_fundamental(n), abelian(d).

    Results are immutable and cached, so repeated lookups of one name
    validate the algebra once and return the same objects.
    """
    m = _BUILTIN_RE.match(name)
    if not m:
        raise UnknownName(f"cannot parse algebra name {name!r}")
    base, arg = m.group(1), m.group(2)
    if base == "sl2" and arg is None:
        return _sl2()
    if base == "sl3" and arg is None:
        return _sln_fundamental(3)
    if base == "so3" and arg is None:
        return _so3()
    if base == "sl2_irrep" and arg is not None:
        return _sl2_irrep(int(arg))
    if base == "sln_fundamental" and arg is not None:
        return _sln_fundamental(int(arg))
    if base == "abelian" and arg is not None:
        return _abelian(int(arg))
    raise UnknownName(f"unknown algebra {name!r}")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def algebra_to_json(g: LieAlgebra) -> str:
    """Serialize as {"dim": d, "brackets": [[a, b, c, "num/den"], ...]}.

    Indices are 0-based; only nonzero constants are listed.
    """
    brackets = []
    for a in range(g.dim):
        for b in range(g.dim):
            for c in range(g.dim):
                v = g.structure_constants[a][b][c]
                if v:
                    brackets.append([a, b, c, str(v)])
    return json.dumps({"dim": g.dim, "brackets": brackets})


def algebra_from_json(text: str) -> LieAlgebra:
    """Parse the JSON format of algebra_to_json (0-based indices).

    Raises ParseError on malformed JSON or entries, DimensionMismatch on a
    bad dimension or an index out of range, DimensionTooLarge above
    MAX_PARSED_ALGEBRA_DIM.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad algebra JSON: {exc}") from None
    if not isinstance(data, dict) or "dim" not in data:
        raise ParseError("algebra JSON needs an object with a 'dim' field")
    d = data["dim"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DimensionMismatch("dim must be a positive integer")
    check_size("algebra dimension", d, MAX_PARSED_ALGEBRA_DIM)
    f = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    try:
        for entry in data.get("brackets", []):
            a, b, c, v = entry
            if not all(0 <= i < d for i in (a, b, c)):
                raise DimensionMismatch(f"bracket index out of range in {entry}")
            f[a][b][c] = Fraction(str(v))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad bracket entry: {exc}") from None
    return make_lie_algebra(f)
