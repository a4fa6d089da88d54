"""Finite-dimensional Lie algebras over the rationals.

An algebra is stored as its brackets: ``brackets[a][b]`` is the sparse row
{c: f_ab^c} of the bracket of basis elements a and b over its nonzero
structure constants, with ints where integral.  A representation keeps one
list of such {column: value} rows per basis element in ``rows``.  Every
computation reads the rows; ``structure_constants`` and
``Representation.matrices`` are dense views for oracles and interchange.
Construction validates antisymmetry and the Jacobi identity exactly.

Builtin algebras come with a distinguished matrix representation where one
exists (defining/fundamental); all matrices act on column vectors.
"""
from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

# mat_mul is unused here but stays importable: perfbench/tracing.py wraps lie.mat_mul
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

# JSON parsing and builtin() refuse larger algebras before building their
# dim^2 bracket rows and checking Jacobi on their C(dim, 3) triples (1.6 ms
# for the 455 triples of sln_fundamental(4)); 15 admits sln_fundamental(4).
MAX_PARSED_ALGEBRA_DIM = 15
# builtin() refuses larger sl2_irrep carriers: the dense matrices view costs
# the square of the carrier dimension, the rows and their check are linear
# (0.09 s in all at 1024, 0.01 s of it the check).
MAX_IRREP_DIM = 1024


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    brackets: tuple  # brackets[a][b] = {c: f_ab^c} over nonzero constants

    @cached_property
    def structure_constants(self) -> tuple:
        """Dense view: structure_constants[a][b][c] as Fractions."""
        return tuple(tuple(_dense_row(row, self.dim) for row in plane)
                     for plane in self.brackets)


@dataclass(frozen=True)
class Representation:
    dim: int  # dimension of the carrier space
    matrices: tuple  # one (dim x dim) matrix per basis element of the algebra

    @cached_property
    def rows(self) -> list:
        """Each matrix as sparse {column: value} rows, ints where integral;
        DimensionMismatch on a matrix that is not dim x dim."""
        n = self.dim
        for m in self.matrices:
            if len(m) != n or any(len(row) != n for row in m):
                raise DimensionMismatch("representation matrix has wrong shape")
        return [sparse_rows(m) for m in self.matrices]


def _dense_row(row: dict, n: int) -> tuple:
    cells = [Fraction(0)] * n
    for j, v in row.items():
        cells[j] = Fraction(v)
    return tuple(cells)


def _from_rows(n: int, rows: list) -> Representation:
    """A representation built from its sparse rows, which seed ``rows``."""
    rep = Representation(n, tuple(tuple(_dense_row(row, n) for row in m)
                                  for m in rows))
    rep.__dict__["rows"] = rows
    return rep


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
    d = len(structure_constants)
    for plane in structure_constants:
        if len(plane) != d or any(len(row) != d for row in plane):
            raise DimensionMismatch("structure constant array is not cubic")
    return _checked_algebra([[dict(enumerate(map(rat, row))) for row in plane]
                             for plane in structure_constants])


def _checked_algebra(rows) -> LieAlgebra:
    """Freeze bracket rows rows[a][b] = {c: f_ab^c} into a LieAlgebra, with
    zeros dropped, columns sorted and ints where integral, after checking
    antisymmetry and the Jacobi identity on the rows."""
    d = len(rows)
    br = tuple(tuple({c: v.numerator if v.denominator == 1 else v
                      for c, v in sorted(row.items()) if v} for row in plane)
               for plane in rows)
    for a in range(d):
        for b in range(a, d):
            ab, ba = br[a][b], br[b][a]
            for c in sorted(ab.keys() | ba.keys()):
                if ab.get(c, 0) != -ba.get(c, 0):
                    raise AntisymmetryViolation((a, b, c))
    # Jacobi: f_xy^m f_mz^k for the three cyclic orders (x, y, z) of each
    # triple a < b < c
    for a, b, c in combinations(range(d), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            row_mul_add(acc, br[x][y], {m: br[m][z] for m in br[x][y]})
        broken = [k for k, v in acc.items() if v]
        if broken:
            raise JacobiViolation((a, b, c, min(broken)))
    return LieAlgebra(d, br)


def killing_form(g: LieAlgebra) -> list[list[Fraction]]:
    """kappa(a, b) = trace(ad e_a . ad e_b) = sum_{m,k} f_am^k f_bk^m, over
    the nonzero constants only: f_am^k filed at (m, k) meets f_bk^m."""
    by_slot = {}
    for a, plane in enumerate(g.brackets):
        for m, row in enumerate(plane):
            for k, v in row.items():
                by_slot.setdefault((m, k), []).append((a, v))
    kappa = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for (m, k), column in by_slot.items():
        for b, w in by_slot.get((k, m), ()):
            for a, v in column:
                kappa[a][b] += v * w
    return kappa


def is_semisimple(g: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    return exact_rank(killing_form(g)) == g.dim


def check_invariant_pairing(g: LieAlgebra, pairing: InvariantPairing) -> PairingReport:
    """Verify symmetry, order-0 nondegeneracy, and ad-invariance per h-order."""
    d = g.dim
    br = g.brackets
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
                        acc = (sum(v * G[m][c] for m, v in br[a][b].items())
                               + sum(v * G[b][m] for m, v in br[a][c].items()))
                        if acc:
                            violations.append(PairingViolation("invariance", k, (a, b, c)))
    return PairingReport(not violations, tuple(violations))


def check_bracket_compatible(g: LieAlgebra, rows, what: str) -> None:
    """Assert [rho(e_a), rho(e_b)] = sum_c f_ab^c rho(e_c) on all basis
    pairs, for rho given as one list of sparse rows per basis element.

    ``what`` names the matrices in the DimensionMismatch raised on a wrong
    count and in the ValueError raised on a failing pair.
    """
    d = g.dim
    if len(rows) != d:
        raise DimensionMismatch(
            f"{what} has {len(rows)} matrices for a {d}-dim algebra")
    for a in range(d):
        for b in range(a + 1, d):
            f_ab = g.brackets[a][b]
            for i in range(len(rows[a])):
                acc = row_mul_add({}, rows[a][i], rows[b])
                row_mul_add(acc, rows[b][i], rows[a], -1)
                row_mul_add(acc, f_ab, {c: rows[c][i] for c in f_ab}, -1)
                if any(acc.values()):
                    raise ValueError(
                        f"{what} not bracket compatible on basis pair ({a}, {b})")


def check_representation(g: LieAlgebra, rep: Representation) -> None:
    """Assert rho([x, y]) = rho(x) rho(y) - rho(y) rho(x) on all basis pairs."""
    check_bracket_compatible(g, rep.rows, "representation")


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _sl2() -> tuple[LieAlgebra, Representation]:
    # basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
    g = _checked_algebra([[{}, {1: 2}, {2: -2}],
                          [{1: -2}, {}, {0: 1}],
                          [{2: 2}, {0: -1}, {}]])
    rep = _from_rows(2, [[{0: 1}, {1: -1}], [{1: 1}, {}], [{}, {0: 1}]])
    return g, rep


def _sl2_irrep(k: int) -> tuple[LieAlgebra, Representation]:
    """(k+1)-dimensional irreducible of sl2 on v_0..v_k (v_0 highest weight)."""
    if k < 0:
        raise UnknownName("sl2_irrep needs a nonnegative highest weight")
    check_size("sl2_irrep carrier dimension", k + 1, MAX_IRREP_DIM)
    g, _ = _sl2()
    H = [{i: k - 2 * i} if k != 2 * i else {} for i in range(k + 1)]
    E = [{i + 1: (i + 1) * (k - i)} for i in range(k)] + [{}]
    F = [{}] + [{i: 1} for i in range(k)]
    rep = _from_rows(k + 1, [H, E, F])
    check_representation(g, rep)
    return g, rep


def _sln_fundamental(n: int) -> tuple[LieAlgebra, Representation]:
    """sl_n on its defining n-dimensional representation.

    Basis: E_ij for i != j in lexicographic order, then the n-1 diagonal
    elements H_i = E_ii - E_{i+1,i+1}.  Structure constants are read off by
    expanding sparse matrix commutators in this basis.
    """
    if n < 2:
        raise UnknownName("sln_fundamental needs n >= 2")
    check_size("algebra dimension", n * n - 1, MAX_PARSED_ALGEBRA_DIM)
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    index_of_offdiag = {ij: a for a, ij in enumerate(offdiag)}
    basis = [[{j: 1} if r == i else {} for r in range(n)] for i, j in offdiag]
    basis += [[{r: 1} if r == i else {r: -1} if r == i + 1 else {}
               for r in range(n)] for i in range(n - 1)]

    def bracket(x, y) -> dict:
        # [x, y] row by row: its off-diagonal entries are E_ij coordinates,
        # and partial sums of its diagonal give the H_i coordinates
        coords, partial = {}, 0
        for i, (xr, yr) in enumerate(zip(x, y)):
            row = row_mul_add(row_mul_add({}, xr, y), yr, x, -1)
            for j, v in row.items():
                if i != j:
                    coords[index_of_offdiag[i, j]] = v
            if i < n - 1:
                partial += row.get(i, 0)
                coords[len(offdiag) + i] = partial
        return coords

    g = _checked_algebra([[bracket(x, y) for y in basis] for x in basis])
    rep = _from_rows(n, basis)
    check_representation(g, rep)
    return g, rep


def _so3() -> tuple[LieAlgebra, Representation]:
    # [L_i, L_j] = sum_k epsilon_ijk L_k; defining rep = adjoint, whose
    # matrix ad(L_a) has entry f_ab^c in row c, column b
    g = _checked_algebra([[{}, {2: 1}, {1: -1}],
                          [{2: -1}, {}, {0: 1}],
                          [{1: 1}, {0: -1}, {}]])
    rep = _from_rows(3, [[{b: row[c] for b, row in enumerate(plane) if c in row}
                          for c in range(3)] for plane in g.brackets])
    check_representation(g, rep)
    return g, rep


def _abelian(d: int) -> tuple[LieAlgebra, Representation]:
    if d < 1:
        raise UnknownName("abelian needs a positive dimension")
    check_size("algebra dimension", d, MAX_PARSED_ALGEBRA_DIM)
    g = _checked_algebra([[{} for _ in range(d)] for _ in range(d)])
    # the trivial 1-dimensional representation, handy for defect computations
    rep = _from_rows(1, [[{}] for _ in range(d)])
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
    brackets = [[a, b, c, str(v)] for a, plane in enumerate(g.brackets)
                for b, row in enumerate(plane) for c, v in row.items()]
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
    rows = [[{} for _ in range(d)] for _ in range(d)]
    try:
        for entry in data.get("brackets", []):
            a, b, c, v = entry
            if not all(0 <= i < d for i in (a, b, c)):
                raise DimensionMismatch(f"bracket index out of range in {entry}")
            # operator.index refuses a float and reads true as 1
            a, b, c = map(operator.index, (a, b, c))
            rows[a][b][c] = Fraction(str(v))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad bracket entry: {exc}") from None
    return _checked_algebra(rows)
