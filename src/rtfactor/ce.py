"""Lie algebra cochain complexes and exact cohomology.

C^k = Hom(Lambda^k g, M) for a finite-dimensional module M (possibly with a
parity splitting), with the differential

    (d phi)(x_0, ..., x_k) = sum_i (-1)^i x_i . phi(..., x_i dropped, ...)
                           + sum_{i<j} (-1)^{i+j} phi([x_i, x_j], ..., both dropped)

The brackets (``LieAlgebra.brackets``), each module action and each
differential d_k: C^k -> C^{k+1} are lists of sparse {column: value} rows,
values ints where integral.  d_k is built only when an asked degree needs
it (H^k needs d_{k-1} and d_k), and MAX_COCHAINS bounds the cochains the
built differentials touch.  d . d = 0 is asserted by a sparse product on
every pair of consecutive differentials built, never assumed.  Betti
numbers come from exact rank computations over the rationals.

Two deformation-complex front ends are provided: one for the bulk theory
(trivial coefficients, degrees 3 and 4) and one for line defects built from a
representation (coefficients in the positive-degree part of the exterior
algebra on V + V*, degrees 1 and 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

# mat_mul is unused here but stays importable: perfbench/tracing.py wraps ce.mat_mul
from ._linalg import exact_rank, mat_mul, row_mul_add
from .errors import DimensionMismatch, check_size
from .lie import LieAlgebra, Representation, check_bracket_compatible

# 2^14 admits sl4 cs (4928 cochains, 0.15 s) and the sl2_irrep(4) defect
# (8184, 0.14 s).  Lifted in a script, the refused sl2_irrep(5) defect (32760)
# takes 0.7 s and 37 MB, sl4 Betti (32768) 1.3-1.5 s and the sl4 defect
# (146880) 1.6-2.0 s and 130 MB: the limit is a fixed count, not yet a cost
# estimate.
MAX_COCHAINS = 2 ** 14
DEFECT_DEGREES = (1, 2)


def _differentials_to_build(d: int, dim_m: int, degrees) -> set:
    """The k of each d_k that H^j for j in ``degrees`` needs (d_{j-1} and
    d_j; every d_k when None).  Refused when the spaces C^k, C^{k+1} they
    touch, of comb(d, k) * dim_m cochains each, hold more than MAX_COCHAINS."""
    built = set(range(d)) if degrees is None else {
        k for j in degrees for k in (j - 1, j) if 0 <= k < d}
    touched = {j for k in built for j in (k, k + 1)}
    check_size("cochain count", sum(comb(d, j) for j in touched) * dim_m,
               MAX_COCHAINS)
    return built


@dataclass(frozen=True)
class SuperModule:
    """Finite-dimensional g-module with an even/odd splitting.

    Basis convention: indices [0, even_dim) are even, the rest odd.  The
    algebra acts by even operators, so action matrices are block diagonal
    with respect to that splitting.  Use make_super_module to validate.
    """

    even_dim: int
    odd_dim: int
    action: tuple  # per algebra basis element, dim sparse {column: value} rows

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim


def make_super_module(g: LieAlgebra, even_dim: int, odd_dim: int, action) -> SuperModule:
    """Validate an action given as one list of even_dim + odd_dim sparse
    {column: value} rows per basis element: shape, parity, brackets."""
    n = even_dim + odd_dim
    for a, m in enumerate(action):
        if len(m) != n:
            raise DimensionMismatch("module action matrix has wrong shape")
        for i, row in enumerate(m):
            for j in row:
                if not 0 <= j < n:
                    raise DimensionMismatch("module action matrix has wrong shape")
                if (i < even_dim) != (j < even_dim):
                    raise ValueError(
                        f"action matrix {a} mixes parities at entry ({i}, {j})")
    check_bracket_compatible(g, action, "module action")
    return SuperModule(even_dim, odd_dim, tuple(action))


def trivial_module(g: LieAlgebra, dim: int = 1) -> SuperModule:
    return SuperModule(dim, 0, tuple([{}] * dim for _ in range(g.dim)))


def module_from_representation(g: LieAlgebra, rep: Representation) -> SuperModule:
    """An ordinary (all-even) module from a matrix representation."""
    return make_super_module(g, rep.dim, 0, rep.rows)


@dataclass(frozen=True)
class CochainComplex:
    spaces: tuple          # dimensions n_0, ..., n_top
    differentials: tuple   # d_k: C^k -> C^{k+1} as n_{k+1} sparse rows; None if not built


def ce_complex(g: LieAlgebra, module: SuperModule, degrees=None) -> CochainComplex:
    """Build the differentials that H^k for k in ``degrees`` needs (all when
    None); asserts d.d = 0 exactly on each consecutive pair built."""
    d, dim_m = g.dim, module.dim
    built = _differentials_to_build(d, dim_m, degrees)
    brackets, act = g.brackets, module.action

    spaces = tuple(comb(d, k) * dim_m for k in range(d + 1))

    differentials = [None] * d
    for k in built:
        # k-subsets of the basis, as bit masks, index the columns; rows run
        # over (k+1)-subsets, both in combinations order
        index = {sum(1 << b for b in s): i
                 for i, s in enumerate(combinations(range(d), k))}
        dk = []
        for big in combinations(range(d), k + 1):
            big_mask = sum(1 << b for b in big)
            rows = [{} for _ in range(dim_m)]
            # the action terms of distinct i fill disjoint column blocks
            for i, ti in enumerate(big):
                col_base = index[big_mask ^ (1 << ti)] * dim_m
                sign = -1 if i % 2 else 1
                for row, arow in zip(rows, act[ti]):
                    for m, v in arow.items():
                        row[col_base + m] = sign * v
            # the bracket terms act on every module index alike: sum them
            # per k-subset first, then add each to the dim_m rows once
            bracket = {}
            for i, ti in enumerate(big):
                for j in range(i + 1, k + 1):
                    tj = big[j]
                    between = big_mask ^ (1 << ti) ^ (1 << tj)
                    pair_sign = -1 if (i + j) % 2 else 1
                    for c, fc in brackets[ti][tj].items():
                        if between >> c & 1:
                            continue
                        pos = (between & ((1 << c) - 1)).bit_count()
                        small = index[between | (1 << c)]
                        coeff = pair_sign * fc if pos % 2 == 0 else -pair_sign * fc
                        bracket[small] = bracket.get(small, 0) + coeff
            for small, coeff in bracket.items():
                if coeff:
                    col = small * dim_m
                    for row in rows:
                        row[col] = row.get(col, 0) + coeff
                        col += 1
            # sums of Fractions that come out integral are stored as ints
            dk += [{c: v if type(v) is int or v.denominator > 1 else v.numerator
                    for c, v in row.items() if v} for row in rows]
        differentials[k] = dk

    for k, (lower, upper) in enumerate(zip(differentials, differentials[1:])):
        if lower is not None and upper is not None:
            for row in upper:
                assert not any(row_mul_add({}, row, lower).values()), f"d.d != 0 at degree {k}"
    return CochainComplex(spaces, tuple(differentials))


def cohomology_dims(c: CochainComplex) -> tuple:
    """Betti numbers, one per cochain degree; None for a degree whose
    differentials were not built."""
    # ranks[k] = rank d_{k-1}, with zeros below degree 0 and above the top
    ranks = [0] + [None if dk is None else exact_rank(dk)
                   for dk in c.differentials] + [0]
    return tuple(None if None in (r_in, r_out) else n_k - r_in - r_out
                 for n_k, r_in, r_out in zip(c.spaces, ranks, ranks[1:]))


def cs_deformation_cohomology(g: LieAlgebra) -> tuple[int, int]:
    """(dim H^3, dim H^4) with trivial coefficients: deformation and obstruction
    groups of the bulk theory."""
    betti = cohomology_dims(ce_complex(g, trivial_module(g), degrees=(3, 4)))
    return (betti + (0, 0, 0))[3:5]  # zero above the top degree


# ---------------------------------------------------------------------------
# Defect coefficients: exterior algebra on V + V* with the derivation action
# ---------------------------------------------------------------------------

def _defect_words(n: int, boundary: bool) -> list:
    """Words on V + V* as bit masks (bit t is generator t): nonempty, or with
    a V* factor for the boundary; even words first, then by length and mask."""
    dual_mask = ((1 << n) - 1) << n
    words = [m for m in range(1, 4 ** n) if m & dual_mask or not boundary]
    return sorted(words, key=lambda m: (m.bit_count() % 2, m.bit_count(), m))


def defect_module(g: LieAlgebra, rho: Representation, boundary: bool = False) -> SuperModule:
    """Coefficient module for line-defect deformations.

    Generators: a basis of V (indices 0..n-1) and of V* (indices n..2n-1),
    all odd.  Words are subsets; the algebra acts by derivations, on V by rho
    and on V* by minus the transpose.  The flat module keeps every nonempty
    word (4^n - 1 of them); the boundary variant keeps words with at least
    one V* factor (4^n - 2^n).  Refused, before any word is built, when
    the complex for H^k, k in DEFECT_DEGREES, exceeds MAX_COCHAINS.
    """
    n = rho.dim
    _differentials_to_build(
        g.dim, 4 ** n - (2 ** n if boundary else 1), DEFECT_DEGREES)
    total = 2 * n
    masks = _defect_words(n, boundary)
    even_dim = sum(1 for m in masks if m.bit_count() % 2 == 0)
    index_of = {m: i for i, m in enumerate(masks)}

    rows = []
    for rho_a in rho.rows:
        # generator images {target: coeff}: columns of rho on V, of -rho^T on V*
        images = [{} for _ in range(total)]
        for j, row in enumerate(rho_a):
            for t, v in row.items():
                images[t][j] = v
                images[n + j][n + t] = -v
        out = [{} for _ in masks]
        for col, mask in enumerate(masks):
            bits = [b for b in range(total) if (mask >> b) & 1]
            for t in bits:
                for y, cf in images[t].items():
                    if y != t and (mask >> y) & 1:
                        continue  # repeated odd generator: word dies
                    lo, hi = min(t, y), max(t, y)
                    crossings = sum(1 for b in bits if b != t and lo < b < hi)
                    target = out[index_of[(mask & ~(1 << t)) | (1 << y)]]
                    target[col] = target.get(col, 0) + (-cf if crossings % 2 else cf)
        rows.append([{c: v for c, v in row.items() if v} for row in out])
    return make_super_module(g, even_dim, len(masks) - even_dim, rows)


def defect_deformation_cohomology(g: LieAlgebra, rho: Representation,
                                  boundary: bool = False) -> tuple[int, int]:
    """(dim H^1, dim H^2) of the cochain complex with defect coefficients:
    deformation and obstruction groups of the defect theory."""
    betti = cohomology_dims(
        ce_complex(g, defect_module(g, rho, boundary), DEFECT_DEGREES))
    return (betti + (0,))[1:3]  # zero above the top degree
