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
from .errors import check_size
from .lie import (LieAlgebra, Representation, check_bracket_compatible,
                  sparse_matrices)

# 2^14 admits sl4 cs (4928 cochains) and the sl2_irrep(4) defect (8184, 1 s);
# the sl2_irrep(5) defect (32760) took 41 s and 1.2 GB.
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
    """Convert dense int/Fraction matrices once; check shape, brackets, parity."""
    return _checked_module(g, even_dim, sparse_matrices(
        g, action, even_dim + odd_dim, "module action"))


def _checked_module(g: LieAlgebra, even_dim: int, rows) -> SuperModule:
    check_bracket_compatible(g, rows, "module action")
    for a, m in enumerate(rows):
        for i, row in enumerate(m):
            for j in row:
                if (i < even_dim) != (j < even_dim):
                    raise ValueError(
                        f"action matrix {a} mixes parities at entry ({i}, {j})")
    return SuperModule(even_dim, len(rows[0]) - even_dim, tuple(rows))


def trivial_module(g: LieAlgebra, dim: int = 1) -> SuperModule:
    return SuperModule(dim, 0, tuple([{}] * dim for _ in range(g.dim)))


def module_from_representation(g: LieAlgebra, rep: Representation) -> SuperModule:
    """An ordinary (all-even) module from a matrix representation."""
    return make_super_module(g, rep.dim, 0, rep.matrices)


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
        # k-subsets of the basis index the columns; rows run over (k+1)-subsets
        index = {s: i for i, s in enumerate(combinations(range(d), k))}
        dk = [{} for _ in range(spaces[k + 1])]
        for big_pos, big in enumerate(combinations(range(d), k + 1)):
            row_base = big_pos * dim_m
            for i, ti in enumerate(big):
                rest = big[:i] + big[i + 1:]
                col_base = index[rest] * dim_m
                sign = -1 if i % 2 else 1
                for row, arow in zip(dk[row_base:row_base + dim_m], act[ti]):
                    for m, v in arow.items():
                        col = col_base + m
                        row[col] = row.get(col, 0) + sign * v
                for j in range(i + 1, k + 1):
                    tj = big[j]
                    between = big[:i] + big[i + 1:j] + big[j + 1:]
                    pair_sign = -1 if (i + j) % 2 else 1
                    for c, fc in brackets[ti][tj].items():
                        if c in between:
                            continue
                        pos = sum(1 for b in between if b < c)
                        small = tuple(sorted(between + (c,)))
                        col = index[small] * dim_m
                        coeff = pair_sign * fc * (1 if pos % 2 == 0 else -1)
                        for row in dk[row_base:row_base + dim_m]:
                            row[col] = row.get(col, 0) + coeff
                            col += 1
        differentials[k] = [{c: v for c, v in row.items() if v} for row in dk]

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
    for rho_a in sparse_matrices(g, rho.matrices, n, "representation"):
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
    return _checked_module(g, even_dim, rows)


def defect_deformation_cohomology(g: LieAlgebra, rho: Representation,
                                  boundary: bool = False) -> tuple[int, int]:
    """(dim H^1, dim H^2) of the cochain complex with defect coefficients:
    deformation and obstruction groups of the defect theory."""
    betti = cohomology_dims(
        ce_complex(g, defect_module(g, rho, boundary), DEFECT_DEGREES))
    return (betti + (0,))[1:3]  # zero above the top degree
