"""Lie algebra cochain complexes and exact cohomology.

C^k = Hom(Lambda^k g, M) for a finite-dimensional module M (possibly with a
parity splitting), with the differential

    (d phi)(x_0, ..., x_k) = sum_i (-1)^i x_i . phi(..., x_i dropped, ...)
                           + sum_{i<j} (-1)^{i+j} phi([x_i, x_j], ..., both dropped)

Each d_k: C^k -> C^{k+1} is a list of sparse {column: value} rows, values
ints where integral, and is built only when an asked degree needs it (H^k
needs d_{k-1} and d_k).  d . d = 0 is asserted by a sparse product on every
pair of consecutive differentials built, never assumed.  Betti numbers come
from exact rank computations over the rationals.

Two deformation-complex front ends are provided: one for the bulk theory
(trivial coefficients, degrees 3 and 4) and one for line defects built from a
representation (coefficients in the positive-degree part of the exterior
algebra on V + V*, degrees 1 and 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, count
from math import comb

# mat_mul is unused here but stays importable: perfbench/tracing.py wraps ce.mat_mul
from ._linalg import exact_rank, mat_mul, row_mul_add, sparse_rows
from .errors import check_size
from .lie import LieAlgebra, Representation, check_bracket_compatible
from .ring import rat

MAX_ALGEBRA_DIM = 10
MAX_DEFECT_CARRIER_DIM = 5


@dataclass(frozen=True)
class SuperModule:
    """Finite-dimensional g-module with an even/odd splitting.

    Basis convention: indices [0, even_dim) are even, the rest odd.  The
    algebra acts by even operators, so action matrices are block diagonal
    with respect to that splitting.  Use make_super_module to validate.
    """

    even_dim: int
    odd_dim: int
    action: tuple  # one (dim x dim) matrix per algebra basis element

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim


def make_super_module(g: LieAlgebra, even_dim: int, odd_dim: int, action) -> SuperModule:
    """Validate block structure and bracket compatibility, then freeze."""
    n = even_dim + odd_dim
    mats = [[list(map(rat, row)) for row in m] for m in action]
    check_bracket_compatible(g, mats, n, "module action")
    for a, m in enumerate(mats):
        for i, row in enumerate(m):
            for j in compress(count(), row):
                if (i < even_dim) != (j < even_dim):
                    raise ValueError(
                        f"action matrix {a} mixes parities at entry ({i}, {j})")
    frozen = tuple(tuple(tuple(row) for row in m) for m in mats)
    return SuperModule(even_dim, odd_dim, frozen)


def trivial_module(g: LieAlgebra, dim: int = 1) -> SuperModule:
    zero = tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim))
    return SuperModule(dim, 0, tuple(zero for _ in range(g.dim)))


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
    d = g.dim
    check_size("algebra dimension", d, MAX_ALGEBRA_DIM)
    dim_m = module.dim
    brackets = [sparse_rows(plane) for plane in g.structure_constants]
    act = [sparse_rows(m) for m in module.action]

    subsets = [list(combinations(range(d), k)) for k in range(d + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in subsets]
    spaces = tuple(comb(d, k) * dim_m for k in range(d + 1))
    wanted = range(d) if degrees is None else {
        j for k in degrees for j in (k - 1, k) if 0 <= j < d}

    differentials = [None] * d
    for k in wanted:
        dk = [{} for _ in range(spaces[k + 1])]
        for big in subsets[k + 1]:
            row_base = index[k + 1][big] * dim_m
            for i, ti in enumerate(big):
                rest = big[:i] + big[i + 1:]
                col_base = index[k][rest] * dim_m
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
                        col = index[k][small] * dim_m
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

def _popcount(x: int) -> int:
    return bin(x).count("1")


def defect_module(g: LieAlgebra, rho: Representation, boundary: bool = False) -> SuperModule:
    """Coefficient module for line-defect deformations.

    Generators: a basis of V (indices 0..n-1) and of V* (indices n..2n-1),
    all odd.  Words are subsets; the algebra acts by derivations, on V by rho
    and on V* by minus the transpose.  The flat module keeps every nonempty
    word; the boundary variant keeps words with at least one V* factor.
    """
    n = rho.dim
    check_size("carrier dimension", n, MAX_DEFECT_CARRIER_DIM)
    total = 2 * n
    dual_mask = ((1 << n) - 1) << n
    if boundary:
        masks = [m for m in range(1 << total) if m & dual_mask]
    else:
        masks = [m for m in range(1, 1 << total)]
    masks.sort(key=lambda m: (_popcount(m) % 2, _popcount(m), m))
    even_dim = sum(1 for m in masks if _popcount(m) % 2 == 0)
    index_of = {m: i for i, m in enumerate(masks)}
    dim_m = len(masks)

    # image of each generator under each algebra element, as {target: coeff}
    gen_images = []
    for a in range(g.dim):
        mat = rho.matrices[a]
        img: list[dict[int, Fraction]] = []
        for t in range(n):  # V generators: column t of rho
            img.append({j: mat[j][t] for j in range(n) if mat[j][t]})
        for t in range(n):  # V* generators: column t of -rho^T = -row t of rho
            img.append({n + j: -mat[t][j] for j in range(n) if mat[t][j]})
        gen_images.append(img)

    action = []
    for a in range(g.dim):
        m_a = [[Fraction(0)] * dim_m for _ in range(dim_m)]
        for col, mask in enumerate(masks):
            bits = [b for b in range(total) if (mask >> b) & 1]
            for t in bits:
                for y, cf in gen_images[a][t].items():
                    if y != t and (mask >> y) & 1:
                        continue  # repeated odd generator: word dies
                    new_mask = (mask & ~(1 << t)) | (1 << y)
                    lo, hi = min(t, y), max(t, y)
                    crossings = sum(1 for b in bits if b != t and lo < b < hi)
                    sign = -1 if crossings % 2 else 1
                    m_a[index_of[new_mask]][col] += sign * cf
        action.append(m_a)

    return make_super_module(g, even_dim, dim_m - even_dim, action)


def defect_deformation_cohomology(g: LieAlgebra, rho: Representation,
                                  boundary: bool = False) -> tuple[int, int]:
    """(dim H^1, dim H^2) of the cochain complex with defect coefficients:
    deformation and obstruction groups of the defect theory."""
    betti = cohomology_dims(
        ce_complex(g, defect_module(g, rho, boundary), degrees=(1, 2)))
    return (betti + (0,))[1:3]  # zero above the top degree
