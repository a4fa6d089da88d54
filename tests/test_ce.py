import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from rtfactor._linalg import mat_mul
from rtfactor.ce import (
    SuperModule,
    ce_complex,
    cohomology_dims,
    cs_deformation_cohomology,
    defect_deformation_cohomology,
    defect_module,
    make_super_module,
    module_from_representation,
    trivial_module,
)
from rtfactor.errors import DimensionTooLarge
from rtfactor.lie import builtin

from test_linalg import _change_basis, _rebased


def euler_char(dims):
    return sum((-1) ** k * n for k, n in enumerate(dims))


def test_sl2_trivial_dims_and_betti():
    g, _ = builtin("sl2")
    c = ce_complex(g, trivial_module(g))
    assert c.spaces == (1, 3, 3, 1)
    assert cohomology_dims(c) == (1, 0, 0, 1)


def test_abelian3_trivial_full_exterior():
    g, _ = builtin("abelian(3)")
    c = ce_complex(g, trivial_module(g))
    assert c.spaces == (1, 3, 3, 1)
    assert all(not v for dk in c.differentials for row in dk for v in row)
    assert cohomology_dims(c) == (1, 3, 3, 1)


def test_sl2_fundamental_dims():
    g, rep = builtin("sl2")
    c = ce_complex(g, module_from_representation(g, rep))
    assert c.spaces == (2, 6, 6, 2)


def test_sl3_trivial_betti_is_exterior_on_two_generators():
    # H*(sl3) is an exterior algebra on classes in degrees 3 and 5
    g, _ = builtin("sl3")
    betti = cohomology_dims(ce_complex(g, trivial_module(g)))
    assert betti == (1, 0, 0, 1, 0, 1, 0, 0, 1)


def test_whitehead_vanishing_nontrivial_irreducibles():
    for rep_name in ["sl2_irrep(1)", "sl2_irrep(2)", "sl2_irrep(3)", "sl2_irrep(4)"]:
        g, rep = builtin(rep_name)
        betti = cohomology_dims(ce_complex(g, module_from_representation(g, rep)))
        assert all(b == 0 for b in betti), (rep_name, betti)
    g, rep = builtin("sl3")
    betti = cohomology_dims(ce_complex(g, module_from_representation(g, rep)))
    assert all(b == 0 for b in betti)
    g, rep = builtin("so3")
    betti = cohomology_dims(ce_complex(g, module_from_representation(g, rep)))
    assert all(b == 0 for b in betti)


def test_h0_is_invariants():
    # trivial coefficients: H^0 = 1 always; semisimple: H^1 = H^2 = 0
    for name in ["sl2", "sl3", "so3"]:
        g, _ = builtin(name)
        betti = cohomology_dims(ce_complex(g, trivial_module(g)))
        assert betti[0] == 1
        assert betti[1] == 0
        assert betti[2] == 0


def test_euler_characteristic_matches_betti():
    cases = []
    for name in ["sl2", "so3", "abelian(2)"]:
        g, rep = builtin(name)
        cases.append(ce_complex(g, trivial_module(g)))
        if rep is not None:
            cases.append(ce_complex(g, module_from_representation(g, rep)))
    for c in cases:
        assert euler_char(c.spaces) == euler_char(cohomology_dims(c))


def test_parity_mixing_rejected():
    g, _ = builtin("abelian(1)")
    bad = [[[0, 1], [0, 0]]]
    with pytest.raises(ValueError):
        make_super_module(g, 1, 1, bad)


def test_non_compatible_action_rejected():
    g, _ = builtin("sl2")
    eye = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        make_super_module(g, 2, 0, [eye, eye, eye])


def test_dimension_guard():
    # every degree of abelian(15) touches 2^15 cochains
    g, _ = builtin("abelian(15)")
    with pytest.raises(DimensionTooLarge):
        ce_complex(g, trivial_module(g))


def test_sl4_cs_deformation():
    g, _ = builtin("sln_fundamental(4)")
    assert cs_deformation_cohomology(g) == (1, 0)


def test_sl4_fundamental_whitehead():
    g, rep = builtin("sln_fundamental(4)")
    betti = cohomology_dims(
        ce_complex(g, module_from_representation(g, rep), degrees=(1, 2)))
    assert betti[1:3] == (0, 0)


def test_cs_deformation_sl2_sl3():
    g2, _ = builtin("sl2")
    assert cs_deformation_cohomology(g2) == (1, 0)
    g3, _ = builtin("sl3")
    assert cs_deformation_cohomology(g3) == (1, 0)


def test_cs_deformation_abelian3():
    g, _ = builtin("abelian(3)")
    assert cs_deformation_cohomology(g) == (1, 0)


# -- defect coefficients -------------------------------------------------------

def test_defect_module_dimensions():
    g, rep = builtin("sl2")
    flat = defect_module(g, rep, boundary=False)
    assert flat.dim == 4 ** 2 - 1
    bdry = defect_module(g, rep, boundary=True)
    assert bdry.dim == 2 ** 2 * (2 ** 2 - 1)
    # parity split: even words of positive length in 4 generators: C(4,2)+C(4,4)=7
    assert flat.even_dim == 7
    assert flat.odd_dim == 8


def test_defect_cohomology_sl2_vanishes():
    g, rep = builtin("sl2")
    assert defect_deformation_cohomology(g, rep, boundary=False) == (0, 0)
    assert defect_deformation_cohomology(g, rep, boundary=True) == (0, 0)


def test_defect_cohomology_abelian_matches_count_oracle():
    # zero bracket and trivial action make d = 0, so
    # dim H^k = binom(dim g, k) * dim M exactly
    for d_g in [1, 2]:
        g, rep = builtin(f"abelian({d_g})")
        for boundary, dim_m in [(False, 3), (True, 2)]:
            got = defect_deformation_cohomology(g, rep, boundary)
            want = (comb(d_g, 1) * dim_m, comb(d_g, 2) * dim_m)
            assert got == want, (d_g, boundary, got, want)


def test_defect_carrier_guard():
    # the flat module of a 6-dim carrier has 4^6 - 1 words: 8 * 4095 cochains
    g, rep = builtin("sl2_irrep(5)")
    with pytest.raises(DimensionTooLarge):
        defect_module(g, rep)


def test_defect_module_action_is_derivation_spot_check():
    # e.g. the sl2 raising operator on the word v2: E.v2 = v1
    g, rep = builtin("sl2")
    mod = defect_module(g, rep)
    # find basis indices of single-generator words v1 = bit0, v2 = bit1
    # masks sorted even-first; singletons are odd words
    # recompute the mask order the same way the module does
    masks = sorted(range(1, 16), key=lambda m: (bin(m).count("1") % 2, bin(m).count("1"), m))
    idx = {m: i for i, m in enumerate(masks)}
    e_action = mod.action[1]
    col = idx[0b0010]  # v2
    assert e_action[idx[0b0001]][col] == 1  # coefficient of v1
    # and on the dual generators the sign flips: E.w1 = -w2
    col_w1 = idx[0b0100]
    assert e_action[idx[0b1000]][col_w1] == -1


def test_sl3_fundamental_defect_whitehead():
    # dim-63 module over an 8-dim algebra: out of reach while every degree
    # of the complex was built and checked densely
    g, rep = builtin("sl3")
    assert defect_deformation_cohomology(g, rep) == (0, 0)


# -- the sparse module against the dense construction --------------------------

def _dense_defect_action(g, rho, boundary):
    """Oracle: the defect action as dense Fraction matrices, in the word
    order of defect_module; returns (even_dim, matrices)."""
    n = rho.dim
    total = 2 * n
    dual_mask = ((1 << n) - 1) << n
    popcount = lambda m: bin(m).count("1")
    masks = [m for m in range(1, 1 << total) if m & dual_mask or not boundary]
    masks.sort(key=lambda m: (popcount(m) % 2, popcount(m), m))
    even_dim = sum(1 for m in masks if popcount(m) % 2 == 0)
    index_of = {m: i for i, m in enumerate(masks)}
    dim_m = len(masks)
    action = []
    for a in range(g.dim):
        mat = rho.matrices[a]
        images = [{j: mat[j][t] for j in range(n) if mat[j][t]} for t in range(n)]
        images += [{n + j: -mat[t][j] for j in range(n) if mat[t][j]}
                   for t in range(n)]
        m_a = [[Fraction(0)] * dim_m for _ in range(dim_m)]
        for col, mask in enumerate(masks):
            bits = [b for b in range(total) if (mask >> b) & 1]
            for t in bits:
                for y, cf in images[t].items():
                    if y != t and (mask >> y) & 1:
                        continue
                    new_mask = (mask & ~(1 << t)) | (1 << y)
                    lo, hi = min(t, y), max(t, y)
                    crossings = sum(1 for b in bits if b != t and lo < b < hi)
                    m_a[index_of[new_mask]][col] += (-1) ** crossings * cf
        action.append(m_a)
    return even_dim, action


def _assert_sparse_rows_equal(rows, dense):
    """Same entries, no stored zero, every integral value an int."""
    assert len(rows) == len(dense)
    for row, want_row in zip(rows, dense):
        assert all(v and (type(v) is int or v.denominator > 1)
                   for v in row.values()), row
        assert [row.get(j, 0) for j in range(len(want_row))] == want_row


@pytest.mark.parametrize("boundary", [False, True], ids=["flat", "boundary"])
@pytest.mark.parametrize("name, rebase", [
    ("sl2", False), ("so3", False), ("sl2_irrep(2)", False), ("so3", True)])
def test_sparse_defect_module_matches_dense_oracle(name, rebase, boundary):
    g, rep = builtin(name)
    if rebase:
        g, rep = _rebased(g, rep, random.Random(7))
    module = defect_module(g, rep, boundary)
    even_dim, dense = _dense_defect_action(g, rep, boundary)
    assert (module.even_dim, module.dim) == (even_dim, len(dense[0]))
    assert len(module.action) == len(dense) == g.dim
    for rows, want in zip(module.action, dense):
        _assert_sparse_rows_equal(rows, want)


# -- the sparse complex against the dense construction -------------------------

def _dense_differentials(g, module):
    """Oracle: every differential as a dense Fraction matrix, d.d = 0
    checked by dense products."""
    d = g.dim
    dim_m = module.dim
    f = g.structure_constants
    subsets = [list(combinations(range(d), k)) for k in range(d + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in subsets]
    spaces = [comb(d, k) * dim_m for k in range(d + 1)]
    differentials = []
    for k in range(d):
        dk = [[Fraction(0)] * spaces[k] for _ in range(spaces[k + 1])]
        for big in subsets[k + 1]:
            row_base = index[k + 1][big] * dim_m
            for i, ti in enumerate(big):
                rest = big[:i] + big[i + 1:]
                col_base = index[k][rest] * dim_m
                sign = -1 if i % 2 else 1
                for mp, arow in enumerate(module.action[ti]):
                    for m, v in arow.items():
                        dk[row_base + mp][col_base + m] += sign * v
                for j in range(i + 1, k + 1):
                    tj = big[j]
                    between = big[:i] + big[i + 1:j] + big[j + 1:]
                    pair_sign = -1 if (i + j) % 2 else 1
                    for c in range(d):
                        fc = f[ti][tj][c]
                        if not fc or c in between:
                            continue
                        pos = sum(1 for b in between if b < c)
                        small = tuple(sorted(between + (c,)))
                        col_base2 = index[k][small] * dim_m
                        coeff = pair_sign * fc * (1 if pos % 2 == 0 else -1)
                        for m in range(dim_m):
                            dk[row_base + m][col_base2 + m] += coeff
        differentials.append(dk)
    for k in range(d - 1):
        square = mat_mul(differentials[k + 1], differentials[k])
        assert all(not v for row in square for v in row)
    return differentials


def _trivial_case(name):
    g, _ = builtin(name)
    return g, trivial_module(g)


def _defect_case(name, boundary=False):
    g, rep = builtin(name)
    return g, defect_module(g, rep, boundary)


def _defect_rebased_case(name):
    g, rep = _rebased(*builtin(name), random.Random(7))
    return g, defect_module(g, rep)


@pytest.mark.parametrize("build, args", [
    (_trivial_case, ("sl2",)), (_trivial_case, ("so3",)),
    (_trivial_case, ("sl3",)), (_trivial_case, ("abelian(3)",)),
    (_defect_case, ("sl2",)), (_defect_case, ("sl2", True)),
    (_defect_case, ("so3",)), (_defect_case, ("so3", True)),
    (_defect_rebased_case, ("so3",))])
def test_sparse_differentials_match_dense_oracle(build, args):
    g, module = build(*args)
    c = ce_complex(g, module)
    dense = _dense_differentials(g, module)
    assert len(c.differentials) == len(dense)
    for k, (rows, want) in enumerate(zip(c.differentials, dense)):
        assert len(rows) == len(want) == c.spaces[k + 1]
        assert all(len(row) == c.spaces[k] for row in want)
        _assert_sparse_rows_equal(rows, want)


# (kind, algebra) for each cs/defect input class of perfbench/cohomology.py
_WORKLOAD_CASES = (
    [("cs", name) for name in ("sl2", "so3", "sl3", "abelian(3)", "abelian(4)",
                               "abelian(5)")]
    + [("defect", name) for name in ("sl2", "so3", "abelian(1)", "abelian(2)",
                                     "abelian(3)")]
    + [("boundary", name) for name in ("sl2", "sl2_irrep(2)")])


@pytest.mark.parametrize("kind, name", _WORKLOAD_CASES)
@pytest.mark.parametrize("rebase", [False, True])
def test_degree_restricted_complex_matches_full(kind, name, rebase):
    g, rep = builtin(name)
    if rebase and g.dim > 1:
        g, rep = _rebased(g, rep, random.Random(name))
    if kind == "cs":
        module, degrees = trivial_module(g), (3, 4)
    else:
        module, degrees = defect_module(g, rep, kind == "boundary"), (1, 2)
    full = cohomology_dims(ce_complex(g, module))
    part = ce_complex(g, module, degrees)
    built = {j for k in degrees for j in (k - 1, k) if 0 <= j < g.dim}
    assert {k for k, dk in enumerate(part.differentials) if dk is not None} == built
    betti = cohomology_dims(part)
    want = tuple(full[k] if k < len(full) else 0 for k in degrees)
    assert tuple(betti[k] if k < len(betti) else 0 for k in degrees) == want
    if kind == "cs":
        assert cs_deformation_cohomology(g) == want
    else:
        assert defect_deformation_cohomology(g, rep, kind == "boundary") == want


@pytest.mark.parametrize("fundamental", [False, True])
def test_degree_restricted_differentials_equal_full_ones(fundamental):
    g, rep = builtin("sl3")
    module = module_from_representation(g, rep) if fundamental else trivial_module(g)
    full = ce_complex(g, module)
    part = ce_complex(g, module, degrees=(3, 4))
    assert part.spaces == full.spaces
    for k in (2, 3, 4):
        assert part.differentials[k] == full.differentials[k]


# e'_0 = e_0 / 2 and e'_1 = e_1 + e_0 / 3: rational structure constants and action
_SCALE = [[Fraction(1, 2), 0, 0], [Fraction(1, 3), 1, 0], [0, 0, 1]]
_SCALE_INV = [[2, 0, 0], [Fraction(-2, 3), 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("name", ["sl2", "so3"])
def test_rational_basis_gives_builtin_answers(name):
    g0, rep0 = builtin(name)
    g, rep = _change_basis(g0, rep0, _SCALE, _SCALE_INV)
    assert any(v.denominator > 1 for plane in g.structure_constants
               for coords in plane for v in coords)
    assert any(Fraction(v).denominator > 1 for m in rep.matrices
               for row in m for v in row)
    for module, module0 in [(trivial_module(g), trivial_module(g0)),
                            (module_from_representation(g, rep),
                             module_from_representation(g0, rep0))]:
        assert cohomology_dims(ce_complex(g, module)) == \
            cohomology_dims(ce_complex(g0, module0))
    assert cs_deformation_cohomology(g) == cs_deformation_cohomology(g0)
    for boundary in (False, True):
        assert defect_deformation_cohomology(g, rep, boundary) == \
            defect_deformation_cohomology(g0, rep0, boundary)


def test_broken_action_fails_d_squared_check():
    # scaling F by 2 breaks [E, F] = H; built without make_super_module,
    # the action reaches ce_complex unchecked
    g, _ = builtin("sl2")
    action = ([{0: 1}, {1: -1}], [{1: 1}, {}], [{}, {0: 2}])
    module = SuperModule(2, 0, action)
    with pytest.raises(AssertionError, match=r"d\.d != 0 at degree 0"):
        ce_complex(g, module)
