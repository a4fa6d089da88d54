"""exact_rank against a dense Fraction elimination oracle; mat_inv by
its product with the matrix."""

import copy
import json
import random
from fractions import Fraction

import pytest

from rtfactor._linalg import exact_rank, mat_inv
from rtfactor.ce import ce_complex, defect_module, trivial_module
from rtfactor.lie import Representation, algebra_from_json, builtin


def _dense_rank(rows):
    """Oracle: row reduction over Fraction, first nonzero entry as pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank]
        for row in m[rank + 1:]:
            if row[col]:
                ratio = row[col] / prow[col]
                for c in range(col, len(row)):
                    row[c] -= ratio * prow[c]
        rank += 1
    return rank


def _entry(rng, big):
    if rng.random() < 0.6:
        return 0
    value = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    return value * (10 ** 30 + rng.randint(-5, 5)) if big else value


def _low_rank(rng, rows, cols, inner, big=False):
    """A (rows x inner) times B (inner x cols), with some rows zeroed."""
    a = [[_entry(rng, big) for _ in range(inner)] for _ in range(rows)]
    b = [[_entry(rng, big) for _ in range(cols)] for _ in range(inner)]
    out = [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
            for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        if rng.random() < 0.15:
            out[i] = [0] * cols
    return out


@pytest.mark.parametrize("seed", range(40))
def test_random_low_rank_products_match_oracle(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 14), rng.randint(0, 14)
    m = _low_rank(rng, rows, cols, rng.randint(0, 8), big=seed % 4 == 3)
    assert exact_rank(m) == _dense_rank(m)
    # the same rows as {column: value} dicts, explicit zeros included
    assert exact_rank([dict(enumerate(row)) for row in m]) == _dense_rank(m)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0), (3, 3)])
def test_empty_and_zero_shapes(rows, cols):
    assert exact_rank([[0] * cols for _ in range(rows)]) == 0


def test_negative_and_non_unit_denominators():
    m = [[Fraction(-1, 3), Fraction(2, 5), 0],
         [Fraction(1, -6), Fraction(1, 5), 0],   # half the first row
         [0, Fraction(-7, 4), Fraction(9, 11)]]
    assert exact_rank(m) == _dense_rank(m) == 2
    m[1][2] = Fraction(-1, 10 ** 30)
    assert exact_rank(m) == _dense_rank(m) == 3


def test_entries_near_ten_to_the_thirty():
    big = 10 ** 30
    m = [[big + 1, big], [big, big - 1]]          # det = -1
    assert exact_rank(m) == 2
    m = [[big + 1, big], [2 * big + 2, 2 * big]]  # proportional rows
    assert exact_rank(m) == 1
    m = [[Fraction(big, 3), big + 7], [Fraction(big, 3) + 1, big + 7]]
    assert exact_rank(m) == _dense_rank(m) == 2


def test_tuple_rows_accepted_and_input_not_mutated():
    m = ((Fraction(2), Fraction(4), 0), (1, 2, Fraction(1, 2)), (3, 6, 0))
    assert exact_rank(m) == 2
    lists = [list(row) for row in m]
    before = copy.deepcopy(lists)
    assert exact_rank(lists) == 2
    assert lists == before
    assert exact_rank(iter(lists)) == 2


def _dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _sparse(rng, rows, cols):
    """rows sparse rows of 3-6 entries +-1..+-3 on cols columns, a fifth
    of them Fractions of denominator 2 or 3."""
    out = []
    for _ in range(rows):
        row = {}
        for c in rng.sample(range(cols), rng.randint(3, min(6, cols))):
            v = rng.choice((1, -1)) * rng.randint(1, 3)
            row[c] = Fraction(v, rng.choice((2, 3))) if rng.random() < 0.2 else v
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_sparse_random_matrices_match_oracle(seed):
    rng = random.Random(900 + seed)
    rows, cols = rng.randint(40, 120), rng.randint(30, 120)
    m = _sparse(rng, rows, cols)
    assert exact_rank(m) == _dense_rank(_dense(m, cols))


@pytest.mark.parametrize("n", [2, 7, 40])
@pytest.mark.parametrize("head", [True, False], ids=["head", "tail"])
def test_arrowheads_match_oracle(n, head):
    # a diagonal with a full row and column at index 0 (head) or n-1 (tail);
    # every third diagonal entry zero makes some of them singular
    hub = 0 if head else n - 1
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 0 if i % 3 == 2 else i + 1
        m[hub][i] = m[i][hub] = 1 + i % 2
    for rows in (m, [list(col) for col in zip(*m)]):
        assert exact_rank(rows) == _dense_rank(rows)


@pytest.mark.parametrize("seed", range(4))
def test_block_diagonal_with_dependent_rows_match_oracle(seed):
    # low-rank blocks on disjoint columns, then copies of rows, rational
    # combinations of pairs of rows and zero rows; the rank is the sum
    # of the blocks' ranks
    rng = random.Random(950 + seed)
    m, cols, want = [], 0, 0
    for _ in range(rng.randint(2, 5)):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        block = _low_rank(rng, r, c, rng.randint(1, 4))
        want += _dense_rank(block)
        m += [{cols + j: v for j, v in enumerate(row) if v} for row in block]
        cols += c
    for _ in range(len(m)):
        a, b = rng.choice(m), rng.choice(m)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m.append(dict(a) if rng.random() < 0.5 else
                 {c: a.get(c, 0) + t * b.get(c, 0) for c in a | b})
    m.append({})
    rng.shuffle(m)
    assert exact_rank(m) == _dense_rank(_dense(m, cols)) == want


def test_pivot_column_held_only_by_its_row():
    # column 0 lives only in the first row, the shortest one's least-held
    # column; nothing is eliminated under it, and the other rows are
    # dependent among themselves
    m = [{0: 5, 1: 2}, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 2, 3: 2}, {2: 1, 3: -1},
         {1: 1, 2: 2}]
    before = copy.deepcopy(m)
    assert exact_rank(m) == _dense_rank(_dense(m, 4)) == 3
    assert m == before
    private = [{i: 1, 10: i + 1, 11: -1} for i in range(6)]
    assert exact_rank(private) == 6


@pytest.mark.parametrize("seed", range(4))
def test_rank_survives_row_shuffle_and_column_relabelling(seed):
    rng = random.Random(980 + seed)
    cols = rng.randint(20, 60)
    m = _sparse(rng, rng.randint(20, 80), cols)
    m += [dict(row) for row in rng.sample(m, 5)]
    want = _dense_rank(_dense(m, cols))
    labels = rng.sample(range(10 ** 6), cols)
    shuffled = [{labels[c]: v for c, v in row.items()} for row in m]
    rng.shuffle(shuffled)
    assert exact_rank(m) == exact_rank(shuffled) == want


@pytest.mark.parametrize("seed", range(4))
def test_mat_inv_times_matrix_is_identity(seed):
    # Seeded Fraction matrices up to 8 x 8, sparse (30% nonzero) and
    # dense; the dense elimination oracle tells the singular ones apart.
    rng = random.Random(700 + seed)
    outcomes = set()
    for n in range(1, 9):
        for density in (0.3, 1.0):
            a = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                  if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(n)]
            before = copy.deepcopy(a)
            if _dense_rank(a) < n:
                with pytest.raises(ValueError):
                    mat_inv(a)
                outcomes.add("singular")
                continue
            inv = mat_inv(a)
            assert a == before
            assert all(type(x) is Fraction for row in inv for x in row)
            assert [[sum(a[i][t] * inv[t][j] for t in range(n))
                     for j in range(n)] for i in range(n)] == [
                [int(i == j) for j in range(n)] for i in range(n)]
            outcomes.add("inverted")
    assert outcomes == {"singular", "inverted"}


def test_mat_inv_refuses_singular_matrices():
    for a in ([[0]], [[1, 2], [2, 4]],
              [[Fraction(1, 3), 0, 1], [0, 0, 0], [5, 6, 7]],
              [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(ValueError, match="singular"):
            mat_inv(a)
    assert mat_inv([]) == []


def _unimodular(rng, d):
    """A signed permutation times elementary row operations, and its inverse."""
    perm = list(range(d))
    rng.shuffle(perm)
    p = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(d)]
         for i in range(d)]
    p_inv = [[p[j][i] for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= s * row[i]
    return p, p_inv


def _dense_algebra(f):
    """The algebra of dense constants f[a][b][c], validated by its reader."""
    brackets = [[a, b, c, str(v)] for a, plane in enumerate(f)
                for b, row in enumerate(plane) for c, v in enumerate(row) if v]
    return algebra_from_json(json.dumps({"dim": len(f), "brackets": brackets}))


def _rebased(g, rep, rng):
    """g and rep in a seeded random unimodular integer basis."""
    return _change_basis(g, rep, *_unimodular(rng, g.dim))


def _change_basis(g, rep, p, p_inv):
    """g and rep in the basis e'_i = sum_a P_ia e_a."""
    d, f = g.dim, g.structure_constants
    image = [[[sum(p[i][a] * p[j][b] * f[a][b][c]
                   for a in range(d) for b in range(d)) for c in range(d)]
              for j in range(d)] for i in range(d)]
    consts = [[[sum(image[i][j][c] * p_inv[c][k] for c in range(d))
                for k in range(d)] for j in range(d)] for i in range(d)]
    mats = tuple(tuple(tuple(sum(p[i][a] * rep.matrices[a][r][s] for a in range(d))
                             for s in range(rep.dim)) for r in range(rep.dim))
                 for i in range(d))
    return _dense_algebra(consts), Representation(rep.dim, mats)


def _trivial(name):
    g, _ = builtin(name)
    return ce_complex(g, trivial_module(g))


def _defect(name):
    g, rep = builtin(name)
    return ce_complex(g, defect_module(g, rep))


def _defect_rebased(name):
    g, rep = _rebased(*builtin(name), random.Random(7))
    assert g.structure_constants != builtin(name)[0].structure_constants
    return ce_complex(g, defect_module(g, rep))


@pytest.mark.parametrize("build, name", [
    (_trivial, "sl2"), (_trivial, "so3"), (_trivial, "sl3"),
    (_defect, "sl2"), (_defect, "so3"), (_defect_rebased, "so3")])
def test_every_differential_matches_oracle(build, name):
    c = build(name)
    for k, dk in enumerate(c.differentials):
        dense = [[row.get(j, 0) for j in range(c.spaces[k])] for row in dk]
        assert exact_rank(dk) == _dense_rank(dense), (build.__name__, name, k)
