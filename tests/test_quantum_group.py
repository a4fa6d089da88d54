import dataclasses

import pytest

from rtfactor.diagram import CAP, CUP, NEG_CROSS, POS_CROSS, make_sliced_tangle
from rtfactor.errors import DimensionMismatch, KinkNotScalar
from rtfactor.quantum_group import (
    RibbonRep,
    check_yang_baxter,
    make_ribbon_rep,
    quantum_dimension,
    ribbon_twist,
    sln_fundamental_ribbon,
    sweep,
)
from rtfactor.ring import LaurentPoly, parse_laurent
from rtfactor.rt import evaluate_sliced_tangle

from test_rt import _identity, _kron, _kron_oracle, _mul

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()


def _swept(rep, width, slices):
    """The sweep's matrix, dense: rows output labels, columns input labels."""
    return evaluate_sliced_tangle(make_sliced_tangle(width, slices),
                                  rep).matrix


def test_sl2_braiding_invertible_and_yang_baxter():
    rep = sln_fundamental_ribbon(2)
    assert _mul(rep.R, rep.R_inv) == _identity(4)
    assert check_yang_baxter(rep)
    # the inverse braiding satisfies the same equation
    assert (sweep(rep, 3, [(NEG_CROSS, 0), (NEG_CROSS, 1), (NEG_CROSS, 0)])
            == sweep(rep, 3, [(NEG_CROSS, 1), (NEG_CROSS, 0), (NEG_CROSS, 1)]))


def test_sl2_quantum_dimension_is_loop_value():
    rep = sln_fundamental_ribbon(2)
    assert quantum_dimension(rep) == parse_laurent("-q^{-1/2} - q^{1/2}")


def test_sl3_quantum_dimension():
    rep = sln_fundamental_ribbon(3)
    assert quantum_dimension(rep) == parse_laurent("q^{-1} + 1 + q")


def test_sl2_twist_single_monomial():
    rep = sln_fundamental_ribbon(2)
    assert ribbon_twist(rep) == LaurentPoly.q_power(3, 4, -1)  # -q^{3/4}
    assert rep.twist == ribbon_twist(rep)


def test_sl3_twist_on_third_root_line():
    rep = sln_fundamental_ribbon(3)
    t = ribbon_twist(rep)
    assert t == LaurentPoly.q_power(4, 3)  # q^{4/3}
    assert len(t.terms) == 1


def test_trivial_rep_twist_is_one():
    rep = RibbonRep(1, ((ONE,),), ((ONE,),), ((ONE,),), ((ONE,),), ONE)
    assert ribbon_twist(rep) == ONE


def test_yang_baxter_identity_matrix():
    eye = _identity(3)
    assert check_yang_baxter(RibbonRep(3, _identity(9), _identity(9),
                                       eye, eye, ONE))


def test_yang_baxter_detects_corruption():
    rep = sln_fundamental_ribbon(2)
    bad = [list(row) for row in rep.R]
    bad[0][3] = bad[0][3] + ONE
    assert not check_yang_baxter(
        dataclasses.replace(rep, R=tuple(tuple(r) for r in bad)))


def test_double_twist_consistency():
    # positive kink then negative kink is the identity
    for n in [2, 3]:
        rep = sln_fundamental_ribbon(n)
        neg = _swept(rep, 1, [(CUP, 1), (NEG_CROSS, 0), (CAP, 1)])
        assert neg == tuple(tuple(v * ribbon_twist(rep) ** -1 for v in row)
                            for row in _identity(n))


def test_left_kink_equals_right_kink():
    # the mirror curl (cap x I)(I x braiding)(cup x I) gives the same scalar
    for n in [2, 3]:
        rep = sln_fundamental_ribbon(n)
        out = [[LaurentPoly.zero()] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    cupbc = rep.cup[b][c]
                    if not cupbc:
                        continue
                    for x in range(n):
                        for y in range(n):
                            r = rep.R[x * n + y][c * n + a]
                            if r:
                                capbx = rep.cap[b][x]
                                if capbx:
                                    out[y][a] = out[y][a] + cupbc * r * capbx
        for i in range(n):
            for j in range(n):
                want = rep.twist if i == j else LaurentPoly.zero()
                assert out[i][j] == want, (n, i, j)


def test_pivot_commutes_with_braiding():
    # the pivot cup . cap^T, formed densely here, commutes with R
    for n in [2, 3]:
        rep = sln_fundamental_ribbon(n)
        pivot = _mul(rep.cup, tuple(zip(*rep.cap)))
        mm = _kron(pivot, pivot)
        assert _mul(mm, rep.R) == _mul(rep.R, mm)


def test_kink_not_scalar_on_broken_cup():
    good = sln_fundamental_ribbon(2)
    eye = _identity(2)
    broken = RibbonRep(2, good.R, good.R_inv, eye, eye, good.twist)
    with pytest.raises(KinkNotScalar):
        ribbon_twist(broken)


def test_sl4_full_invariants():
    rep = sln_fundamental_ribbon(4)  # construction validates everything
    assert quantum_dimension(rep) == parse_laurent("-q^{-3/2} - q^{-1/2} - q^{1/2} - q^{3/2}")
    assert rep.twist == LaurentPoly.q_power(15, 8, -1)


# -- make_ribbon_rep refuses data that breaks an axiom ------------------------

def _sl2_data(**changes):
    rep = sln_fundamental_ribbon(2)
    data = dict(n=2, R=rep.R, R_inv=rep.R_inv, cup=rep.cup, cap=rep.cap,
                twist=rep.twist)
    data.update(changes)
    return data


def _corrupted(m, i, j):
    rows = [list(row) for row in m]
    rows[i][j] = rows[i][j] + ONE
    return rows


# diagonal, self-inverse, and with unequal entries: no braid relation
_SIGNS = tuple(tuple((ONE if i in (0, 3) else -ONE) if i == j else ZERO
                     for j in range(4)) for i in range(4))
_REFUSALS = {
    "shape": (_sl2_data(cup=_identity(3)), DimensionMismatch,
              "cup has wrong shape"),
    "inverse": (_sl2_data(R_inv=_corrupted(sln_fundamental_ribbon(2).R_inv,
                                           1, 2)),
                ValueError, "R_inv is not inverse to R"),
    "yang-baxter": (_sl2_data(R=_SIGNS, R_inv=_SIGNS), ValueError,
                    "R fails the Yang-Baxter equation"),
    "zigzag": (_sl2_data(cap=tuple(tuple(v * 2 for v in row) for row in
                                   sln_fundamental_ribbon(2).cap)),
               ValueError, "cap is not inverse to cup"),
    "twist": (_sl2_data(twist=ONE), ValueError,
              "declared twist does not match the kink evaluation"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_make_ribbon_rep_refuses_a_broken_axiom(name):
    data, error, message = _REFUSALS[name]
    with pytest.raises(error) as exc:
        make_ribbon_rep(**data)
    assert str(exc.value) == message


# -- the sweep-based checks against dense Kronecker products ------------------

_CHECKED = {  # tiny tangle: (input strands, slices)
    "R.R_inv": (2, [(NEG_CROSS, 0), (POS_CROSS, 0)]),
    "braid-left": (3, [(POS_CROSS, 0), (POS_CROSS, 1), (POS_CROSS, 0)]),
    "braid-right": (3, [(POS_CROSS, 1), (POS_CROSS, 0), (POS_CROSS, 1)]),
    "cap.cup": (1, [(CUP, 1), (CAP, 0)]),
    "cup.cap": (1, [(CUP, 0), (CAP, 1)]),
    "right-kink": (1, [(CUP, 1), (POS_CROSS, 0), (CAP, 1)]),
    "right-negative-kink": (1, [(CUP, 1), (NEG_CROSS, 0), (CAP, 1)]),
    "left-kink": (1, [(CUP, 0), (POS_CROSS, 1), (CAP, 0)]),
    "left-negative-kink": (1, [(CUP, 0), (NEG_CROSS, 1), (CAP, 0)]),
    "loop": (0, [(CUP, 0), (CAP, 0)]),
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_checks_agree_with_dense_products(n):
    rep = sln_fundamental_ribbon(n)
    swept = {name: _swept(rep, *tangle) for name, tangle in _CHECKED.items()}
    for name, (width, slices) in _CHECKED.items():
        assert swept[name] == _kron_oracle(make_sliced_tangle(width, slices),
                                           rep), name
    eye, big = _identity(n), _identity(n * n)
    assert swept["R.R_inv"] == _mul(rep.R, rep.R_inv) == big
    braid_left = _mul(_mul(_kron(rep.R, eye), _kron(eye, rep.R)),
                      _kron(rep.R, eye))
    assert swept["braid-left"] == swept["braid-right"] == braid_left
    assert check_yang_baxter(rep)
    assert swept["cap.cup"] == _mul(rep.cap, rep.cup) == eye
    assert swept["cup.cap"] == _mul(rep.cup, rep.cap) == eye
    twist, inverse = ribbon_twist(rep), rep.twist ** -1
    assert twist == rep.twist
    for name, scalar in [("right-kink", twist), ("left-kink", twist),
                         ("right-negative-kink", inverse),
                         ("left-negative-kink", inverse)]:
        assert swept[name] == tuple(tuple(scalar * v for v in row)
                                    for row in eye), name
    loop = sum((c * p for row_c, row_p in zip(rep.cup, rep.cap)
                for c, p in zip(row_c, row_p)), LaurentPoly.zero())
    assert swept["loop"] == ((loop,),) and quantum_dimension(rep) == loop
