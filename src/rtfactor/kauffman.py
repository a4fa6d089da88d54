"""Skein-theoretic link invariants computed by state sums.

This module is the classical oracle the quantum-group route is checked
against.  It evaluates the Kauffman bracket of a planar diagram by summing
over all crossing smoothings, and packages the writhe correction that turns
the bracket into the Jones polynomial.

Everything here is exact: brackets live in ``LaurentPoly`` with the variable
read as A, Jones values with the variable read as t.  The two are tied by
t = A^{-4}, and loops count with delta = -A^2 - A^{-2}.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import PDCode, UnionFind
from .errors import TooManyCrossings
from .ring import LaurentPoly

MAX_STATE_SUM_CROSSINGS = 24


def loop_value() -> LaurentPoly:
    """Value of a closed loop: -A^2 - A^{-2}."""
    return LaurentPoly.q_power(2, 1, -1) + LaurentPoly.q_power(-2, 1, -1)


def _smoothing_pairs(crossing, choose_a: bool):
    """Arc identifications imposed by one smoothing of one crossing.

    For a positive crossing the A-smoothing joins each incoming strand to
    the outgoing strand on its own side; the B-smoothing turns the crossing
    into a cap-cup pair.  A negative crossing swaps the two roles.
    """
    sign, (in_left, in_right, out_left, out_right) = crossing
    parallel = ((in_left, out_left), (in_right, out_right))
    turnback = ((in_left, in_right), (out_left, out_right))
    if sign > 0:
        return parallel if choose_a else turnback
    return turnback if choose_a else parallel


def kauffman_bracket(pd: PDCode, normalized: bool = True) -> LaurentPoly:
    """Kauffman bracket of a planar diagram, exact in A.

    Sums A^(#A-smoothings - #B-smoothings) * delta^(loops - 1) over all
    2^crossings states.  With ``normalized`` the single unknot evaluates
    to 1; without it every loop contributes a factor delta, which is the
    normalization the quantum-group closure reproduces directly.

    Raises TooManyCrossings when the diagram has more than
    ``MAX_STATE_SUM_CROSSINGS`` crossings, since the state sum doubles per
    crossing.
    """
    crossings = pd.crossings
    if len(crossings) > MAX_STATE_SUM_CROSSINGS:
        raise TooManyCrossings(
            f"state sum over {len(crossings)} crossings exceeds the "
            f"supported bound {MAX_STATE_SUM_CROSSINGS}"
        )
    delta = loop_value()
    total = LaurentPoly.zero()
    num = len(crossings)
    for state in range(1 << num):
        merges = UnionFind(pd.arcs)  # arcs joined into loops
        a_count = 0
        for i, crossing in enumerate(crossings):
            choose_a = not (state >> i) & 1
            if choose_a:
                a_count += 1
            for x, y in _smoothing_pairs(crossing, choose_a):
                merges.union(x, y)
        loops = merges.class_count()
        weight = LaurentPoly.q_power(2 * a_count - num)
        power = loops if not normalized else loops - 1
        for _ in range(power):
            weight = weight * delta
        total = total + weight
    return total


def jones_polynomial(pd: PDCode, writhe: int) -> LaurentPoly:
    """Jones polynomial from the bracket, exact in t.

    Computes (-A^3)^(-writhe) * bracket and substitutes t = A^{-4}.  The
    writhe is diagram data (it is not recoverable from an unoriented
    bracket), so the caller supplies it.  Knots land in integer powers of
    t; links with an even number of components pick up half-integer powers.
    """
    corrected = kauffman_bracket(pd, normalized=True) * (
        LaurentPoly.q_power(3, 1, -1) ** (-writhe)
    )
    return corrected.scale_exponents(Fraction(-1, 4))
