"""Skein-theoretic link invariants, swept one crossing at a time.

This module is the classical oracle the quantum-group route is checked
against.  It evaluates the Kauffman bracket of a PD code crossing by
crossing, at a cost set by the number of open path ends rather than 2^c,
and packages the writhe correction that turns it into the Jones polynomial.

Everything here is exact: the sweep adds ints per power of A and returns one
``LaurentPoly`` in A, and Jones values read the variable as t.  The two are
tied by t = A^{-4}, and loops count with delta = -A^2 - A^{-2}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .diagram import PDCode
from .errors import check_size
from .ring import LaurentPoly, drop_zeros

# About 0.3 microseconds per unit: at the limit sigma_1^1414 takes 0.5-0.7 s.
MAX_SWEEP_COST = 2_000_000


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


def sweep_cost(pd: PDCode) -> tuple[int, int]:
    """Estimated sweep work, and the peak number f of open ends (arcs seen
    once).  After k crossings there are at most 2^k and about Catalan(f/2)
    states of about k terms each; the estimate sums k * min(2^k, Catalan)."""
    open_ends: set[int] = set()
    cost = peak = 0
    for k, (_, arcs) in enumerate(pd.crossings, 1):
        open_ends ^= {arc for arc in arcs if arcs.count(arc) == 1}
        pairs = len(open_ends) // 2
        peak = max(peak, len(open_ends))
        cost += k * min(2 ** k, comb(2 * pairs, pairs) // (pairs + 1))
    return cost, peak


def kauffman_bracket(pd: PDCode, normalized: bool = True) -> LaurentPoly:
    """Kauffman bracket of a planar diagram, exact in A.

    Sweeps the crossings in stored order, keeping an {exponent: int} dict
    per connectivity of the open paths (sorted (end, other end) pairs).  Each
    crossing adds its A-smoothing times A and its B-smoothing times A^-1;
    every loop closed, or arc in no crossing, counts delta.  ``normalized``
    divides a nonempty diagram by one delta, so the unknot is 1; the
    quantum-group closure matches the unnormalized value.  Raises
    DimensionTooLarge when ``sweep_cost`` exceeds ``MAX_SWEEP_COST``."""
    cost, peak = sweep_cost(pd)
    check_size(f"bracket sweep of {len(pd.crossings)} crossings, peak {peak} "
               "open ends, estimate", cost, MAX_SWEEP_COST)
    delta = loop_value()
    loop_terms = [(delta ** n).terms for n in range(3)]  # loops = 0, 1, 2
    # (exponent of A, coefficient) terms of A^(+-1) * delta^loops
    factors = {choose_a: [[(e + power, c) for e, c in terms] for terms in loop_terms]
               for choose_a, power in ((True, 1), (False, -1))}
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for crossing in pd.crossings:
        swept: dict[tuple, dict[int, int]] = {}
        for choose_a, weights in factors.items():
            segments = _smoothing_pairs(crossing, choose_a)
            for key, value in states.items():
                ends, loops = dict(key), 0  # open path end -> its other end
                for x, y in segments:
                    far_x, far_y = ends.pop(x, x), ends.pop(y, y)
                    if far_x == y:  # the segment closes a loop
                        loops += 1
                    else:
                        ends[far_x], ends[far_y] = far_y, far_x
                acc = swept.setdefault(tuple(sorted(ends.items())), {})
                for f, d in weights[loops]:
                    for e, c in value.items():
                        acc[e + f] = acc.get(e + f, 0) + c * d
        states = drop_zeros(swept)
    loose = pd.arcs - {arc for _, arcs in pd.crossings for arc in arcs}
    total = LaurentPoly.from_terms(1, states.get(())) * delta ** len(loose)
    return total.divide_exact(delta) if normalized and pd.arcs else total


def jones_polynomial(pd: PDCode, writhe: int) -> LaurentPoly:
    """Jones polynomial from the bracket, exact in t.

    Computes (-A^3)^(-writhe) * bracket and substitutes t = A^{-4}.  The
    writhe is diagram data (it is not recoverable from an unoriented
    bracket), so the caller supplies it.  Knots land in integer powers of
    t; links with an even number of components pick up half-integer powers.
    """
    kink = LaurentPoly.q_power(3, 1, -1)
    corrected = kauffman_bracket(pd, normalized=True) * kink ** (-writhe)
    return corrected.scale_exponents(Fraction(-1, 4))
