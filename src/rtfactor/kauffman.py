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

from .diagram import PDCode
from .errors import check_size
from .ring import LaurentPoly, drop_zeros

# A unit (a term made or an open end copied) is about 0.2-0.4 microseconds, a
# state's dict and sort about STATE_COST: at the limit a sweep takes 0.4-0.9 s.
MAX_SWEEP_COST = 2_000_000
STATE_COST = 8


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

    Sweeps the crossings in stored order, keeping an {exponent: int} dict
    per connectivity of the open paths (sorted (end, other end) pairs).  Each
    crossing adds its A-smoothing times A and its B-smoothing times A^-1;
    every loop closed, and then each arc in no crossing as one more step,
    counts delta.  ``normalized`` divides a nonempty diagram by one delta, so
    the unknot is 1; the quantum-group closure matches the unnormalized value.
    A step makes about two terms per term held (two smoothings, or delta), so
    before each step the sweep charges twice the terms, open ends and
    STATE_COST per state held, and raises DimensionTooLarge once the running
    charge passes MAX_SWEEP_COST."""
    delta = loop_value()
    loop_terms = [(delta ** n).terms for n in range(3)]  # loops = 0, 1, 2
    # (exponent of A, coefficient) terms of A^power * delta^loops
    factors = {power: [[(e + power, c) for e, c in terms] for terms in loop_terms]
               for power in (1, -1, 0)}
    loose = pd.arcs - {arc for _, arcs in pd.crossings for arc in arcs}
    steps = [[(_smoothing_pairs(crossing, True), factors[1]),
              (_smoothing_pairs(crossing, False), factors[-1])]
             for crossing in pd.crossings]
    steps += [[(((arc, arc),), factors[0])] for arc in loose]
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    cost = 0
    for k, smoothings in enumerate(steps, 1):
        held_ends = len(next(iter(states), ()))  # the same in every state
        cost += 2 * (sum(map(len, states.values()))
                     + (held_ends + STATE_COST) * len(states))
        check_size(f"bracket sweep at step {k} of {len(steps)}, charge", cost,
                   MAX_SWEEP_COST)
        swept: dict[tuple, dict[int, int]] = {}
        for segments, weights in smoothings:
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
    total = LaurentPoly.from_terms(1, states.get(()))
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
