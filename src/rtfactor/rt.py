"""Tangle evaluation against a ribbon representation.

Feeds a sliced diagram through the braiding, cup, and cap data of a
RibbonRep one slice at a time, entirely in exact arithmetic.  Closed
diagrams produce framed link invariants.  The module also houses the
cross-check of those invariants against the skein-theoretic oracle and
the formal expansion around h = 0 whose low-order coefficients are
finite-type invariants.

The composition itself is ``quantum_group.sweep``, the same routine that
checks the ribbon axioms of every representation; this module puts the
size guard in front of it and builds on the matrices it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .diagram import (
    CAP,
    CUP,
    NEG_CROSS,
    POS_CROSS,
    SlicedTangle,
    pd_components,
    pd_from_sliced,
    writhe,
)
from .errors import NonInvertibleNormalizer, OpenTangle, check_size
from .kauffman import kauffman_bracket
from .quantum_group import (
    RibbonRep,
    quantum_dimension,
    ribbon_twist,  # unused here; perfbench/tracing.py wraps rt.ribbon_twist
    sln_fundamental_ribbon,
    sweep,
)
from .ring import HSeries, LaurentPoly, laurent_to_hseries, series_inverse

# At most about 0.6 microseconds per unit: at the limit a sweep takes 0.5-6 s.
MAX_SWEEP_COST = 10_000_000


@dataclass(frozen=True)
class TangleValue:
    """Matrix of a tangle: rows index output states, columns input states."""

    input_arity: int
    output_arity: int
    matrix: tuple  # n^output_arity rows, n^input_arity columns


@lru_cache(maxsize=None)
def _balanced(width: int, n: int) -> int:
    """Label tuples of length ``width`` with each a as often as n-1-a."""
    return int(width % 2 == 0 and (n == 1 or width == 0)) if n < 2 else sum(
        comb(width, 2 * k) * comb(2 * k, k) * _balanced(width - 2 * k, n - 2)
        for k in range(width // 2 + 1))


def sweep_cost(t: SlicedTangle, n: int) -> tuple[int, int]:
    """Estimated sweep work from the slice widths alone, and the peak width:
    cups pair labels and crossings permute them, so only balanced tuples on
    a slice and its inputs are reached, each entry gaining about n - 1
    terms per crossing or cap."""
    width = peak = t.input_arity
    cost, terms = 0, 1
    for piece, _ in t.slices:
        width += {CUP: 2, CAP: -2}.get(piece, 0)
        peak = max(peak, width)
        terms += max(n - 1, 1) * (piece in (POS_CROSS, NEG_CROSS, CAP))
        cost += _balanced(t.input_arity + width, n) * terms
    return cost, peak


def evaluate_sliced_tangle(t: SlicedTangle, rep: RibbonRep) -> TangleValue:
    """Compose the slice operators left to right and return the matrix.

    Positive crossings apply the stored braiding, negative crossings its
    inverse, cups and caps apply the coevaluation and evaluation data of
    the representation.  Raises DimensionTooLarge before any arithmetic
    (see ``sweep_cost``) and ArityMismatch when a slice position does not
    fit the running width.
    """
    cost, peak = sweep_cost(t, rep.n)
    check_size(f"RT sweep of {len(t.slices)} slices, peak width {peak}, "
               "estimate", cost, MAX_SWEEP_COST)
    state = sweep(rep, t.input_arity, t.slices)
    order = rep.moves[0]
    return TangleValue(t.input_arity, t.output_arity, tuple(
        tuple(LaurentPoly.from_terms(order, state.get((out, col), {}))
              for col in range(rep.n ** t.input_arity))
        for out in product(range(rep.n), repeat=t.output_arity)))


def framed_invariant(link: SlicedTangle, rep: RibbonRep) -> LaurentPoly:
    """Scalar value of a closed diagram; sensitive to kinks through the twist."""
    if not link.closed:
        raise OpenTangle("framed invariant needs a closed diagram")
    return evaluate_sliced_tangle(link, rep).matrix[0][0]


def writhe_corrected_invariant(link: SlicedTangle, rep: RibbonRep) -> LaurentPoly:
    """Framed invariant with the twist contribution of the writhe removed."""
    return framed_invariant(link, rep) * rep.twist ** (-writhe(link))


def normalized_invariant(link: SlicedTangle, rep: RibbonRep) -> LaurentPoly:
    """Writhe-corrected invariant divided by the unknot value, exactly."""
    return writhe_corrected_invariant(link, rep).divide_exact(
        quantum_dimension(rep))


def jones_from_quantum(link: SlicedTangle) -> LaurentPoly:
    """Jones polynomial in t from the two-dimensional braiding route.

    Normalizes the framed invariant of the fundamental two-dimensional
    representation and substitutes t for the inverse of q.  Agrees with
    the skein-theoretic jones_polynomial on every diagram.
    """
    value = normalized_invariant(link, sln_fundamental_ribbon(2))
    return value.scale_exponents(-1)


@dataclass(frozen=True)
class BracketRule:
    """One way of matching the braiding route to the skein oracle.

    The framed invariant equals
    global_sign * (-1)^(per_writhe * w + per_component * c) * bracket
    after rewriting the bracket variable by ``substitution``, where w is
    the writhe and c the number of link components.
    """

    substitution: str  # "q = A^4" or "q = A^-4"
    per_writhe: int
    per_component: int
    global_sign: int


@dataclass(frozen=True)
class BracketComparison:
    verdict: bool
    substitution: str | None
    sign_exponent_law: tuple | None  # (per_writhe, per_component)
    global_sign: int | None
    rules: tuple  # every BracketRule that works for this link


_SUBSTITUTIONS = (
    ("q = A^4", Fraction(1, 4)),
    ("q = A^-4", Fraction(-1, 4)),
)


def compare_with_bracket(link: SlicedTangle,
                         rep: RibbonRep | None = None) -> BracketComparison:
    """Search for conventions matching the braiding route to the skein oracle.

    Evaluates the closed diagram in the fundamental two-dimensional
    representation (or a supplied one) and compares against the skein
    bracket with one loop factor per component, over the finite set of
    variable substitutions and writhe-and-component sign laws.  Every
    matching rule is reported; the verdict is whether any rule works.
    """
    if not link.closed:
        raise OpenTangle("bracket comparison needs a closed diagram")
    if rep is None:
        rep = sln_fundamental_ribbon(2)
    value = framed_invariant(link, rep)
    pd = pd_from_sliced(link)
    bracket = kauffman_bracket(pd, normalized=False)
    w = writhe(link)
    c = pd_components(pd)
    rules = []
    for name, quarter in _SUBSTITUTIONS:
        mapped = bracket.scale_exponents(quarter)
        for alpha, beta, gamma in product((0, 1), repeat=3):
            flip = (alpha * w + beta * c + gamma) % 2
            if (-mapped if flip else mapped) == value:
                rules.append(BracketRule(name, alpha, beta, -1 if gamma else 1))
    if rules:
        first = rules[0]
        return BracketComparison(True, first.substitution,
                                 (first.per_writhe, first.per_component),
                                 first.global_sign, tuple(rules))
    return BracketComparison(False, None, None, None, ())


def hbar_expand_invariant(p: LaurentPoly, order: int, normalize: bool = False,
                          unknot_value: LaurentPoly | None = None) -> HSeries:
    """Expand an invariant around q = exp(h), truncated past h^(order).

    With ``normalize`` the expansion is divided, as a series, by the
    expansion of ``unknot_value``, which is then required: the unknot
    value depends on the representation (the quantum dimension for the
    fundamental representation of sl_n).  Raises NonInvertibleNormalizer
    when that normalizer has no constant term to invert.
    """
    series = laurent_to_hseries(p, order)
    if not normalize:
        return series
    if unknot_value is None:
        raise TypeError("normalize=True needs the unknot_value to divide by")
    normalizer = laurent_to_hseries(unknot_value, order)
    if normalizer.constant == 0:
        raise NonInvertibleNormalizer(
            "unknot value has zero constant term at h = 0")
    return series * series_inverse(normalizer)
