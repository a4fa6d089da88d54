"""Tangle evaluation against a ribbon representation.

Feeds a sliced diagram through the braiding, cup, and cap data of a
RibbonRep one slice at a time, entirely in exact arithmetic.  Closed
diagrams produce framed link invariants.  The module also houses the
cross-check of those invariants against the skein-theoretic oracle and
the formal expansion around h = 0 whose low-order coefficients are
finite-type invariants.

The composition itself is ``quantum_group.sweep``, the same routine that
checks the ribbon axioms of every representation and charges its own work;
this module charges the dense matrix it builds from the sweep's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .diagram import SlicedTangle, pd_from_sliced, writhe
from .errors import NonInvertibleNormalizer, OpenTangle, check_size
from .kauffman import kauffman_bracket
from .quantum_group import (
    ENTRY_COST,
    MAX_SWEEP_COST,
    RibbonRep,
    quantum_dimension,
    ribbon_twist,  # unused here; perfbench/tracing.py wraps rt.ribbon_twist
    sln_fundamental_ribbon,
    sweep,
)
from .ring import HSeries, LaurentPoly, laurent_to_hseries, series_inverse


@dataclass(frozen=True)
class TangleValue:
    """Matrix of a tangle: rows index output states, columns input states."""

    input_arity: int
    output_arity: int
    matrix: tuple  # n^output_arity rows, n^input_arity columns


def evaluate_sliced_tangle(t: SlicedTangle, rep: RibbonRep) -> TangleValue:
    """Compose the slice operators left to right and return the matrix.

    Positive crossings apply the stored braiding, negative crossings its
    inverse, cups and caps apply the coevaluation and evaluation data of
    the representation.  Charges ENTRY_COST for each of the n^in input
    columns and n^(in+out) entries before the sweep, which charges its
    slices: either raises DimensionTooLarge past MAX_SWEEP_COST.  Raises
    ArityMismatch when a slice position does not fit the running width.
    """
    n, a, b = rep.n, t.input_arity, t.output_arity
    check_size(f"RT matrix of {a} to {b} strands, charge",
               ENTRY_COST * (n ** a + n ** (a + b)), MAX_SWEEP_COST)
    state = sweep(rep, a, t.slices)
    order = rep.moves[0]
    return TangleValue(a, b, tuple(
        tuple(LaurentPoly.from_terms(order, state.get((out, col), {}))
              for col in range(n ** a))
        for out in product(range(n), repeat=b)))


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
class BracketComparison:
    verdict: bool
    substitution: str | None
    sign_exponent_law: tuple | None  # (per_writhe, per_component)
    global_sign: int | None


def compare_with_bracket(link: SlicedTangle,
                         rep: RibbonRep | None = None) -> BracketComparison:
    """Check the braiding route against the skein oracle by the one rule
    the sl2 data derive: the braiding eigenvalue is q^(1/4) = A and the
    loop -[2] is delta = -A^2 - A^-2, so the framed invariant in the
    fundamental (or a supplied) representation equals the unnormalized
    bracket at A = q^(1/4) with no sign, the rule (q = A^4, (0, 0), +1).
    A link where that fails reports no rule."""
    if not link.closed:
        raise OpenTangle("bracket comparison needs a closed diagram")
    if rep is None:
        rep = sln_fundamental_ribbon(2)
    value = framed_invariant(link, rep)
    bracket = kauffman_bracket(pd_from_sliced(link), normalized=False)
    if value == bracket.scale_exponents(Fraction(1, 4)):
        return BracketComparison(True, "q = A^4", (0, 0), 1)
    return BracketComparison(False, None, None, None)


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
