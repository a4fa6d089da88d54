"""Tangle evaluation against a ribbon representation.

Feeds a sliced diagram through the braiding, cup, and cap data of a
RibbonRep one slice at a time, entirely over exact Laurent polynomials.
Closed diagrams produce framed link invariants.  The module also houses
the cross-check of those invariants against the skein-theoretic oracle
and the formal expansion around h = 0 whose low-order coefficients are
finite-type invariants.

The running state is sparse: a dict from (strand labels of the current
slice, input column) to a nonzero coefficient.  Each piece acts through
the nonzero entries of its local matrix only: a crossing sends the
labels at its two positions through the braiding (or its inverse), a
cup inserts each nonzero coevaluation pair and a cap contracts its pair
against the evaluation; entries that cancel are dropped after every
slice.  The braiding commutes with the Cartan
action, so weight conservation keeps the support far below the n^width
label tuples of a slice.  The dense matrix (rows indexed by output
labels, position 0 the most significant digit) is built once, at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .diagram import (
    CAP,
    CUP,
    ID,
    NEG_CROSS,
    POS_CROSS,
    SlicedTangle,
    pd_components,
    pd_from_sliced,
    writhe,
)
from .errors import ArityMismatch, NonInvertibleNormalizer, OpenTangle
from .kauffman import kauffman_bracket
from .quantum_group import (
    RibbonRep,
    quantum_dimension,
    ribbon_twist,
    sln_fundamental_ribbon,
)
from .ring import HSeries, LaurentPoly, laurent_to_hseries, series_inverse

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


@dataclass(frozen=True)
class TangleValue:
    """Matrix of a tangle: rows index output states, columns input states."""

    input_arity: int
    output_arity: int
    carrier_dim: int
    matrix: tuple  # n^output_arity rows, n^input_arity columns


def _local_moves(matrix, n, arity_in, arity_out):
    """Nonzero entries of a local piece, grouped by input labels.

    ``matrix`` has n^arity_out rows and n^arity_in columns, both indexed
    with the first strand as the most significant digit.  The result maps
    each input label tuple to its (output label tuple, coefficient) pairs.
    """
    inputs = list(product(range(n), repeat=arity_in))
    moves = {labels: [] for labels in inputs}
    for out, row in zip(product(range(n), repeat=arity_out), matrix):
        for labels, c in zip(inputs, row):
            if c:
                moves[labels].append((out, c))
    return moves


def evaluate_sliced_tangle(t: SlicedTangle, rep: RibbonRep) -> TangleValue:
    """Compose the slice operators left to right and return the matrix.

    Positive crossings apply the stored braiding, negative crossings its
    inverse, cups and caps apply the coevaluation and evaluation data of
    the representation.  Raises ArityMismatch when a slice position does
    not fit the running width.
    """
    n = rep.n
    # piece -> (strands consumed, strands produced, local moves)
    pieces = {
        ID: (1, 1, None),
        POS_CROSS: (2, 2, _local_moves(rep.R, n, 2, 2)),
        NEG_CROSS: (2, 2, _local_moves(rep.R_inv, n, 2, 2)),
        CUP: (0, 2, _local_moves([(c,) for row in rep.cup for c in row], n, 0, 2)),
        CAP: (2, 0, _local_moves([[c for row in rep.cap for c in row]], n, 2, 0)),
    }
    width = t.input_arity
    # (strand labels of the current slice, input column) -> coefficient;
    # only nonzero entries are kept.
    state = {(labels, col): ONE for col, labels
             in enumerate(product(range(n), repeat=width))}
    for piece, pos in t.slices:
        if piece not in pieces:
            raise ArityMismatch(f"unknown piece {piece!r}")
        span, produced, moves = pieces[piece]
        if not 0 <= pos <= width - span:
            raise ArityMismatch(f"{piece} at {pos}, width {width}")
        if moves is None:
            continue
        new = {}
        for (labels, col), v in state.items():
            for out, c in moves[labels[pos:pos + span]]:
                key = (labels[:pos] + out + labels[pos + span:], col)
                old = new.get(key)
                new[key] = c * v if old is None else old + c * v
        state = {key: v for key, v in new.items() if v}
        width += produced - span
    rows = [[ZERO] * n ** t.input_arity for _ in range(n ** width)]
    for (labels, col), v in state.items():
        row = 0
        for a in labels:
            row = row * n + a
        rows[row][col] = v
    return TangleValue(t.input_arity, width, n, tuple(map(tuple, rows)))


def framed_invariant(link: SlicedTangle, rep: RibbonRep) -> LaurentPoly:
    """Scalar value of a closed diagram; sensitive to kinks through the twist."""
    if not link.closed:
        raise OpenTangle("framed invariant needs a closed diagram")
    return evaluate_sliced_tangle(link, rep).matrix[0][0]


def writhe_corrected_invariant(link: SlicedTangle, rep: RibbonRep) -> LaurentPoly:
    """Framed invariant with the twist contribution of the writhe removed."""
    return framed_invariant(link, rep) * ribbon_twist(rep) ** (-writhe(link))


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
    minus_one = LaurentPoly.const(Fraction(-1))
    rules = []
    for name, quarter in _SUBSTITUTIONS:
        mapped = bracket.scale_exponents(quarter)
        for alpha in (0, 1):
            for beta in (0, 1):
                for gamma in (0, 1):
                    flip = (alpha * w + beta * c + gamma) % 2
                    candidate = mapped * minus_one if flip else mapped
                    if candidate == value:
                        rules.append(BracketRule(name, alpha, beta,
                                                 -1 if gamma else 1))
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
