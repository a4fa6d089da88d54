"""Shared exception types.

Every domain error raised by this package derives from RTFactorError, so CLI
code can distinguish "bad input / bad math" (exit 1) from genuine bugs.
"""
from __future__ import annotations

import json


class RTFactorError(Exception):
    """Base class for all domain errors."""


class ParseError(RTFactorError):
    """Malformed textual input (braid words, polynomials, series)."""


class ConstantTermViolation(RTFactorError):
    """Series exp/log precondition failed (wrong constant term)."""


class AntisymmetryViolation(RTFactorError):
    def __init__(self, indices):
        self.indices = indices
        super().__init__(f"structure constants not antisymmetric at {indices}")


class JacobiViolation(RTFactorError):
    def __init__(self, indices):
        self.indices = indices
        super().__init__(f"Jacobi identity fails at index quadruple {indices}")


class UnknownName(RTFactorError):
    """Unrecognized builtin algebra, representation, or catalog name."""


class DimensionTooLarge(RTFactorError):
    """Requested computation exceeds a size guard; see check_size."""


def check_size(what: str, size: int, limit: int) -> None:
    """Refuse a ``size`` above ``limit``; callers check before allocating.

    The one place DimensionTooLarge is raised.  Each limit lives in the
    module it bounds; ``what`` names the quantity in the message.
    """
    if size > limit:  # past 14000 bits, near str()'s 4300 digits, print a power of 2
        shown = f"at least 2^{size.bit_length() - 1}" if size >> 14000 else size
        raise DimensionTooLarge(f"{what} {shown} exceeds the limit {limit}")


def load_json(text: str, what: str):
    """``json.loads``, with any ValueError as ParseError("bad <what> JSON:
    ..."): a syntax error, or an integer longer than Python's int/str
    digit limit (4300 digits by default)."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"bad {what} JSON: {exc}") from None


class DimensionMismatch(RTFactorError):
    """Operands live in algebras/spaces of different dimension."""


class TraceNotZero(RTFactorError):
    """Character formulas require a trace-free matrix ρ(X)."""


class KinkNotScalar(RTFactorError):
    """Kink evaluation did not return a scalar multiple of the identity."""


class GeneratorOutOfRange(RTFactorError):
    """Braid letter |i| outside [1, strands-1]."""


class OpenTangle(RTFactorError):
    """Operation requires a closed diagram."""


class ArityMismatch(RTFactorError):
    """Slice sequence does not chain width-consistently."""


class NonInvertibleNormalizer(RTFactorError):
    """Normalization requested against a series with zero constant term."""


class OpenGraph(RTFactorError):
    """Weight of a graph with uncontracted legs is not a scalar."""


class OpenFermionPath(RTFactorError):
    """Scalar coupled weight requested on a graph with an open fermion path."""


class CurvesIntersect(RTFactorError):
    """Gauss integral undefined: curves closer than tolerance."""


class SingularPairing(RTFactorError):
    """Graph weights need an invertible order-0 pairing."""
