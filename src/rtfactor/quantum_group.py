"""Ribbon representation data for the fundamental representations of
quantum sl_n, the sweep that composes it, and the axiom checks.

Conventions (fixed here, validated by the invariants, and relied on by the
tangle evaluator):

* root order N = 2n, u = q^(1/2n), s = q^(1/2) = u^n;
* the R field stores the BRAIDING (flip composed with the R-matrix), so it
  satisfies the braid form of the Yang-Baxter equation checked below;
* braiding eigenvalue on e_i (x) e_i is u^(n-1); crossing resolution
  R - R_inv = (u^n - u^(-n)) * u^(-1) * permutation-free part is not stored,
  it follows from the entries;
* cups are antidiagonal with alternating signs, caps are the inverse matrix;
* the twist and the loop value are computed by sweeping an actual kink and
  an actual closed loop, never just read off a formula.

A RibbonRep holds two forms of the same data.  The dense presentation R,
R_inv, cup and cap (tuples of tuples of LaurentPoly) is what a caller
supplies and what the tests' oracles multiply.  The move tables ``moves``
are the sparse form ``sweep`` reads, built on first use and kept on the
rep, so a sweep finds them without hashing the rep.  ``make_ribbon_rep``
checks every axiom by sweeping a tiny tangle through those tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import lcm

from .diagram import CAP, CUP, ID, NEG_CROSS, POS_CROSS
from .errors import ArityMismatch, DimensionMismatch, KinkNotScalar
from .ring import LaurentPoly, drop_zeros

ZERO = LaurentPoly.zero()

# Tiny tangles the checks sweep: (input strands, slices).
_INVERSE = (2, ((NEG_CROSS, 0), (POS_CROSS, 0)))       # R . R_inv
_BRAID_LEFT = (3, ((POS_CROSS, 0), (POS_CROSS, 1), (POS_CROSS, 0)))
_BRAID_RIGHT = (3, ((POS_CROSS, 1), (POS_CROSS, 0), (POS_CROSS, 1)))
_ZIGZAGS = ((1, ((CUP, 1), (CAP, 0))),                  # cap . cup
            (1, ((CUP, 0), (CAP, 1))))                  # cup . cap
_KINK = (1, ((CUP, 1), (POS_CROSS, 0), (CAP, 1)))       # positive right curl
_LOOP = (0, ((CUP, 0), (CAP, 0)))


def _local_moves(matrix, n, arity_in, arity_out, order):
    """Nonzero entries of a local piece, grouped by input labels.

    ``matrix`` has n^arity_out rows and n^arity_in columns, both indexed
    with the first strand as the most significant digit.  The result maps
    input labels to (output labels, [(exponent at order, coefficient)])."""
    inputs = list(product(range(n), repeat=arity_in))
    moves = {labels: [] for labels in inputs}
    for out, row in zip(product(range(n), repeat=arity_out), matrix):
        for labels, c in zip(inputs, row):
            if c:
                terms = [(e * (order // c.root_order), k) for e, k in c.terms]
                moves[labels].append((out, terms))
    return moves


@dataclass(frozen=True)
class RibbonRep:
    n: int                 # carrier dimension
    R: tuple               # n^2 x n^2 braiding matrix
    R_inv: tuple           # its inverse
    cup: tuple             # n x n: image of 1 in V (x) V, as a matrix of coefficients
    cap: tuple             # n x n: pairing V (x) V -> scalars; inverse of cup
    twist: LaurentPoly     # scalar of the positive kink

    @cached_property
    def moves(self) -> tuple:
        """Root order of the entries, and piece -> (strands in, strands
        out, input labels -> [(output labels, [(exponent, coefficient)])])."""
        n = self.n
        order = lcm(*(c.root_order for m in (self.R, self.R_inv, self.cup,
                                             self.cap)
                      for row in m for c in row if c))
        return order, {
            ID: (1, 1, {(a,): [((a,), [(0, 1)])] for a in range(n)}),
            POS_CROSS: (2, 2, _local_moves(self.R, n, 2, 2, order)),
            NEG_CROSS: (2, 2, _local_moves(self.R_inv, n, 2, 2, order)),
            CUP: (0, 2, _local_moves([(c,) for row in self.cup for c in row],
                                     n, 0, 2, order)),
            CAP: (2, 0, _local_moves([[c for row in self.cap for c in row]],
                                     n, 2, 0, order)),
        }

    @cached_property
    def loop(self) -> LaurentPoly:
        """Value of a closed loop."""
        return LaurentPoly.from_terms(self.moves[0],
                                      sweep(self, *_LOOP).get(((), 0), {}))


def sweep(rep: RibbonRep, width: int, slices) -> dict:
    """Compose ``slices`` on ``width`` input strands, left to right.

    Returns the sparse matrix: a dict from (output labels, input column)
    to a plain {exponent: nonzero coefficient} dict at the root order
    ``rep.moves[0]``, position 0 the most significant digit of both.  Each
    piece acts through its move table only, and entries that cancel are
    dropped after every slice, so equal matrices give equal dicts.  Raises
    ArityMismatch when a piece is unknown or does not fit the width."""
    n, (_, pieces) = rep.n, rep.moves
    state = {(labels, col): {0: 1} for col, labels
             in enumerate(product(range(n), repeat=width))}
    for piece, pos in slices:
        if piece not in pieces:
            raise ArityMismatch(f"unknown piece {piece!r}")
        span, produced, moves = pieces[piece]
        if not 0 <= pos <= width - span:
            raise ArityMismatch(f"{piece} at {pos}, width {width}")
        new = {}
        for (labels, col), poly in state.items():
            head, tail = labels[:pos], labels[pos + span:]
            for out, terms in moves[labels[pos:pos + span]]:
                acc = new.setdefault((head + out + tail, col), {})
                for f, d in terms:
                    for e, c in poly.items():
                        acc[e + f] = acc.get(e + f, 0) + c * d
        state = drop_zeros(new)
        width += produced - span
    return state


def quantum_dimension(rep: RibbonRep) -> LaurentPoly:
    """Value of a closed loop, swept once per representation."""
    return rep.loop


def check_yang_baxter(rep: RibbonRep) -> bool:
    """Exact test of (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)."""
    return sweep(rep, *_BRAID_LEFT) == sweep(rep, *_BRAID_RIGHT)


def ribbon_twist(rep: RibbonRep) -> LaurentPoly:
    """The scalar of a positive kink, swept through the tables."""
    kink = sweep(rep, *_KINK)
    scalar = kink.get(((0,), 0), {})
    if kink != ({((a,), a): scalar for a in range(rep.n)} if scalar else {}):
        raise KinkNotScalar(
            "positive kink evaluation is not a scalar multiple of identity")
    return LaurentPoly.from_terms(rep.moves[0], scalar)


def make_ribbon_rep(n: int, R, R_inv, cup, cap, twist: LaurentPoly) -> RibbonRep:
    """Assemble and validate a ribbon representation.

    Checks: shapes, R.R_inv = identity, Yang-Baxter, cap inverse to cup
    (both zigzags), positive kink = twist (scalar), quantum dimension
    nonzero; each by sweeping a tiny tangle.
    """
    m = n * n
    for mat, size, name in [(R, m, "R"), (R_inv, m, "R_inv"),
                            (cup, n, "cup"), (cap, n, "cap")]:
        if len(mat) != size or any(len(row) != size for row in mat):
            raise DimensionMismatch(f"{name} has wrong shape")
    rep = RibbonRep(n, *(tuple(map(tuple, mat)) for mat in (R, R_inv, cup, cap)),
                    twist)
    # sweeping no slices gives the identity
    if sweep(rep, *_INVERSE) != sweep(rep, 2, ()):
        raise ValueError("R_inv is not inverse to R")
    if not check_yang_baxter(rep):
        raise ValueError("R fails the Yang-Baxter equation")
    if any(sweep(rep, *zigzag) != sweep(rep, 1, ()) for zigzag in _ZIGZAGS):
        raise ValueError("cap is not inverse to cup")
    if ribbon_twist(rep) != twist:
        raise ValueError("declared twist does not match the kink evaluation")
    if quantum_dimension(rep).is_zero:
        raise ValueError("quantum dimension vanishes")
    return rep


@lru_cache(maxsize=None)
def sln_fundamental_ribbon(n: int) -> RibbonRep:
    """The fundamental n-dimensional ribbon representation of quantum sl_n."""
    if n < 2:
        raise ValueError("need n >= 2")
    N = 2 * n

    def u(k: int, coeff: int = 1) -> LaurentPoly:
        return LaurentPoly.q_power(k, N, coeff)

    m = n * n
    R = [[ZERO] * m for _ in range(m)]
    R_inv = [[ZERO] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            if i == j:
                R[col][col] = u(n - 1)
                R_inv[col][col] = u(1 - n)
            else:
                R[j * n + i][col] = u(-1)
                R_inv[j * n + i][col] = u(1)
                if i > j:
                    R[col][col] = u(n - 1) - u(-n - 1)
                else:
                    R_inv[col][col] = u(1 - n) - u(n + 1)

    cup = [[ZERO] * n for _ in range(n)]
    cap = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        # 0-based antidiagonal: entry at (a, n-1-a)
        e = n * (n - 1 - 2 * a)
        assert e % 2 == 0
        cup[a][n - 1 - a] = u(e // 2, -1 if a % 2 else 1)
        # inverse antidiagonal: cap[a][n-1-a] = 1 / cup[n-1-a][a]
        cap[a][n - 1 - a] = u(-(n * (2 * a + 1 - n)) // 2,
                              -1 if (n - 1 - a) % 2 else 1)

    twist = u(n * n - 1, 1 if n % 2 else -1)
    return make_ribbon_rep(n, R, R_inv, cup, cap, twist)
