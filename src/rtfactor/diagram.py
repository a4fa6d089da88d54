"""Combinatorial link and tangle presentations.

Three layers:

* BraidWord: `B<strands>:i1,i2,...` with signed 1-based generators.
* SlicedTangle: a Morse presentation, one elementary piece per slice
  (identity, positive or negative crossing, cup, cap) at an explicit
  position.  Widths are validated slice by slice.
* PDCode: planar-diagram data for the skein oracle, produced by arc-tracing
  a closed sliced tangle.

The trace closure of a braid puts the braid strands at positions 0..s-1 and
their return strands at 2s-1..s, nested, so braid generator i acts at
position i-1.  A strand is open only while letters use it, and each kink of
framing is a curl on the last strand: the closure is at most 2s + 2 wide.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    ArityMismatch,
    GeneratorOutOfRange,
    OpenTangle,
    ParseError,
    UnknownName,
    check_size,
    load_json,
)

ID = "id"
POS_CROSS = "pos_cross"
NEG_CROSS = "neg_cross"
CUP = "cup"
CAP = "cap"


@dataclass(frozen=True)
class BraidWord:
    strands: int
    word: tuple  # signed generator indices, |i| in [1, strands-1]


def make_braid(strands: int, word) -> BraidWord:
    if strands < 1:
        raise ParseError("braid needs at least one strand")
    for i in word:
        if not isinstance(i, int) or i == 0 or not (1 <= abs(i) <= strands - 1):
            raise GeneratorOutOfRange(
                f"generator {i} out of range for {strands} strands")
    return BraidWord(strands, tuple(word))


_BRAID_RE = re.compile(r"^\s*B(\d+)\s*:\s*(.*?)\s*$")


def parse_braid(text: str) -> BraidWord:
    """Parse `B<s>:i1,i2,...`; an empty word after the colon is allowed."""
    m = _BRAID_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse braid {text!r}")
    chunks = [c.strip() for c in m.group(2).split(",")] if m.group(2) else []
    for chunk in chunks:
        if not re.fullmatch(r"-?\d+", chunk):
            raise ParseError(f"bad braid letter {chunk!r}")
    try:
        strands, word = int(m.group(1)), [int(chunk) for chunk in chunks]
    except ValueError as exc:  # a number past the int/str digit limit
        raise ParseError(f"bad braid number: {exc}") from None
    return make_braid(strands, word)


# ---------------------------------------------------------------------------
# Sliced tangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlicedTangle:
    input_arity: int
    output_arity: int
    slices: tuple  # of (piece, position)

    @property
    def closed(self) -> bool:
        return self.input_arity == 0 and self.output_arity == 0


def make_sliced_tangle(input_arity: int, slices) -> SlicedTangle:
    """Validate width bookkeeping and return the tangle."""
    if input_arity < 0:
        raise ArityMismatch("negative input arity")
    width = input_arity
    for piece, pos in slices:
        if piece in (POS_CROSS, NEG_CROSS, CAP):
            if not (0 <= pos <= width - 2):
                raise ArityMismatch(
                    f"{piece} at position {pos} needs two strands, width is {width}")
            if piece == CAP:
                width -= 2
        elif piece == CUP:
            if not (0 <= pos <= width):
                raise ArityMismatch(f"cup at position {pos}, width is {width}")
            width += 2
        elif piece == ID:
            if not (0 <= pos < width):
                raise ArityMismatch(f"id at position {pos}, width is {width}")
        else:
            raise ArityMismatch(f"unknown piece {piece!r}")
    return SlicedTangle(input_arity, width, tuple((p, q) for p, q in slices))


def braid_closure_sliced(b: BraidWord, kinks: int = 0) -> SlicedTangle:
    """Trace closure of ``b`` with |kinks| framing curls of the sign of kinks.

    Strands no letter touches (generator i touches i-1 and i) are free
    loops, first.  Strand j of the rest is cupped just before the first
    letter touching a position >= j and capped right after the last.  Each
    kink is a curl (CUP, p+1), (+-X, p), (CAP, p+1) on the last strand p
    after the word, a letter on p.  Refuses, before building anything,
    closures of m crossings and caps: the RT estimate is over 1 + ... + m."""
    from .rt import MAX_SWEEP_COST  # rt imports this module
    s, k, m = b.strands, abs(kinks), len(b.word) + b.strands + 2 * abs(kinks)
    check_size(f"closure of B{s} with {len(b.word) + k} crossings, sweep "
               "estimate at least", m * (m + 1) // 2, MAX_SWEEP_COST)
    rank = {q: r for r, q in enumerate(sorted(set(
        [q for x in b.word for q in (abs(x) - 1, abs(x))] + [s - 1] * (k > 0))))}
    p = len(rank) - 1
    curl = ((CUP, p + 1), (POS_CROSS if kinks > 0 else NEG_CROSS, p),
            (CAP, p + 1))
    letters = [(((POS_CROSS if x > 0 else NEG_CROSS, rank[abs(x) - 1]),),
                rank[abs(x)]) for x in b.word] + [(curl, p)] * k
    later = list(accumulate((top for _, top in reversed(letters)), max,
                            initial=-1))[-2::-1]  # highest top still to come
    slices, opened = [(CUP, 0), (CAP, 0)] * (s - len(rank)), 0
    for (pieces, top), after in zip(letters, later):
        slices += [(CUP, j) for j in range(opened, top + 1)] + list(pieces)
        opened = max(opened, top + 1)
        slices += [(CAP, j) for j in range(opened - 1, after, -1)]
        opened = min(opened, after + 1)
    return make_sliced_tangle(0, slices)


def writhe(t: SlicedTangle) -> int:
    if not t.closed:
        raise OpenTangle("writhe needs a closed diagram")
    return (sum(1 for piece, _ in t.slices if piece == POS_CROSS)
            - sum(1 for piece, _ in t.slices if piece == NEG_CROSS))


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

class UnionFind:
    """Disjoint classes of hashable items, with full path compression.

    ``union(a, b)`` hangs the root of a's class below the root of b's, so
    the roots (and any labelling derived from them) depend only on the
    order of the unions.
    """

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x) -> None:
        self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def class_count(self) -> int:
        return len({self.find(x) for x in self.parent})


@dataclass(frozen=True)
class PDCode:
    """Crossings as (sign, (in_left, in_right, out_left, out_right)) with the
    strand entering at in_left leaving at out_right and vice versa.  Sign +1
    means the in_left strand passes over for a positive braid generator.
    Arc labels in no crossing are closed crossing-free loops."""

    crossings: tuple
    arcs: frozenset


def pd_from_sliced(t: SlicedTangle) -> PDCode:
    """Arc-trace a closed sliced tangle into a PD code."""
    if not t.closed:
        raise OpenTangle("PD codes are built for closed diagrams")
    arcs = UnionFind()
    fresh = iter(range(1, 10 ** 9))

    def new_arc() -> int:
        a = next(fresh)
        arcs.add(a)
        return a

    strands: list[int] = []
    crossings = []
    for piece, pos in t.slices:
        if piece == ID:
            continue
        if piece == CUP:
            a = new_arc()
            strands[pos:pos] = [a, a]
        elif piece == CAP:
            a, b = strands[pos], strands[pos + 1]
            arcs.union(a, b)
            del strands[pos:pos + 2]
        else:
            sign = 1 if piece == POS_CROSS else -1
            a, b = strands[pos], strands[pos + 1]
            c, d = new_arc(), new_arc()
            crossings.append((sign, (a, b, c, d)))
            strands[pos], strands[pos + 1] = c, d

    relabel: dict[int, int] = {}

    def canon(x: int) -> int:
        r = arcs.find(x)
        if r not in relabel:
            relabel[r] = len(relabel) + 1
        return relabel[r]

    out_crossings = tuple((sign, tuple(canon(x) for x in quad))
                          for sign, quad in crossings)
    all_arcs = {canon(x) for x in arcs.parent}
    return PDCode(out_crossings, frozenset(all_arcs))


def pd_components(pd: PDCode) -> int:
    """Number of link components: follow each strand through its crossings."""
    strands = UnionFind(pd.arcs)
    for _, (a, b, c, d) in pd.crossings:
        strands.union(a, d)   # in_left continues to out_right
        strands.union(b, c)   # in_right continues to out_left
    return strands.class_count()


# ---------------------------------------------------------------------------
# Catalog and link files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSpec:
    braid: BraidWord
    framing_kinks: int = 0

    def tangle(self) -> SlicedTangle:
        return braid_closure_sliced(self.braid, self.framing_kinks)


CATALOG: dict[str, LinkSpec] = {
    "unknot": LinkSpec(make_braid(1, ())),
    "unknot_pos_kink": LinkSpec(make_braid(1, ()), 1),
    "unknot_neg_kink": LinkSpec(make_braid(1, ()), -1),
    "hopf_pos": LinkSpec(make_braid(2, (1, 1))),
    "hopf_neg": LinkSpec(make_braid(2, (-1, -1))),
    "trefoil_right": LinkSpec(make_braid(2, (1, 1, 1))),
    "trefoil_left": LinkSpec(make_braid(2, (-1, -1, -1))),
    "figure_eight": LinkSpec(make_braid(3, (1, -2, 1, -2))),
}


def link_from_json(text: str) -> LinkSpec:
    """Parse `{"braid": {"strands": s, "word": [...]}, "framing_kinks": k}`."""
    data = load_json(text, "link")
    if not isinstance(data, dict) or "braid" not in data:
        raise ParseError("link JSON needs a 'braid' object")
    braid = data["braid"]
    if not isinstance(braid, dict) or not {"strands", "word"} <= braid.keys():
        raise ParseError("braid object needs 'strands' and 'word'")
    strands, word = braid["strands"], braid["word"]
    if not isinstance(word, list):
        raise ParseError("braid 'word' must be a list")
    kinks = data.get("framing_kinks", 0)
    for what, value in [("strands", strands), ("framing_kinks", kinks),
                        *(("word letter", x) for x in word)]:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"bad {what} {value!r}: not an integer")
    return LinkSpec(make_braid(strands, word), kinks)


# Convenience names for catalog entries.
LINK_ALIASES = {"trefoil": "trefoil_right", "hopf": "hopf_pos"}


def resolve_link(spec: str) -> LinkSpec:
    """Accept a catalog name or alias, a braid string `B<s>:...`, or a link
    JSON."""
    s = spec.strip()
    s = LINK_ALIASES.get(s, s)
    if s in CATALOG:
        return CATALOG[s]
    if s.startswith("{"):
        return link_from_json(s)
    if s.startswith("B"):
        return LinkSpec(parse_braid(s))
    raise UnknownName(f"unknown link {spec!r} (not a catalog name, braid, or JSON)")
