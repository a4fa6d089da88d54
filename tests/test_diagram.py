import random
from collections import Counter

import pytest

from rtfactor.diagram import (
    CAP,
    CATALOG,
    CUP,
    LinkSpec,
    NEG_CROSS,
    POS_CROSS,
    BraidWord,
    UnionFind,
    braid_closure_sliced,
    link_from_json,
    make_braid,
    make_sliced_tangle,
    parse_braid,
    pd_components,
    pd_from_sliced,
    resolve_link,
    writhe,
)
from rtfactor.errors import (
    ArityMismatch,
    GeneratorOutOfRange,
    OpenTangle,
    ParseError,
    UnknownName,
)


def test_parse_braid_examples():
    b = parse_braid("B2:1,1,1")
    assert b == BraidWord(2, (1, 1, 1))
    assert parse_braid("B3:1,-2,1,-2") == BraidWord(3, (1, -2, 1, -2))
    assert parse_braid("B1:") == BraidWord(1, ())


def test_parse_braid_errors():
    with pytest.raises(GeneratorOutOfRange):
        parse_braid("B2:3")
    with pytest.raises(GeneratorOutOfRange):
        parse_braid("B2:0")
    with pytest.raises(GeneratorOutOfRange):
        parse_braid("B1:1")
    with pytest.raises(ParseError):
        parse_braid("2:1,1")
    with pytest.raises(ParseError):
        parse_braid("B2:1,,1")
    with pytest.raises(ParseError):
        parse_braid("B2:one")


def test_unknot_closure_is_cup_cap():
    t = braid_closure_sliced(make_braid(1, ()))
    assert t.slices == ((CUP, 0), (CAP, 0))
    assert t.closed


def test_closure_arity_bookkeeping():
    t = braid_closure_sliced(make_braid(2, (1, 1, 1)))
    assert t.closed
    pieces = [p for p, _ in t.slices]
    assert pieces == [CUP, CUP, POS_CROSS, POS_CROSS, POS_CROSS, CAP, CAP]
    positions = [q for _, q in t.slices]
    assert positions == [0, 1, 0, 0, 0, 1, 0]


def test_bad_slices_rejected():
    with pytest.raises(ArityMismatch):
        make_sliced_tangle(0, [(CAP, 0)])
    with pytest.raises(ArityMismatch):
        make_sliced_tangle(2, [(POS_CROSS, 1)])
    with pytest.raises(ArityMismatch):
        make_sliced_tangle(1, [(CUP, 2)])
    with pytest.raises(ArityMismatch):
        make_sliced_tangle(2, [("twist", 0)])


def test_open_tangle_allowed_but_not_closed():
    t = make_sliced_tangle(2, [(POS_CROSS, 0)])
    assert t.input_arity == 2
    assert t.output_arity == 2
    assert not t.closed
    with pytest.raises(OpenTangle):
        writhe(t)
    with pytest.raises(OpenTangle):
        pd_from_sliced(t)


def test_writhe_values():
    assert writhe(CATALOG["trefoil_right"].tangle()) == 3
    assert writhe(CATALOG["trefoil_left"].tangle()) == -3
    assert writhe(CATALOG["figure_eight"].tangle()) == 0
    assert writhe(CATALOG["unknot"].tangle()) == 0
    assert writhe(CATALOG["unknot_pos_kink"].tangle()) == 1
    assert writhe(CATALOG["unknot_neg_kink"].tangle()) == -1


def test_mirror_negates_writhe():
    rng = random.Random(2026)
    for _ in range(20):
        s = rng.randint(2, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, s - 1)
                for _ in range(rng.randint(0, 6))]
        b = make_braid(s, word)
        mirror = make_braid(s, [-x for x in word])
        assert writhe(braid_closure_sliced(mirror)) == -writhe(braid_closure_sliced(b))


def test_stabilization_adds_kinks():
    # A framing curl adds to the writhe what a Markov stabilization adds.
    b = make_braid(1, ())
    up = LinkSpec(b, 2).tangle()
    down = LinkSpec(b, -1).tangle()
    assert writhe(up) == writhe(braid_closure_sliced(make_braid(3, (1, 2)))) == 2
    assert writhe(down) == writhe(braid_closure_sliced(make_braid(2, (-1,)))) == -1
    assert LinkSpec(b, 0).tangle() == braid_closure_sliced(b)


def test_pd_trefoil():
    pd = pd_from_sliced(CATALOG["trefoil_right"].tangle())
    assert len(pd.crossings) == 3
    counts = Counter(x for _, quad in pd.crossings for x in quad)
    # closed diagram: every arc shows up exactly twice among crossing slots
    assert all(v == 2 for v in counts.values())
    assert set(counts) == set(pd.arcs)
    assert pd_components(pd) == 1


def test_pd_crossing_free_unknot():
    pd = pd_from_sliced(CATALOG["unknot"].tangle())
    assert pd.crossings == ()
    assert len(pd.arcs) == 1
    assert pd_components(pd) == 1


def test_pd_component_counts():
    assert pd_components(pd_from_sliced(CATALOG["hopf_pos"].tangle())) == 2
    assert pd_components(pd_from_sliced(CATALOG["figure_eight"].tangle())) == 1
    # closure of a single generator on 3 strands: 2 components
    pd = pd_from_sliced(braid_closure_sliced(make_braid(3, (1,))))
    assert pd_components(pd) == 2


def test_union_find_classes():
    uf = UnionFind(range(5))
    uf.add(7)
    assert uf.class_count() == 6
    uf.union(0, 1)
    uf.union(2, 1)
    uf.union(7, 4)
    assert uf.find(0) == uf.find(2) == 1
    assert uf.find(7) == 4
    assert uf.class_count() == 3


def braid_permutation(b: BraidWord) -> list[int]:
    """Where each bottom strand position ends up at the top."""
    perm = list(range(b.strands))
    for letter in b.word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def permutation_cycles(perm) -> int:
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return count


def test_components_match_braid_permutation_cycles():
    rng = random.Random(515)
    for _ in range(25):
        s = rng.randint(1, 4)
        word = [rng.choice([1, -1]) * rng.randint(1, max(1, s - 1))
                for _ in range(rng.randint(0, 7))] if s > 1 else []
        b = make_braid(s, word)
        want = permutation_cycles(braid_permutation(b))
        got = pd_components(pd_from_sliced(braid_closure_sliced(b)))
        assert got == want, (s, word)


def test_catalog_components():
    for name, comps in [("unknot", 1), ("unknot_pos_kink", 1), ("hopf_neg", 2),
                        ("trefoil_left", 1), ("figure_eight", 1)]:
        pd = pd_from_sliced(CATALOG[name].tangle())
        assert pd_components(pd) == comps, name


def test_link_json_roundtrip():
    spec = link_from_json('{"braid": {"strands": 2, "word": [1, 1, 1]}, "framing_kinks": -2}')
    assert spec.braid == BraidWord(2, (1, 1, 1))
    assert spec.framing_kinks == -2
    assert writhe(spec.tangle()) == 1  # 3 - 2
    with pytest.raises(ParseError):
        link_from_json('{"word": [1]}')
    with pytest.raises(ParseError):
        link_from_json('not json')
    with pytest.raises(ParseError):
        link_from_json('{"braid": {"strands": 1, "word": []}, "framing_kinks": "abc"}')


@pytest.mark.parametrize("text", [
    '{"braid": {"strands": 2.9, "word": [1.7, -1.2]}, "framing_kinks": 2.5}',
    '{"braid": {"strands": 2, "word": [1.0, -1]}}',
    '{"braid": {"strands": 2, "word": [1]}, "framing_kinks": 2.5}',
    '{"braid": {"strands": true, "word": []}}',
    '{"braid": {"strands": 2, "word": [true]}}',
    '{"braid": {"strands": 1, "word": []}, "framing_kinks": false}',
    '{"braid": {"strands": "2", "word": []}}',
    '{"braid": {"strands": 2, "word": "1,1"}}',
    '{"braid": {"strands": 2}}',
    '{"braid": [2, [1]]}',
])
def test_link_json_rejects_non_integers(text):
    with pytest.raises(ParseError):
        link_from_json(text)


def test_resolve_link():
    assert resolve_link("trefoil_right") is CATALOG["trefoil_right"]
    assert resolve_link("trefoil") is CATALOG["trefoil_right"]
    assert resolve_link(" hopf ") is CATALOG["hopf_pos"]
    assert resolve_link("B2:1,1").braid == BraidWord(2, (1, 1))
    assert resolve_link('{"braid": {"strands": 1, "word": []}}').braid == BraidWord(1, ())
    with pytest.raises(UnknownName):
        resolve_link("granny_knot")
