"""Bracket sweep and Jones polynomial, checked against a 2^c state sum."""

import random
from fractions import Fraction

import pytest

from rtfactor import kauffman
from rtfactor.diagram import (
    CATALOG,
    LinkSpec,
    PDCode,
    braid_closure_sliced,
    make_braid,
    parse_braid,
    pd_from_sliced,
    writhe,
)
from rtfactor.errors import DimensionTooLarge
from rtfactor.kauffman import (
    MAX_SWEEP_COST,
    jones_polynomial,
    kauffman_bracket,
    loop_value,
)
from rtfactor.ring import LaurentPoly, drop_zeros, parse_laurent

from test_rt import _peak_width


def _state_sum(pd):
    """The bracket summed over all 2^c smoothings, unnormalized and
    normalized, with loops counted by union-find on the PD arcs."""
    delta = loop_value()
    num = len(pd.crossings)
    plain = normed = LaurentPoly.zero()
    for state in range(1 << num):
        parent = {arc: arc for arc in pd.arcs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        a_count = 0
        for i, (sign, (in_l, in_r, out_l, out_r)) in enumerate(pd.crossings):
            choose_a = not (state >> i) & 1
            a_count += choose_a
            # the A-smoothing of a positive crossing keeps the strands parallel
            if choose_a == (sign > 0):
                pairs = ((in_l, out_l), (in_r, out_r))
            else:
                pairs = ((in_l, in_r), (out_l, out_r))
            for x, y in pairs:
                parent[find(x)] = find(y)
        loops = len({find(arc) for arc in pd.arcs})
        weight = LaurentPoly.q_power(2 * a_count - num)
        plain = plain + weight * delta ** loops
        normed = normed + weight * delta ** (loops - 1)
    return plain, normed


def _assert_matches_state_sum(pd, what):
    plain, normed = _state_sum(pd)
    for normalized, expected in ((False, plain), (True, normed)):
        bracket = kauffman_bracket(pd, normalized=normalized)
        assert bracket == expected, what
        assert all(type(c) is int for _, c in bracket.terms), what


def _pd(name):
    spec = CATALOG[name]
    tangle = spec.tangle()
    return pd_from_sliced(tangle), writhe(tangle)


def _bracket_of_braid(text):
    return kauffman_bracket(pd_from_sliced(braid_closure_sliced(parse_braid(text))))


def test_unknot_bracket_is_one():
    pd, _ = _pd("unknot")
    assert kauffman_bracket(pd) == LaurentPoly.one()


def test_unnormalized_bracket_counts_every_loop():
    pd, _ = _pd("unknot")
    assert kauffman_bracket(pd, normalized=False) == loop_value()
    two_unlink = pd_from_sliced(braid_closure_sliced(make_braid(2, [])))
    assert kauffman_bracket(two_unlink) == loop_value()
    assert kauffman_bracket(two_unlink, normalized=False) == loop_value() * loop_value()


def test_empty_diagram_bracket_is_one():
    empty = PDCode((), frozenset())
    assert kauffman_bracket(empty) == kauffman_bracket(empty, False) == LaurentPoly.one()


def test_positive_kink_multiplies_by_minus_a_cubed():
    kink = LaurentPoly.q_power(3, 1, -1)
    assert _bracket_of_braid("B2:1") == kink
    assert _bracket_of_braid("B2:-1") == kink ** (-1)


def test_hopf_bracket_pinned():
    pd, _ = _pd("hopf_pos")
    expected = parse_laurent("-A^{4} - A^{-4}", var="A")
    assert kauffman_bracket(pd) == expected


def test_trefoil_bracket_pinned():
    pd, _ = _pd("trefoil_right")
    expected = parse_laurent("-A^{5} - A^{-3} + A^{-7}", var="A")
    assert kauffman_bracket(pd) == expected


def test_jones_right_trefoil_pinned():
    pd, w = _pd("trefoil_right")
    assert jones_polynomial(pd, w) == parse_laurent("-t^{4} + t^{3} + t", var="t")


def test_jones_left_trefoil_is_mirror():
    pd, w = _pd("trefoil_left")
    expected = parse_laurent("-t^{-4} + t^{-3} + t^{-1}", var="t")
    assert jones_polynomial(pd, w) == expected


def test_jones_figure_eight_is_self_mirror():
    pd, w = _pd("figure_eight")
    value = jones_polynomial(pd, w)
    assert value == parse_laurent("t^{-2} - t^{-1} + 1 - t + t^{2}", var="t")
    assert value == value.scale_exponents(-1)


def test_jones_hopf_has_half_integer_exponents():
    pd, w = _pd("hopf_pos")
    expected = parse_laurent("-t^{5/2} - t^{1/2}", var="t")
    assert jones_polynomial(pd, w) == expected


def test_jones_unaffected_by_reidemeister_one():
    for name in ("unknot", "unknot_pos_kink", "unknot_neg_kink"):
        spec = CATALOG[name]
        tangle = spec.tangle()
        value = jones_polynomial(pd_from_sliced(tangle), writhe(tangle))
        assert value == LaurentPoly.one(), name


def test_kink_multiplicativity_across_catalog():
    kink = LaurentPoly.q_power(3, 1, -1)
    for name, spec in CATALOG.items():
        one_more = LinkSpec(spec.braid, spec.framing_kinks + 1)
        braided = kauffman_bracket(pd_from_sliced(spec.tangle()))
        kinked = kauffman_bracket(pd_from_sliced(one_more.tangle()))
        assert kinked == braided * kink, name


def test_mirror_inverts_bracket_variable():
    rng = random.Random(2024)
    for _ in range(6):
        strands = rng.randint(2, 3)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 5))]
        braid = make_braid(strands, word)
        mirror = make_braid(strands, [-x for x in word])
        value = kauffman_bracket(pd_from_sliced(braid_closure_sliced(braid)))
        flipped = kauffman_bracket(pd_from_sliced(braid_closure_sliced(mirror)))
        assert flipped == value.scale_exponents(-1)


def test_disjoint_union_multiplies_by_loop_value():
    # A split extra component shows up as an unused braid strand.
    for text in ("B2:1,1,1", "B2:1,1"):
        base = parse_braid(text)
        split = make_braid(base.strands + 1, base.word)
        lhs = kauffman_bracket(pd_from_sliced(braid_closure_sliced(split)))
        rhs = kauffman_bracket(pd_from_sliced(braid_closure_sliced(base)))
        assert lhs == rhs * loop_value()


def test_sweep_matches_state_sum_on_catalog():
    for name, spec in CATALOG.items():
        _assert_matches_state_sum(pd_from_sliced(spec.tangle()), name)


def test_sweep_matches_state_sum_on_seeded_braids():
    rng = random.Random(6)
    for _ in range(40):
        strands = rng.randint(1, 5)
        kinks = rng.randint(-2, 2)
        letters = rng.randint(0, 12 - abs(kinks)) if strands > 1 else 0
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(letters)]
        spec = LinkSpec(make_braid(strands, word), kinks)
        _assert_matches_state_sum(pd_from_sliced(spec.tangle()),
                                  (strands, word, kinks))


def test_long_two_strand_braid_reduces_to_a_kink():
    # sigma (sigma^-1 sigma)^k closes to an unknot with one kink: Reidemeister
    # II cancels the pairs and each kink multiplies the bracket by -A^{+-3}.
    kink = LaurentPoly.q_power(3, 1, -1)
    for k in (12, 20):
        for sign in (1, -1):
            word = [sign] + [-sign, sign] * k
            assert len(word) >= 25
            assert _bracket_of_braid(f"B2:{','.join(map(str, word))}") == kink ** sign


def _two_strand_twist(crossings):
    return pd_from_sliced(braid_closure_sliced(make_braid(2, [1] * crossings)))


# The charge of sigma_1^c grows about as c^2 + 48c: two states of about c/2
# terms each, and four open ends, per crossing.
_LARGEST_TWIST = 1389


def test_largest_admitted_sweep_finishes_and_next_is_refused(monkeypatch):
    value = kauffman_bracket(_two_strand_twist(_LARGEST_TWIST))
    # At A = 1 the bracket is (-1)^writhe (-2)^(components - 1).
    components = 1 if _LARGEST_TWIST % 2 else 2
    assert value.at_one() == (-1) ** _LARGEST_TWIST * Fraction(-2) ** (
        components - 1)

    swept = []

    def counted(states):
        swept.append(len(states))
        return drop_zeros(states)

    monkeypatch.setattr(kauffman, "drop_zeros", counted)
    crossings = _LARGEST_TWIST + 1
    with pytest.raises(DimensionTooLarge) as exc:
        kauffman_bracket(_two_strand_twist(crossings))
    message = str(exc.value)
    assert message.startswith(
        f"bracket sweep at step {crossings} of {crossings}, charge ")
    assert message.endswith(f" exceeds the limit {MAX_SWEEP_COST}")
    # every crossing before the one past the limit was swept, that one not
    assert len(swept) == _LARGEST_TWIST


def test_curl_loop_arc_closes_at_its_crossing():
    # The curl's loop arc is listed twice at its one crossing: it opens and
    # closes there, so no end stays open and the bracket is one kink.
    pd = _pd("unknot_pos_kink")[0]
    assert [arcs for _, arcs in pd.crossings] == [(1, 2, 1, 2)]
    assert kauffman_bracket(pd) == LaurentPoly.q_power(3, 1, -1)
    kinked = LinkSpec(make_braid(2, [1, 1, 1]), 3).tangle()
    assert _peak_width(kinked) == 2 * 2 + 2


def test_bracket_charge_follows_open_ends_not_crossings():
    wide = make_braid(8, [1, 2, 3, 4, 5, 6, 7] * 20)
    with pytest.raises(DimensionTooLarge):
        kauffman_bracket(pd_from_sliced(braid_closure_sliced(wide)))
    narrow = kauffman_bracket(_two_strand_twist(140))
    assert narrow.at_one() == Fraction(-2)  # two components, writhe 140
