"""Tangle evaluation, skein cross-checks, and h-expansion."""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from rtfactor import kauffman, quantum_group, rt
from rtfactor._linalg import mat_mul
from rtfactor.diagram import (
    CAP,
    CUP,
    ID,
    NEG_CROSS,
    POS_CROSS,
    CATALOG,
    LinkSpec,
    SlicedTangle,
    braid_closure_sliced,
    make_braid,
    make_sliced_tangle,
    parse_braid,
    pd_components,
    pd_from_sliced,
    writhe,
)
from rtfactor.errors import ArityMismatch, NonInvertibleNormalizer, OpenTangle
from rtfactor.kauffman import jones_polynomial, kauffman_bracket
from rtfactor.quantum_group import (
    make_ribbon_rep,
    quantum_dimension,
    ribbon_twist,
    sln_fundamental_ribbon,
)
from rtfactor.rt import (
    compare_with_bracket,
    evaluate_sliced_tangle,
    framed_invariant,
    hbar_expand_invariant,
    jones_from_quantum,
    normalized_invariant,
    sweep_cost,
    writhe_corrected_invariant,
)
from rtfactor.ring import HSeries, LaurentPoly, parse_laurent


def _tangle(name):
    return CATALOG[name].tangle()


# -- independent oracle: full Kronecker-product slice matrices ----------------

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()


def _identity(size):
    return tuple(tuple(ONE if i == j else ZERO for j in range(size))
                 for i in range(size))


def _mul(a, b):
    return tuple(map(tuple, mat_mul(a, b, zero=ZERO)))


def _kron(a, b):
    """Kronecker product of two (possibly rectangular) matrices."""
    return tuple(tuple(x * y if x and y else ZERO for x in arow for y in brow)
                 for arow in a for brow in b)


def _slice_matrix(piece, pos, width, rep):
    """I_(n^pos) (x) local (x) I_(n^rest): one slice on all n^width states."""
    n = rep.n
    pairs = [(a, b) for a in range(n) for b in range(n)]
    local, consumed = {
        ID: (_identity(n), 1),
        POS_CROSS: (rep.R, 2),
        NEG_CROSS: (rep.R_inv, 2),
        CUP: (tuple((rep.cup[a][b],) for a, b in pairs), 0),
        CAP: ((tuple(rep.cap[a][b] for a, b in pairs),), 2),
    }[piece]
    left = _identity(n ** pos)
    right = _identity(n ** (width - pos - consumed))
    return _kron(_kron(left, local), right)


def _kron_oracle(t, rep):
    """The tangle's matrix as a product of dense slice matrices."""
    width = t.input_arity
    value = _identity(rep.n ** width)
    for piece, pos in t.slices:
        value = _mul(_slice_matrix(piece, pos, width, rep), value)
        width += {CUP: 2, CAP: -2}.get(piece, 0)
    return value


# -- independent oracle: the nested closure of the Markov-stabilized braid ----

def _stabilized_closure(spec):
    """Every strand cupped first and capped last, nested, and each framing
    kink a Markov stabilization onto a new last strand."""
    strands, word = spec.braid.strands, list(spec.braid.word)
    sign = 1 if spec.framing_kinks > 0 else -1
    for _ in range(abs(spec.framing_kinks)):
        word.append(sign * strands)
        strands += 1
    slices = [(CUP, p) for p in range(strands)]
    slices += [(POS_CROSS if x > 0 else NEG_CROSS, abs(x) - 1) for x in word]
    slices += [(CAP, p) for p in range(strands - 1, -1, -1)]
    return make_sliced_tangle(0, slices)


def _seeded_links(seed, count):
    """Braids of at most 5 strands and 8 letters with -4..4 framing kinks."""
    rng = random.Random(seed)
    links = []
    for _ in range(count):
        strands = rng.randint(1, 5)
        letters = rng.randint(0, 8) if strands > 1 else 0
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(letters)]
        links.append(LinkSpec(make_braid(strands, word), rng.randint(-4, 4)))
    return links


def _random_tangle(rng, input_arity, max_width, closed):
    width, slices = input_arity, []
    for _ in range(rng.randint(3, 10)):
        pieces = [CUP] if width + 2 <= max_width else []
        if width:
            pieces.append(ID)
        if width >= 2:
            pieces += [POS_CROSS, NEG_CROSS, CAP]
        piece = rng.choice(pieces)
        if piece == CUP:
            slices.append((CUP, rng.randint(0, width)))
            width += 2
        elif piece == ID:
            slices.append((ID, rng.randrange(width)))
        else:
            slices.append((piece, rng.randint(0, width - 2)))
            width -= 2 if piece == CAP else 0
    while closed and width:
        slices.append((CAP, rng.randint(0, width - 2)))
        width -= 2
    return make_sliced_tangle(input_arity, slices)


@pytest.mark.parametrize("n", [2, 3])
def test_every_slice_at_every_position_matches_kron_oracle(n):
    rep = sln_fundamental_ribbon(n)
    for width in range(4):
        for piece in (ID, POS_CROSS, NEG_CROSS, CUP, CAP):
            last = {ID: width - 1, CUP: width}.get(piece, width - 2)
            for pos in range(last + 1):
                t = make_sliced_tangle(width, [(piece, pos)])
                value = evaluate_sliced_tangle(t, rep)
                assert value.matrix == _kron_oracle(t, rep), (piece, pos, width)


@pytest.mark.parametrize("n", [2, 3])
def test_random_tangles_match_kron_oracle(n):
    rep = sln_fundamental_ribbon(n)
    rng = random.Random(1990 + n)
    for trial in range(30):
        closed = trial % 3 == 0
        t = _random_tangle(rng, 0 if closed else rng.randint(0, 2), 4, closed)
        assert t.closed or not closed
        value = evaluate_sliced_tangle(t, rep)
        expected = _kron_oracle(t, rep)
        assert value.output_arity == t.output_arity
        assert value.matrix == expected, t.slices


def _scaled(m, c: LaurentPoly) -> tuple:
    """Every entry of the matrix m times c."""
    return tuple(tuple(c * v for v in row) for row in m)


def _rescaled_rep(n):
    """The builtin data with cup times 3/2 and cap times 2/3: still a valid
    ribbon representation, now with non-integral coefficients."""
    rep = sln_fundamental_ribbon(n)
    return make_ribbon_rep(
        n, rep.R, rep.R_inv, _scaled(rep.cup, LaurentPoly.const(Fraction(3, 2))),
        _scaled(rep.cap, LaurentPoly.const(Fraction(2, 3))), rep.twist)


@pytest.mark.parametrize("n", [2, 3])
def test_non_integral_rep_matches_builtin_and_kron_oracle(n):
    rep, builtin = _rescaled_rep(n), sln_fundamental_ribbon(n)
    assert Fraction(3, 2) in {c for row in rep.cup for p in row
                              for _, c in p.terms}
    for spec in list(CATALOG.values()) + _seeded_links(12, 10):
        tangle = spec.tangle()
        assert (framed_invariant(tangle, rep)
                == framed_invariant(tangle, builtin)), spec
    rng = random.Random(77 + n)
    for _ in range(20):
        t = _random_tangle(rng, rng.randint(0, 2), 4, False)
        assert evaluate_sliced_tangle(t, rep).matrix == _kron_oracle(t, rep), \
            t.slices


def test_move_tables_follow_the_representation_swept():
    # The rescaled and the builtin sl2 data share n and root order but not
    # their cup and cap entries, so a table cache keyed on anything less
    # than the representation itself answers one with the other's tables.
    rescaled, builtin = _rescaled_rep(2), sln_fundamental_ribbon(2)
    rng = random.Random(19)
    tangles = [_random_tangle(rng, rng.randint(0, 2), 4, False)
               for _ in range(12)]
    differ = False
    for t in tangles:
        answers = [evaluate_sliced_tangle(t, rep).matrix
                   for rep in (rescaled, builtin, rescaled)]
        assert answers[0] == answers[2] == _kron_oracle(t, rescaled), t.slices
        assert answers[1] == _kron_oracle(t, builtin), t.slices
        differ |= answers[0] != answers[1]
    assert differ


def test_sweeps_never_hash_the_representation(monkeypatch):
    # The move tables hang off the representation, so neither a sweep nor
    # the build of a new representation looks anything up by its hash.
    def refuse(self):
        raise AssertionError("RibbonRep hashed")

    monkeypatch.setattr(quantum_group.RibbonRep, "__hash__", refuse)
    trefoil = _tangle("trefoil_right")
    for rep in (sln_fundamental_ribbon(2), _rescaled_rep(2)):
        assert framed_invariant(trefoil, rep) == parse_laurent(
            "-q^{-9/4} + q^{-1/4} + q^{3/4} + q^{7/4}")
    assert compare_with_bracket(trefoil).verdict


def test_identity_strand_gives_identity_matrix():
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        value = evaluate_sliced_tangle(make_sliced_tangle(1, [(ID, 0)]), rep)
        assert value.input_arity == value.output_arity == 1
        for i in range(n):
            for j in range(n):
                expected = LaurentPoly.one() if i == j else LaurentPoly.zero()
                assert value.matrix[i][j] == expected


def test_unknot_evaluates_to_quantum_dimension():
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        assert framed_invariant(_tangle("unknot"), rep) == quantum_dimension(rep)


def test_crossing_pair_cancels_to_identity():
    pair = make_sliced_tangle(2, [(POS_CROSS, 0), (NEG_CROSS, 0)])
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        value = evaluate_sliced_tangle(pair, rep)
        size = n * n
        for i in range(size):
            for j in range(size):
                expected = LaurentPoly.one() if i == j else LaurentPoly.zero()
                assert value.matrix[i][j] == expected


def test_kinks_scale_by_twist_powers():
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        twist = ribbon_twist(rep)
        for name in ("unknot", "hopf_pos", "trefoil_right"):
            spec = CATALOG[name]
            base = framed_invariant(spec.tangle(), rep)
            for kinks in (-2, -1, 1, 2):
                framed = LinkSpec(spec.braid, spec.framing_kinks + kinks)
                value = framed_invariant(framed.tangle(), rep)
                assert value == base * twist ** kinks, (name, n, kinks)


def test_markov_stabilization_with_kink_correction():
    wide = braid_closure_sliced(parse_braid("B2:1"))
    narrow = braid_closure_sliced(parse_braid("B1:"))
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        assert (framed_invariant(wide, rep)
                == ribbon_twist(rep) * framed_invariant(narrow, rep))


def test_inserting_crossing_pair_changes_nothing():
    rep = sln_fundamental_ribbon(2)
    for name, spec in CATALOG.items():
        base = spec.tangle()
        # right after the opening cups, at least two strands wide
        cut = next(i for i, (piece, _) in enumerate(base.slices)
                   if piece != CUP)
        padded = SlicedTangle(0, 0, base.slices[:cut]
                              + ((POS_CROSS, 0), (NEG_CROSS, 0))
                              + base.slices[cut:])
        assert framed_invariant(padded, rep) == framed_invariant(base, rep), name


# Carriers compared against the oracle up to this many oracle strands,
# braid strands plus kinks; the oracle closure is twice as wide.
_ORACLE_STRANDS = {2: 9, 3: 7, 4: 5}


def test_closure_matches_stabilized_oracle(monkeypatch):
    monkeypatch.setattr(rt, "MAX_SWEEP_COST", 10 ** 12)  # wide oracle closures
    for spec in list(CATALOG.values()) + _seeded_links(9, 60):
        new, old = spec.tangle(), _stabilized_closure(spec)
        what = (spec.braid, spec.framing_kinks)
        assert writhe(new) == writhe(old), what
        new_pd, old_pd = pd_from_sliced(new), pd_from_sliced(old)
        assert pd_components(new_pd) == pd_components(old_pd), what
        assert kauffman_bracket(new_pd) == kauffman_bracket(old_pd), what
        for n, most in _ORACLE_STRANDS.items():
            if spec.braid.strands + abs(spec.framing_kinks) <= most:
                rep = sln_fundamental_ribbon(n)
                assert (framed_invariant(new, rep)
                        == framed_invariant(old, rep)), (what, n)


def test_closure_width_ignores_kinks():
    for kinks in (1, -1, 2, -7, 50, -300):
        tangle = LinkSpec(make_braid(1, ()), kinks).tangle()
        assert sweep_cost(tangle, 2)[1] == 4, kinks
    for spec in _seeded_links(10, 200):
        peak = sweep_cost(spec.tangle(), 2)[1]
        assert peak <= 2 * spec.braid.strands + 2, spec


def _set_toggle_estimate(pd):
    """The bracket estimate as it was: one set toggle per crossing, which
    leaves a curl's loop arc open for the rest of the sweep."""
    open_ends, cost = set(), 0
    for k, (_, arcs) in enumerate(pd.crossings, 1):
        open_ends.symmetric_difference_update(arcs)
        pairs = len(open_ends) // 2
        cost += k * min(2 ** k, comb(2 * pairs, pairs) // (pairs + 1))
    return cost


def test_kinked_closure_never_raises_the_bracket_estimate():
    for spec in _seeded_links(11, 400):
        if spec.framing_kinks:
            new = kauffman.sweep_cost(pd_from_sliced(spec.tangle()))[0]
            old = _set_toggle_estimate(pd_from_sliced(_stabilized_closure(spec)))
            assert new <= old, spec


def test_hopf_and_trefoil_match_mapped_bracket():
    rep = sln_fundamental_ribbon(2)
    for name in ("hopf_pos", "trefoil_right"):
        tangle = _tangle(name)
        bracket = kauffman_bracket(pd_from_sliced(tangle), normalized=False)
        assert (framed_invariant(tangle, rep)
                == bracket.scale_exponents(Fraction(1, 4))), name


def test_bracket_comparison_uniform_rule_across_catalog():
    shared = None
    for name, spec in CATALOG.items():
        report = compare_with_bracket(spec.tangle())
        assert report.verdict, name
        rules = set(report.rules)
        shared = rules if shared is None else shared & rules
    assert shared, "no single rule works catalog-wide"
    laws = {(r.substitution, r.per_writhe, r.per_component, r.global_sign)
            for r in shared}
    assert ("q = A^4", 0, 0, 1) in laws


def test_bracket_comparison_reports_primary_rule_fields():
    report = compare_with_bracket(_tangle("trefoil_right"))
    assert report.substitution in ("q = A^4", "q = A^-4")
    assert report.sign_exponent_law is not None
    assert report.global_sign in (-1, 1)


def test_corrupted_braiding_fails_comparison():
    rep = sln_fundamental_ribbon(2)
    bad_row = list(rep.R[0])
    bad_row[0] = bad_row[0] * LaurentPoly.q_power(1, 2)
    bad_r = (tuple(bad_row),) + rep.R[1:]
    corrupted = dataclasses.replace(rep, R=bad_r)
    report = compare_with_bracket(_tangle("trefoil_right"), rep=corrupted)
    assert not report.verdict


def test_jones_from_quantum_matches_skein_oracle():
    for name, spec in CATALOG.items():
        tangle = spec.tangle()
        skein = jones_polynomial(pd_from_sliced(tangle), writhe(tangle))
        assert jones_from_quantum(tangle) == skein, name


def test_mirror_inverts_variable_for_sl3():
    rep = sln_fundamental_ribbon(3)
    right = normalized_invariant(_tangle("trefoil_right"), rep)
    left = normalized_invariant(_tangle("trefoil_left"), rep)
    assert left == right.scale_exponents(-1)
    assert left != right


def test_cable_kink_factors_through_double_braiding():
    # A kink in a two-strand cable equals twist^2 times the squared braiding.
    cable_kink = make_sliced_tangle(2, [
        (CUP, 2), (CUP, 3),
        (POS_CROSS, 1), (POS_CROSS, 0), (POS_CROSS, 2), (POS_CROSS, 1),
        (CAP, 3), (CAP, 2),
    ])
    for n in (2, 3):
        rep = sln_fundamental_ribbon(n)
        value = evaluate_sliced_tangle(cable_kink, rep)
        twist = ribbon_twist(rep)
        expected = _scaled(_mul(rep.R, rep.R), twist * twist)
        assert value.matrix == expected


def test_writhe_corrected_invariant_ignores_kinks():
    rep = sln_fundamental_ribbon(3)
    plain = writhe_corrected_invariant(_tangle("unknot"), rep)
    kinked = writhe_corrected_invariant(_tangle("unknot_pos_kink"), rep)
    assert plain == kinked == quantum_dimension(rep)


def test_expansion_of_unknot_is_one():
    qdim = quantum_dimension(sln_fundamental_ribbon(2))
    series = hbar_expand_invariant(qdim, 4, normalize=True, unknot_value=qdim)
    assert series == HSeries.const(Fraction(1), 4)


def test_expansion_of_trefoil_pins_degree_two_coefficient():
    tangle = _tangle("trefoil_right")
    rep = sln_fundamental_ribbon(2)
    value = writhe_corrected_invariant(tangle, rep)
    series = hbar_expand_invariant(value, 2, normalize=True,
                                   unknot_value=quantum_dimension(rep))
    assert series.coeffs[0] == 1
    assert series.coeffs[1] == 0
    assert series.coeffs[2] == Fraction(-3)


def test_normalized_sl3_trefoil_expansion_starts_at_one():
    rep = sln_fundamental_ribbon(3)
    value = writhe_corrected_invariant(_tangle("trefoil_right"), rep)
    series = hbar_expand_invariant(value, 2, normalize=True,
                                   unknot_value=quantum_dimension(rep))
    assert series.coeffs == (Fraction(1), Fraction(0), Fraction(-8))


def test_normalizing_needs_an_unknot_value():
    with pytest.raises(TypeError):
        hbar_expand_invariant(LaurentPoly.one(), 2, normalize=True)


def test_expansion_of_figure_eight_starts_flat():
    tangle = _tangle("figure_eight")
    rep = sln_fundamental_ribbon(2)
    value = writhe_corrected_invariant(tangle, rep)
    series = hbar_expand_invariant(value, 1, normalize=True,
                                   unknot_value=quantum_dimension(rep))
    assert series.coeffs == (Fraction(1), Fraction(0))


def test_expansion_without_normalization_keeps_raw_constant():
    qdim = quantum_dimension(sln_fundamental_ribbon(2))
    series = hbar_expand_invariant(qdim, 2)
    assert series.constant == Fraction(-2)


def test_noninvertible_normalizer_rejected():
    vanishing = LaurentPoly.q_power(1) + LaurentPoly.const(Fraction(-1))
    with pytest.raises(NonInvertibleNormalizer):
        hbar_expand_invariant(LaurentPoly.one(), 3, normalize=True,
                              unknot_value=vanishing)


def test_open_tangle_rejected_by_framed_invariant():
    open_tangle = make_sliced_tangle(1, [(ID, 0)])
    with pytest.raises(OpenTangle):
        framed_invariant(open_tangle, sln_fundamental_ribbon(2))


def test_evaluator_rejects_malformed_slices():
    bad = SlicedTangle(1, 1, ((CAP, 0),))
    with pytest.raises(ArityMismatch):
        evaluate_sliced_tangle(bad, sln_fundamental_ribbon(2))


def test_split_unlink_value_is_square_of_unknot():
    rep = sln_fundamental_ribbon(2)
    two = braid_closure_sliced(make_braid(2, []))
    qdim = quantum_dimension(rep)
    assert framed_invariant(two, rep) == qdim * qdim
