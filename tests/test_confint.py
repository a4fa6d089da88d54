"""Gauss-linking and self-linking integrals on sampled curves."""

import math

import numpy as np
import pytest

from rtfactor.confint import (
    COORDINATE_LIMIT,
    ParamCurve,
    blackboard_framing,
    curve_to_json,
    curves_from_json,
    framed_self_linking,
    framing_twist_turns,
    frenet_framing,
    gauss_linking,
    hopf_pair,
    make_param_curve,
    torus_knot,
    twisted_circle,
    unit_circle,
    writhe_integral,
)
from rtfactor.errors import CurvesIntersect, ParseError


def test_hopf_pair_links_once():
    value = gauss_linking(*hopf_pair(512))
    assert abs(value - (-1.0)) < 1e-3


def test_far_circles_do_not_link():
    near = unit_circle(256)
    far = unit_circle(256, center=(50.0, 0.0, 0.0))
    assert abs(gauss_linking(near, far)) < 1e-6


def test_reversing_one_curve_negates_linking():
    c1, c2 = hopf_pair(256)
    backwards = make_param_curve(c2.points[::-1])
    assert abs(gauss_linking(c1, backwards) + gauss_linking(c1, c2)) < 1e-12


def test_linking_is_symmetric():
    c1, c2 = hopf_pair(256)
    assert abs(gauss_linking(c1, c2) - gauss_linking(c2, c1)) < 1e-12


def test_rigid_motion_invariance():
    c1, c2 = hopf_pair(256)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                    [math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    shift = np.array([0.3, -1.2, 2.5])
    moved = [make_param_curve(c.points @ rot.T + shift) for c in (c1, c2)]
    assert abs(gauss_linking(*moved) - gauss_linking(c1, c2)) < 1e-9


def test_doubling_samples_halves_the_hopf_error():
    previous = None
    for samples in (64, 128, 256, 512, 1024):
        value = gauss_linking(*hopf_pair(samples))
        error = abs(value - round(value))
        if previous is not None and previous > 1e-4:
            assert error <= previous / 2
        previous = error


def test_intersecting_curves_rejected():
    circle = unit_circle(128)
    with pytest.raises(CurvesIntersect):
        gauss_linking(circle, circle)


def test_coordinates_past_the_limit_rejected():
    circle, other = hopf_pair(64)
    # a power of two below the limit scales every operation exactly
    far = [make_param_curve(c.points * 2.0 ** 330) for c in (circle, other)]
    assert gauss_linking(*far) == gauss_linking(circle, other)
    with pytest.raises(ParseError, match="at most 1e"):
        make_param_curve(circle.points * COORDINATE_LIMIT * 1.5)
    with pytest.raises(ParseError, match="at most 1e"):
        framed_self_linking(twisted_circle(64, 1), COORDINATE_LIMIT * 2)


def test_vertical_framing_gives_zero_self_linking():
    assert abs(framed_self_linking(twisted_circle(512, 0), 0.1)) < 1e-3


def test_twisted_framings_count_their_turns():
    for turns in range(-2, 3):
        value = framed_self_linking(twisted_circle(1024, turns), 0.1)
        assert abs(value - turns) < 1e-2, (turns, value)


def test_blackboard_push_off_matches_diagram_writhe():
    framed = blackboard_framing(torus_knot(1024))
    assert abs(framed_self_linking(framed, 0.1) - 3.0) < 1e-1


def test_planar_circle_has_zero_writhe():
    assert abs(writhe_integral(unit_circle(256))) < 1e-6


def test_mirroring_negates_writhe():
    knot = torus_knot(512)
    mirrored = make_param_curve(knot.points * np.array([1.0, 1.0, -1.0]))
    assert abs(writhe_integral(mirrored) + writhe_integral(knot)) < 1e-9


def test_writhe_plus_twist_equals_frenet_self_linking():
    knot = torus_knot(1024)
    framed = frenet_framing(knot)
    lhs = writhe_integral(knot) + framing_twist_turns(framed)
    rhs = framed_self_linking(framed, 0.05)
    assert abs(lhs - rhs) < 0.05


def _stacked_integrand(pts1, pts2):
    """The Gauss integrand over all pairs at once, from stacked 3-vectors."""
    ahead1, ahead2 = np.roll(pts1, -1, axis=0), np.roll(pts2, -1, axis=0)
    sep = 0.5 * (pts1 + ahead1)[:, None, :] - 0.5 * (pts2 + ahead2)[None, :, :]
    cross = np.cross((ahead1 - pts1)[:, None, :], (ahead2 - pts2)[None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.einsum("ijk,ijk->ij", sep, cross)
                / np.linalg.norm(sep, axis=2) ** 3)


@pytest.mark.parametrize("samples", [8, 31, 32, 33, 100])
def test_blocked_integrals_equal_the_stacked_form_bit_for_bit(samples):
    # Row counts below, at and across the block size.  Compared by repr, to
    # the sign of zero: rendered answers of integrals that vanish (about
    # 1e-20 for the untwisted circle) keep their rounding noise.
    rng = np.random.default_rng(samples)
    wild = rng.normal(size=(samples + 5, 3)) * 40.0 + 3.0
    flat = twisted_circle(samples, 0)
    pairs = [tuple(c.points for c in hopf_pair(samples)),
             (wild, rng.normal(size=(samples, 3))),
             (flat.points, flat.points + 0.1 * flat.framing)]
    for p1, p2 in pairs:
        want = float(_stacked_integrand(p1, p2).sum()) / (4.0 * math.pi)
        got = gauss_linking(make_param_curve(p1), make_param_curve(p2))
        assert repr(got) == repr(want)
    for pts in (torus_knot(samples).points, unit_circle(samples).points, wild):
        stacked = _stacked_integrand(pts, pts)
        np.fill_diagonal(stacked, 0.0)
        want = float(stacked.sum()) / (4.0 * math.pi)
        assert repr(writhe_integral(make_param_curve(pts))) == repr(want)


def test_twist_of_planar_circle_framings():
    # Parallel transport around a planar circle is trivial, so the twist
    # is exactly the framing's turn count.
    for turns in (-1, 0, 2):
        value = framing_twist_turns(twisted_circle(256, turns))
        assert abs(value - turns) < 1e-9


def test_framing_required():
    bare = unit_circle(64)
    with pytest.raises(ParseError):
        framed_self_linking(bare, 0.1)
    with pytest.raises(ParseError):
        framing_twist_turns(bare)


def test_frenet_needs_curvature():
    run = [[float(i), 0.0, 0.0] for i in range(5)]
    back = [[4.0, 1.0, 0.0], [3.0, 1.5, 0.0], [2.0, 1.2, 0.0], [0.5, 1.0, 0.0]]
    with pytest.raises(ParseError):
        frenet_framing(make_param_curve(run + back))


def test_blackboard_needs_nonvertical_tangents():
    with pytest.raises(ParseError):
        blackboard_framing(unit_circle(256, plane="xz"))


def test_curve_validation():
    with pytest.raises(ParseError):
        make_param_curve([[0.0, 0.0, 0.0]] * 4)  # too few
    with pytest.raises(ParseError):
        make_param_curve([[0.0, 0.0]] * 8)  # wrong width
    square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
              [0.0, 1.0, 0.0]]
    closed_twice = square + square[:1] + [[0.0, 0.5, 0.0]] * 3
    with pytest.raises(ParseError):
        make_param_curve(closed_twice)  # duplicate consecutive points
    circle = unit_circle(64)
    with pytest.raises(ParseError):
        make_param_curve(circle.points, circle.points[:10])  # shape mismatch
    with pytest.raises(ParseError):
        make_param_curve(circle.points, np.zeros_like(circle.points))
    tangents = np.roll(circle.points, -1, 0) - np.roll(circle.points, 1, 0)
    with pytest.raises(ParseError):
        make_param_curve(circle.points, tangents)


def test_framing_normalized_to_unit_length():
    circle = unit_circle(64)
    tall = np.broadcast_to(np.array([0.0, 0.0, 7.0]), circle.points.shape)
    framed = make_param_curve(circle.points, tall)
    assert np.allclose(np.linalg.norm(framed.framing, axis=1), 1.0)


def test_torus_knot_rejects_common_factors():
    with pytest.raises(ParseError):
        torus_knot(64, 2, 4)
    with pytest.raises(ParseError):
        unit_circle(64, plane="zz")


def test_curve_json_round_trip():
    framed = twisted_circle(64, 1)
    [again] = curves_from_json(curve_to_json(framed))
    assert np.allclose(again.points, framed.points)
    assert np.allclose(again.framing, framed.framing)
    bare = unit_circle(64)
    [back] = curves_from_json(curve_to_json(bare))
    assert back.framing is None
    assert np.allclose(back.points, bare.points)


def test_curve_list_parsing():
    c1, c2 = hopf_pair(64)
    text = "[" + curve_to_json(c1) + "," + curve_to_json(c2) + "]"
    pair = curves_from_json(text)
    assert len(pair) == 2
    single = curves_from_json(curve_to_json(c1))
    assert len(single) == 1
    with pytest.raises(ParseError):
        curves_from_json("[]")
    with pytest.raises(ParseError):
        curves_from_json("{\"nope\": 1}")
    with pytest.raises(ParseError):
        curves_from_json("not json")
