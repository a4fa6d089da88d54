"""Gauss-linking and self-linking integrals on sampled curves."""

import math
import tracemalloc

import numpy as np
import pytest

from rtfactor import confint
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


def _circle_points(samples, center, normal_axis):
    """The points of ``unit_circle`` in the plane normal to the given axis,
    built without its size guard (for one side of a long, thin shape)."""
    angles = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    e1, e2 = np.delete(np.eye(3), normal_axis, axis=0)
    return (np.asarray(center)
            + np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2))


# Square shapes that fit in one leaf of the pairwise sum; then shapes
# spanning many leaves, cut mid-row (300 x 517, 9 x 20000) and with the
# writhe diagonal crossing leaf boundaries (600).
SHAPES = ([pytest.param(n, n, id=str(n)) for n in (8, 31, 32, 33, 100)]
          + [pytest.param(300, 517, id="300x517"),
             pytest.param(600, 600, id="600"),
             pytest.param(9, 20000, id="9x20000")])


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_blocked_integrals_equal_the_stacked_form_bit_for_bit(rows, cols):
    # Compared by repr, to the sign of zero: rendered answers of integrals
    # that vanish (about 1e-20 for the untwisted circle) keep their
    # rounding noise.
    rng = np.random.default_rng(rows)
    wild = rng.normal(size=(rows + 5, 3)) * 40.0 + 3.0
    flat = twisted_circle(rows, 0)
    pairs = [(_circle_points(rows, (0.0, 0.0, 0.0), 2),
              _circle_points(cols, (1.0, 0.0, 0.0), 1)),
             (wild, rng.normal(size=(cols, 3))),
             (flat.points, flat.points + 0.1 * flat.framing)]
    for p1, p2 in pairs:
        want = float(_stacked_integrand(p1, p2).sum()) / (4.0 * math.pi)
        got = gauss_linking(make_param_curve(p1), make_param_curve(p2))
        assert repr(got) == repr(want)
    for pts in (torus_knot(rows).points, unit_circle(rows).points, wild):
        stacked = _stacked_integrand(pts, pts)
        np.fill_diagonal(stacked, 0.0)
        want = float(stacked.sum()) / (4.0 * math.pi)
        assert repr(writhe_integral(make_param_curve(pts))) == repr(want)


def test_a_collision_in_the_last_leaf_mid_row_is_caught():
    rows, cols = 300, 517
    near = unit_circle(cols)
    far = unit_circle(rows, center=(0.0, 0.0, 100.0)).points
    assert abs(gauss_linking(make_param_curve(far), near)) < 1e-6
    # Segment i of the far curve gets segment j's endpoints, so the two
    # midpoints coincide; no other pair comes near.
    i, j = rows - 2, 200
    far[i:i + 2] = near.points[j:j + 2]
    starts = []
    confint._pairwise_sum(0, rows * cols,
                          lambda start, count: starts.append(start) or 0.0)
    assert starts[-1] < i * cols + j and starts[-1] % cols != 0
    with pytest.raises(CurvesIntersect):
        gauss_linking(make_param_curve(far), near)


def _traced_peak(call) -> float:
    """Peak traced allocation of call(), in MB; numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_gauss_integrals_never_hold_a_buffer_per_pair():
    # An N x M float array is 32 MB at 2048 x 2048 and at 8 x 524288.
    assert _traced_peak(lambda: gauss_linking(*hopf_pair(2048))) <= 4.0
    angles = np.linspace(0.0, 2.0 * math.pi, 1 << 19, endpoint=False)
    wide = make_param_curve(3.0 * np.stack(
        [np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1))
    short = unit_circle(8, center=(0.0, 0.0, 1.0))
    assert _traced_peak(lambda: gauss_linking(short, wide)) <= 64.0
    assert _traced_peak(lambda: gauss_linking(wide, short)) <= 64.0


def test_twist_of_planar_circle_framings():
    # Parallel transport around a planar circle is trivial, so the twist
    # is exactly the framing's turn count.
    for turns in (-1, 0, 2):
        value = framing_twist_turns(twisted_circle(256, turns))
        assert abs(value - turns) < 1e-9


def _rotate_align(v, a, b):
    """The minimal rotation taking unit vector a to unit vector b, applied
    to v; the identity when a and b are parallel."""
    axis = np.cross(a, b)
    sin = float(np.linalg.norm(axis))
    cos = float(np.dot(a, b))
    if sin < 1e-12:
        return v
    k = axis / sin
    return v * cos + np.cross(k, v) * sin + k * float(np.dot(k, v)) * (1.0 - cos)


def _looped_twist_turns(c):
    """The framing's turns, one parallel-transport step at a time."""
    tangents = np.roll(c.points, -1, axis=0) - np.roll(c.points, 1, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    side = c.framing - np.einsum("ij,ij->i", c.framing, tangents)[:, None] * tangents
    side = side / np.linalg.norm(side, axis=1)[:, None]
    total = 0.0
    for i in range(len(side)):
        j = (i + 1) % len(side)
        moved = _rotate_align(side[i], tangents[i], tangents[j])
        sin = float(np.dot(np.cross(moved, side[j]), tangents[j]))
        cos = float(np.dot(moved, side[j]))
        total += math.atan2(sin, cos)
    return total / (2.0 * math.pi)


def _seeded_framed_polylines():
    rng = np.random.default_rng(7)
    for samples in (8, 9, 40, 200):
        pts = np.cumsum(rng.normal(size=(samples, 3)), axis=0)
        yield make_param_curve(pts, np.cross(np.roll(pts, -1, axis=0) - pts,
                                             rng.normal(size=(samples, 3))))
    # Straight runs: consecutive tangents are parallel and not rotated.
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0]])
    square = np.concatenate([corners[k] + np.outer(np.arange(5) / 5.0,
                                                   corners[(k + 1) % 4] - corners[k])
                             for k in range(4)])
    yield make_param_curve(square, [0.0, 0.0, 1.0] + 0.3 * rng.normal(size=square.shape))


def test_twist_turns_match_the_stepwise_loop():
    curves = [twisted_circle(256, turns) for turns in range(-2, 3)]
    curves += [frenet_framing(torus_knot(512)), frenet_framing(torus_knot(300, 2, 5)),
               blackboard_framing(torus_knot(512)), *_seeded_framed_polylines()]
    for c in curves:
        assert abs(framing_twist_turns(c) - _looped_twist_turns(c)) <= 1e-12


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
