"""Gauss linking, writhe, and framing twist for polyline curves.

This is the only floating-point module in the package.  Curves are
closed polylines sampled at discrete points; every integral is a
midpoint-rule sum over segment pairs, which is plenty at the loose
tolerances the numbers are consumed at.  Nothing computed here feeds
back into the exact-arithmetic layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvesIntersect, ParseError, check_size, load_json

MIN_POINTS = 8

# A bound on time, not memory: the integrals hold O(N + M) floats for N x M
# segment pairs of any shape (1.4 MB traced at 2048 x 2048), and two
# 2048-sample curves take about 0.08 s (0.24 s at 4096 x 4096).
MAX_SEGMENT_PAIRS = 2048 * 2048

# Segment midpoints closer than this are treated as a collision.
INTERSECTION_TOLERANCE = 1e-8

# Larger coordinates and push-offs are refused: up to it, the integrand's
# triple products and cubed separations stay below 1.5e302, far from the
# float maximum 1.8e308; past about 1e102 they overflow and the integral
# reads 0 or nan.
COORDINATE_LIMIT = 1e100

_TINY = 1e-12

# Segment pairs per leaf of the Gauss sum: its work buffers fill 9 x 128 KB.
_LEAF = 1 << 14


@dataclass(frozen=True, eq=False)
class ParamCurve:
    """Closed polyline with an optional unit-normal framing per point.

    The segment from the last point back to the first is implicit.
    """

    points: np.ndarray
    framing: np.ndarray | None = None


def make_param_curve(points, framing=None) -> ParamCurve:
    """Validate and normalize raw point (and framing) data.

    Framing vectors are rescaled to unit length; they must be nonzero
    and must not be parallel to the local tangent.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParseError("points must be an N x 3 array")
    if pts.shape[0] < MIN_POINTS:
        raise ParseError(f"need at least {MIN_POINTS} points, got {pts.shape[0]}")
    if not np.all(np.abs(pts) <= COORDINATE_LIMIT):  # nan fails too
        raise ParseError(f"points must be finite, at most {COORDINATE_LIMIT:g}")
    steps = np.roll(pts, -1, axis=0) - pts
    if float(np.linalg.norm(steps, axis=1).min()) < _TINY:
        raise ParseError("consecutive points must be distinct")
    if framing is None:
        return ParamCurve(pts, None)
    frame = np.asarray(framing, dtype=float)
    if frame.shape != pts.shape:
        raise ParseError("framing must match points in shape")
    if not np.all(np.isfinite(frame)):
        raise ParseError("framing must be finite")
    norms = np.linalg.norm(frame, axis=1)
    if float(norms.min()) < _TINY:
        raise ParseError("framing vectors must be nonzero")
    frame = frame / norms[:, None]
    tangents = _unit_tangents(pts)
    if float(np.linalg.norm(np.cross(frame, tangents), axis=1).min()) < 1e-9:
        raise ParseError("framing vectors must not be tangent to the curve")
    return ParamCurve(pts, frame)


def _unit_tangents(pts: np.ndarray) -> np.ndarray:
    diff = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    return diff / np.linalg.norm(diff, axis=1)[:, None]


def _segments(pts: np.ndarray) -> np.ndarray:
    """Midpoints and steps of the closed polyline as six contiguous rows
    x, y, z, u, v, w, one column per segment."""
    ahead = np.roll(pts, -1, axis=0).T
    out = np.empty((6, len(pts)))
    np.add(pts.T, ahead, out=out[:3])
    np.multiply(out[:3], 0.5, out=out[:3])
    np.subtract(ahead, pts.T, out=out[3:])
    return out


def _pairwise_sum(start: int, count: int, leaf) -> float:
    """numpy's pairwise sum of items [start, start + count) of a flat
    sequence, from ``leaf(start, count)`` sums of at most ``_LEAF`` items:
    the same split as ``pairwise_sum`` in numpy's add loop, so the same
    bits as ``ndarray.sum()`` of the whole sequence."""
    if count <= _LEAF:
        return leaf(start, count)
    half = count // 2
    half -= half % 8
    return (_pairwise_sum(start, half, leaf)
            + _pairwise_sum(start + half, count - half, leaf))


def _gauss_integral(pts1: np.ndarray, pts2: np.ndarray, self_pairs=False) -> float:
    """Midpoint-rule Gauss integral over all segment pairs (i, j), flattened
    as i * len(pts2) + j and summed as ``ndarray.sum()`` sums that array,
    bit for bit, but one leaf of at most ``_LEAF`` pairs at a time in work
    buffers allocated once: memory O(N + M + _LEAF) for N x M pairs.

    Each leaf takes its rows whole and the columns of the rows it cuts, with
    the elementwise operations of the stacked cross/einsum form.  Collisions
    raise; with ``self_pairs`` a segment's pair with itself is exempt (its
    separation is set to 1.0) and adds +0.0, since its difference vector and
    cross product are exactly +0.0."""
    rows = _segments(pts1)[:, :, None]
    cols = _segments(pts2)
    width = len(pts2)
    work = np.empty((9, min(_LEAF, len(pts1) * width)))

    def piece(r0, r1, c0, c1, at):
        shape = (r1 - r0, c1 - c0)
        dx, dy, dz, p1, p2, p3, p4, p5, p6 = (
            w[at:at + shape[0] * shape[1]].reshape(shape) for w in work)
        x1, y1, z1, u1, v1, w1 = (a[r0:r1] for a in rows)
        x2, y2, z2, u2, v2, w2 = (a[c0:c1] for a in cols)
        np.subtract(x1, x2, out=dx)
        np.subtract(y1, y2, out=dy)
        np.subtract(z1, z2, out=dz)
        np.multiply(v1, w2, out=p1)
        np.multiply(w1, v2, out=p2)
        np.multiply(u1, v2, out=p3)
        np.multiply(v1, u2, out=p4)
        np.multiply(w1, u2, out=p5)
        np.multiply(u1, w2, out=p6)
        return at + shape[0] * shape[1]

    def leaf(start, count):
        row, col = divmod(start, width)
        end_row, end_col = divmod(start + count, width)
        if row == end_row:
            piece(row, row + 1, col, end_col, 0)
        else:
            at = 0
            if col:
                at = piece(row, row + 1, col, width, at)
                row += 1
            if row < end_row:
                at = piece(row, end_row, 0, width, at)
            if end_col:
                piece(end_row, end_row + 1, 0, end_col, at)
        dx, dy, dz, p1, p2, p3, p4, p5, p6 = work[:, :count]
        # p1, p3, p5: the cross product of the steps; p2: the separation
        np.subtract(p1, p2, out=p1)
        np.subtract(p3, p4, out=p3)
        np.subtract(p5, p6, out=p5)
        np.multiply(dx, dx, out=p2)
        np.multiply(dy, dy, out=p4)
        np.add(p2, p4, out=p2)
        np.multiply(dz, dz, out=p4)
        np.add(p2, p4, out=p2)
        np.sqrt(p2, out=p2)
        if self_pairs:
            p2[-start % (width + 1)::width + 1] = 1.0
        if float(p2.min()) < INTERSECTION_TOLERANCE:
            raise CurvesIntersect("curves pass within the collision tolerance")
        np.multiply(dx, p1, out=p1)
        np.multiply(dz, p3, out=p3)
        np.add(p1, p3, out=p1)
        np.multiply(dy, p5, out=p5)
        np.add(p1, p5, out=p1)
        np.power(p2, 3, out=p2)
        np.divide(p1, p2, out=p1)
        return float(np.add.reduce(p1))

    return _pairwise_sum(0, len(pts1) * width, leaf) / (4.0 * math.pi)


def gauss_linking(c1: ParamCurve, c2: ParamCurve) -> float:
    """Linking number of two disjoint curves by the Gauss double integral.

    Midpoint rule over all segment pairs of
    (1/4pi) (r1 - r2) . (dr1 x dr2) / |r1 - r2|^3.
    """
    check_size("segment pair count", len(c1.points) * len(c2.points),
               MAX_SEGMENT_PAIRS)
    return _gauss_integral(c1.points, c2.points)


def framed_self_linking(c: ParamCurve, epsilon: float) -> float:
    """Linking of a framed curve with its push-off along the framing."""
    if c.framing is None:
        raise ParseError("framed_self_linking needs a framed curve")
    if not abs(epsilon) <= COORDINATE_LIMIT:
        raise ParseError(f"push-off must be at most {COORDINATE_LIMIT:g}")
    displaced = ParamCurve(c.points + epsilon * c.framing, None)
    return gauss_linking(c, displaced)


def writhe_integral(c: ParamCurve) -> float:
    """Gauss self-integral with the diagonal segment pairs dropped."""
    check_size("segment pair count", len(c.points) ** 2, MAX_SEGMENT_PAIRS)
    return _gauss_integral(c.points, c.points, self_pairs=True)


def frenet_framing(c: ParamCurve) -> ParamCurve:
    """The same curve reframed by its principal normals.

    Fails when the discrete curvature vanishes somewhere, since the
    principal normal is undefined there.
    """
    pts = c.points
    ahead = np.roll(pts, -1, axis=0)
    behind = np.roll(pts, 1, axis=0)
    tangents = _unit_tangents(pts)
    bend = ahead - 2.0 * pts + behind
    normal = bend - np.einsum("ij,ij->i", bend, tangents)[:, None] * tangents
    norms = np.linalg.norm(normal, axis=1)
    if float(norms.min()) < _TINY:
        raise ParseError("curvature vanishes; principal normal undefined")
    return make_param_curve(pts, normal / norms[:, None])


def blackboard_framing(c: ParamCurve) -> ParamCurve:
    """Reframe by the horizontal normal of the xy-plane projection.

    Pushing off along this framing reproduces the diagram writhe of the
    projection, provided the tangent is never vertical.
    """
    tangents = _unit_tangents(c.points)
    axis = np.array([0.0, 0.0, 1.0])
    frame = np.cross(np.broadcast_to(axis, tangents.shape), tangents)
    norms = np.linalg.norm(frame, axis=1)
    if float(norms.min()) < 1e-9:
        raise ParseError("tangent is vertical somewhere; no horizontal normal")
    return make_param_curve(c.points, frame / norms[:, None])


def framing_twist_turns(c: ParamCurve) -> float:
    """Total rotation of the framing about the tangent, in full turns.

    Measured against parallel transport of the normal plane, so for a
    principal-normal framing this is the total torsion over 2 pi.  Each
    step transports the framing by the minimal rotation taking one tangent
    to the next (none where they are parallel), all steps at once.
    """
    if c.framing is None:
        raise ParseError("framing_twist_turns needs a framed curve")
    tangents = _unit_tangents(c.points)
    side = c.framing - np.einsum("ij,ij->i", c.framing, tangents)[:, None] * tangents
    side = side / np.linalg.norm(side, axis=1)[:, None]
    ahead, side_ahead = np.roll(tangents, -1, axis=0), np.roll(side, -1, axis=0)
    axis = np.cross(tangents, ahead)
    sin = np.linalg.norm(axis, axis=1)[:, None]
    cos = np.einsum("ij,ij->i", tangents, ahead)[:, None]
    still = sin < _TINY
    k = axis / np.where(still, 1.0, sin)
    moved = (side * cos + np.cross(k, side) * sin
             + k * np.einsum("ij,ij->i", k, side)[:, None] * (1.0 - cos))
    moved = np.where(still, side, moved)
    sines = np.einsum("ij,ij->i", np.cross(moved, side_ahead), ahead)
    cosines = np.einsum("ij,ij->i", moved, side_ahead)
    total = 0.0
    for y, x in zip(sines.tolist(), cosines.tolist()):
        total += math.atan2(y, x)
    return total / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

_PLANES = {
    "xy": (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    "xz": (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    "yz": (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
}


def _angles(samples: int) -> np.ndarray:
    """Parameters of a built-in curve; refused before anything is allocated
    when its Gauss self-integral would be."""
    check_size("segment pair count", samples * samples, MAX_SEGMENT_PAIRS)
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


def unit_circle(samples: int, *, center=(0.0, 0.0, 0.0), plane: str = "xy") -> ParamCurve:
    if plane not in _PLANES:
        raise ParseError(f"unknown plane {plane!r}")
    e1, e2 = _PLANES[plane]
    angles = _angles(samples)
    pts = (np.asarray(center, dtype=float)
           + np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2))
    return make_param_curve(pts)


def hopf_pair(samples: int) -> tuple[ParamCurve, ParamCurve]:
    """Two unit circles linked once: one in the xy-plane at the origin,
    one in the xz-plane through its center."""
    return (unit_circle(samples),
            unit_circle(samples, center=(1.0, 0.0, 0.0), plane="xz"))


def twisted_circle(samples: int, turns: int) -> ParamCurve:
    """Planar unit circle framed by a normal field making `turns` full
    turns; its framed self-linking is `turns`.  Zero turns gives the
    constant vertical framing."""
    angles = _angles(samples)
    pts = np.stack([np.cos(angles), np.sin(angles), np.zeros(samples)], axis=1)
    radial = np.stack([np.cos(angles), np.sin(angles), np.zeros(samples)], axis=1)
    vertical = np.broadcast_to(np.array([0.0, 0.0, 1.0]), pts.shape)
    phase = turns * angles
    frame = (np.cos(phase)[:, None] * vertical + np.sin(phase)[:, None] * radial)
    return make_param_curve(pts, frame)


def torus_knot(samples: int, p: int = 2, q: int = 3) -> ParamCurve:
    """(p, q) curve on the torus of radii 2 and 1, trefoil by default.

    Oriented so the default knot has diagram writhe +3 under the
    xy-plane projection, matching its positive-crossing braid picture.
    """
    if math.gcd(p, q) != 1:
        raise ParseError("p and q must be coprime")
    t = _angles(samples)
    radius = 2.0 + np.cos(q * t)
    pts = np.stack([radius * np.cos(p * t), radius * np.sin(p * t),
                    -np.sin(q * t)], axis=1)
    return make_param_curve(pts)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def curve_to_json(c: ParamCurve) -> str:
    payload: dict = {"points": c.points.tolist()}
    if c.framing is not None:
        payload["framing"] = c.framing.tolist()
    return json.dumps(payload)


def _curve_from_payload(payload) -> ParamCurve:
    if not isinstance(payload, dict) or "points" not in payload:
        raise ParseError("curve JSON must be an object with a points field")
    try:
        return make_param_curve(payload["points"], payload.get("framing"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad curve data: {exc}") from None


def curves_from_json(text: str) -> tuple[ParamCurve, ...]:
    """One curve object, or a list of them, from a JSON document."""
    payload = load_json(text, "curve")
    if isinstance(payload, list):
        if not payload:
            raise ParseError("curve list is empty")
        return tuple(_curve_from_payload(item) for item in payload)
    return (_curve_from_payload(payload),)
