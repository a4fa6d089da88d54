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

# The integrals hold 8 bytes per segment pair at once: 32 MB for two
# 2048-sample curves.
MAX_SEGMENT_PAIRS = 2048 * 2048

# Segment midpoints closer than this are treated as a collision.
INTERSECTION_TOLERANCE = 1e-8

# Larger coordinates and push-offs are refused: up to it, the integrand's
# triple products and cubed separations stay below 1.5e302, far from the
# float maximum 1.8e308; past about 1e102 they overflow and the integral
# reads 0 or nan.
COORDINATE_LIMIT = 1e100

_TINY = 1e-12


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


def _segments(pts: np.ndarray):
    ahead = np.roll(pts, -1, axis=0)
    return 0.5 * (pts + ahead), ahead - pts


def _gauss_integral(pts1: np.ndarray, pts2: np.ndarray, self_pairs=False) -> float:
    """Midpoint-rule Gauss integral over all segment pairs, 32 rows at a time
    with the operations of the stacked cross/einsum form (so the same bits).
    Collisions raise; with ``self_pairs`` a segment's pair with itself is
    exempt (its separation is set to 1.0) and adds +0.0, since its
    difference vector and cross product are exactly +0.0."""
    cols1 = np.hstack(_segments(pts1))[:, :, None].transpose(1, 0, 2)
    x2, y2, z2, u2, v2, w2 = np.hstack(_segments(pts2)).T
    out = np.empty((len(pts1), len(pts2)))
    for s in range(0, len(pts1), 32):  # blocks that stay in cache
        x1, y1, z1, u1, v1, w1 = cols1[:, s:s + 32]
        dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
        dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
        if self_pairs:
            np.fill_diagonal(dist[:, s:], 1.0)
        if float(dist.min()) < INTERSECTION_TOLERANCE:
            raise CurvesIntersect("curves pass within the collision tolerance")
        out[s:s + 32] = ((dx * (v1 * w2 - w1 * v2) + dz * (u1 * v2 - v1 * u2))
                         + dy * (w1 * u2 - u1 * w2)) / dist**3
    return float(out.sum()) / (4.0 * math.pi)


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


def _rotate_align(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply to v the minimal rotation taking unit vector a to unit vector b."""
    axis = np.cross(a, b)
    sin = float(np.linalg.norm(axis))
    cos = float(np.dot(a, b))
    if sin < _TINY:
        return v
    k = axis / sin
    return v * cos + np.cross(k, v) * sin + k * float(np.dot(k, v)) * (1.0 - cos)


def framing_twist_turns(c: ParamCurve) -> float:
    """Total rotation of the framing about the tangent, in full turns.

    Measured against parallel transport of the normal plane, so for a
    principal-normal framing this is the total torsion over 2 pi.
    """
    if c.framing is None:
        raise ParseError("framing_twist_turns needs a framed curve")
    tangents = _unit_tangents(c.points)
    side = c.framing - np.einsum("ij,ij->i", c.framing, tangents)[:, None] * tangents
    side = side / np.linalg.norm(side, axis=1)[:, None]
    count = len(side)
    total = 0.0
    for i in range(count):
        j = (i + 1) % count
        moved = _rotate_align(side[i], tangents[i], tangents[j])
        sin = float(np.dot(np.cross(moved, side[j]), tangents[j]))
        cos = float(np.dot(moved, side[j]))
        total += math.atan2(sin, cos)
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
