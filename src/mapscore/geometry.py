"""Planar point sequences: polylines, polygons, resampling, and the base point metric.

Coordinates are meters. Everything is dimension-generic even though the
shipped workflows only ever use 2-D points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Two stored points closer than this are considered the same vertex when
# stripping a duplicated polygon closing point.
DUPLICATE_TOL = 1e-9


@dataclass
class MetricParams:
    """Parameters shared by the whole metric family.

    ``cutoff_c`` caps the useful per-point match cost and fixes the penalty
    ``cutoff_c**p / 2`` charged for every unmatched point. ``exponent_p``
    controls how strongly large matched deviations are punished.
    """

    cutoff_c: float = 1.5
    exponent_p: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cutoff_c) and self.cutoff_c > 0):
            raise InputError(f"cutoff_c must be finite and > 0, got {self.cutoff_c}")
        if not (1.0 <= self.exponent_p and math.isfinite(self.exponent_p)):
            raise InputError(f"exponent_p must satisfy 1 <= p < inf, got {self.exponent_p}")

    @property
    def unmatched_cost(self) -> float:
        """Cost of leaving one point unmatched: cutoff_c**p / 2."""
        return self.cutoff_c**self.exponent_p / 2.0

    def power_bound(self, n_x: int, n_y: int) -> float:
        """Cost of the empty assignment, i.e. every point unmatched."""
        return self.unmatched_cost * (n_x + n_y)

    def require_finite_bound(self, n_x: int, n_y: int) -> None:
        """Reject sizes whose doubled empty-assignment cost overflows.

        The factor two keeps the DP's sequential gap sums, which exceed the
        bound by rounding only, and the normalization's ``bound + value``
        finite.
        """
        if not math.isfinite(2.0 * self.power_bound(n_x, n_y)):
            raise InputError(f"cutoff_c={self.cutoff_c!r} overflows the metric of {n_x} + {n_y} points")


@dataclass(eq=False)
class Polyline:
    """Ordered sequence of points; ``closed=True`` marks a polygon.

    Points are stored as an ``(n, dim)`` float64 array and the order is
    semantically meaningful. For polygons a duplicated closing vertex is
    dropped on construction. An empty *open* polyline is allowed as a
    degenerate input to the sequence metrics (it arises when instances
    degenerate, e.g. after clipping).
    """

    points: np.ndarray
    closed: bool = False

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[-1] if pts.ndim == 2 else 2)
        if pts.ndim != 2:
            raise InputError(f"points must have shape (n, dim), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InputError("polyline coordinates must all be finite")
        if self.closed:
            if len(pts) < 1:
                raise InputError("a closed polyline needs at least one point")
            if len(pts) >= 2 and float(np.linalg.norm(pts[0] - pts[-1])) < DUPLICATE_TOL:
                pts = pts[:-1]
        self.points = pts

    @classmethod
    def _trusted(cls, points: np.ndarray, closed: bool) -> "Polyline":
        # Internal constructor for points that were already validated; skips
        # the closing-point strip so permutations preserve the multiset.
        obj = cls.__new__(cls)
        obj.points = points
        obj.closed = closed
        return obj

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def point_distance(a, b) -> float:
    """Base point metric d(a, b): the Euclidean distance."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise InputError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise InputError("point coordinates must be finite")
    return float(np.linalg.norm(av - bv))


def _arc_lengths(path: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _interp_along(path: np.ndarray, arc: np.ndarray, positions: np.ndarray) -> np.ndarray:
    out = np.empty((len(positions), path.shape[1]))
    for d in range(path.shape[1]):
        out[:, d] = np.interp(positions, arc, path[:, d])
    return out


def resample_equidistant(line: Polyline, spacing: float) -> Polyline:
    """Resample a polyline at equal arc-length steps starting at its first vertex.

    Open polylines keep their terminal vertex unless it falls within
    ``spacing / 2`` of the last regular sample, so the geometry extent is
    never truncated by more than half a step. Closed polylines are sampled
    around the perimeter with the duplicate start omitted.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise InputError(f"spacing must be finite and > 0, got {spacing}")
    pts = line.points
    if line.closed:
        if len(pts) < 3:
            raise InputError("resampling a closed polyline requires >= 3 distinct points")
        path = np.vstack([pts, pts[:1]])
    else:
        if len(pts) < 2:
            raise InputError("resampling an open polyline requires >= 2 points")
        path = pts

    arc = _arc_lengths(path)
    total = float(arc[-1])
    if total <= 0.0:
        return Polyline(path[:1].copy(), closed=line.closed)

    if line.closed:
        count = max(1, math.ceil(total / spacing - 1e-9))
        positions = spacing * np.arange(count)
        return Polyline(_interp_along(path, arc, positions), closed=True)

    whole = math.floor(total / spacing + 1e-9)
    positions = spacing * np.arange(whole + 1)
    samples = _interp_along(path, arc, positions)
    residual = total - float(positions[-1])
    if residual >= spacing / 2.0 - 1e-12 and residual > 0.0:
        samples = np.vstack([samples, path[-1]])
    return Polyline(samples, closed=False)


def reverse(line: Polyline) -> Polyline:
    """Reverse the traversal order; the closed flag is preserved."""
    return Polyline._trusted(line.points[::-1].copy(), line.closed)


def cyclic_shift(line: Polyline, s: int) -> Polyline:
    """Rotate the start index of a polygon: output point k is input point k+s (mod n)."""
    if not line.closed:
        raise InputError("cyclic_shift is only defined for closed polylines")
    return Polyline._trusted(np.roll(line.points, -int(s), axis=0), True)
