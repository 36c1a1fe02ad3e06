"""Comparison baselines: Chamfer distance, discrete Frechet distance, and thresholded AP.

Chamfer is the symmetric mean of nearest-neighbor distances between the two
point sets (the convention used by the vectorized-mapping benchmarks it is
compared against). AP classifies predictions into TP/FP by greedy
confidence-ordered matching against ground truth under a distance
threshold, then takes the exact area under the all-point-interpolated
precision-recall curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dp import cross_distances, frechet_table
from .errors import InputError
from .geometry import Polyline

AP_BASES = ("chamfer", "frechet")


@dataclass
class ApConfig:
    """Threshold sweep for one AP family."""

    thresholds: tuple[float, ...]
    base: str = "chamfer"

    def __post_init__(self) -> None:
        self.thresholds = tuple(float(t) for t in self.thresholds)
        if not self.thresholds:
            raise InputError("at least one threshold is required")
        if any(t <= 0 or not math.isfinite(t) for t in self.thresholds):
            raise InputError("thresholds must be finite and > 0")
        if any(b >= a for a, b in zip(self.thresholds[1:], self.thresholds)):
            raise InputError("thresholds must be strictly increasing")
        if self.base not in AP_BASES:
            raise InputError(f"unsupported base {self.base!r}")


def _point_array(line: Polyline | np.ndarray, name: str) -> np.ndarray:
    pts = line.points if isinstance(line, Polyline) else np.asarray(line, dtype=np.float64)
    if len(pts) == 0:
        raise InputError(f"{name} must be non-empty")
    return pts


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return cross_distances(a, b)


def chamfer(x: Polyline, y: Polyline) -> float:
    """Symmetric mean-of-minimum point distance between two point sets."""
    a = _point_array(x, "x")
    b = _point_array(y, "y")
    dists = _cross_distances(a, b)
    return 0.5 * (float(dists.min(axis=1).mean()) + float(dists.min(axis=0).mean()))


def frechet_discrete(x: Polyline, y: Polyline, *, cyclic: bool = False) -> float:
    """Discrete Frechet distance; with ``cyclic`` the minimum over rotations of ``y``."""
    a = _point_array(x, "x")
    b = _point_array(y, "y")
    dists = _cross_distances(a, b)
    if not cyclic:
        return float(frechet_table(dists)[-1, -1])
    m = len(b)
    doubled = np.concatenate([dists, dists], axis=1)
    return min(float(frechet_table(np.ascontiguousarray(doubled[:, s:s + m]))[-1, -1]) for s in range(m))


def pair_distance(x: Polyline, y: Polyline, base: str) -> float:
    """Base distance used by the AP matcher; rotation search kicks in for polygon pairs."""
    if base == "chamfer":
        return chamfer(x, y)
    if base == "frechet":
        return frechet_discrete(x, y, cyclic=x.closed and y.closed and len(y) > 1)
    raise InputError(f"unsupported base {base!r}")


def match_predictions(
    predictions: list[tuple[float, Polyline]],
    ground_truth: list[Polyline],
    base: str,
    threshold: float,
) -> list[tuple[float, bool]]:
    """Greedy confidence-ordered TP/FP classification for one sample.

    Each prediction, visited by descending confidence (ties keep input
    order), matches the nearest still-unmatched ground-truth geometry if
    that distance is within the threshold.
    """
    order = sorted(range(len(predictions)), key=lambda k: -predictions[k][0])
    distances = [
        [pair_distance(geom, gt, base) for gt in ground_truth] for _, geom in predictions
    ]
    taken = [False] * len(ground_truth)
    records = []
    for k in order:
        conf = predictions[k][0]
        best_j = -1
        best_d = math.inf
        for j, d in enumerate(distances[k]):
            if not taken[j] and d < best_d:
                best_d = d
                best_j = j
        if best_j >= 0 and best_d <= threshold:
            taken[best_j] = True
            records.append((conf, True))
        else:
            records.append((conf, False))
    return records


def ap_from_records(records: list[tuple[float, bool]], gt_count: int) -> float:
    """Exact area under the all-point-interpolated precision-recall curve.

    With no ground truth the score is 1.0 for an empty prediction list and
    0.0 otherwise.
    """
    if gt_count == 0:
        return 1.0 if not records else 0.0
    if not records:
        return 0.0
    ordered = sorted(range(len(records)), key=lambda k: -records[k][0])
    tp = np.cumsum([1.0 if records[k][1] else 0.0 for k in ordered])
    fp = np.cumsum([0.0 if records[k][1] else 1.0 for k in ordered])
    recall = tp / gt_count
    precision = tp / np.maximum(tp + fp, 1e-300)

    mrec = np.concatenate([[0.0], recall, [recall[-1]]])
    mpre = np.concatenate([[1.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def average_precision(
    predictions: list[tuple[float, Polyline]],
    ground_truth: list[Polyline],
    config: ApConfig,
    threshold: float,
) -> float:
    """AP of one sample at a single threshold under the configured base distance."""
    records = match_predictions(predictions, ground_truth, config.base, threshold)
    return ap_from_records(records, len(ground_truth))


def mean_ap(per_class_per_threshold: dict[str, dict[float, float]]) -> float:
    """Mean over thresholds within each class, then mean over classes."""
    if not per_class_per_threshold:
        raise InputError("at least one class is required")
    class_means = []
    for name, by_threshold in per_class_per_threshold.items():
        if not by_threshold:
            raise InputError(f"class {name!r} has no threshold entries")
        class_means.append(math.fsum(by_threshold.values()) / len(by_threshold))
    return math.fsum(class_means) / len(class_means)
