"""Soft multi-instance metric over confidence-weighted polyline sets.

Each instance carries an existence confidence in [0, 1]. Matched pairs pay
a confidence-weighted normalized geometric cost plus half the confidence
gap; unmatched instances pay half their confidence. The optimal matching is
a plain 2-D assignment problem because matching never costs more than
leaving both sides unmatched. The total splits into a localization part
(geometry over matched pairs) and a detection part (confidence mismatch,
misses, and false alarms).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .assignment import solve_assignment
from .errors import InputError
from .geometry import MetricParams, Polyline
from .sospa import normalized_from_value, sospa_directional_min

ORACLE_MAX_SIZE = 6


@dataclass
class Instance:
    """One predicted or ground-truth map element."""

    confidence: float
    geometry: Polyline
    class_label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise InputError(f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass
class InstanceSet:
    """A collection of instances of one class; the unit the metric compares."""

    instances: list[Instance] = field(default_factory=list)

    @property
    def existence_mass(self) -> float:
        return math.fsum(inst.confidence for inst in self.instances)

    def __len__(self) -> int:
        return len(self.instances)


@dataclass
class MatchedPair:
    """One matched instance pair with its normalized base distance."""

    i: int
    j: int
    base_distance: float
    used_reversal: bool


@dataclass
class DapResult:
    """Metric value, its localization/detection split, and the normalized forms."""

    value: float
    loc_error: float
    det_error: float
    normalized_value: float
    normalized_loc: float
    normalized_det: float
    assignment: list[MatchedPair]


@dataclass
class DapAggregate:
    """Per-class mean of normalized results; consumable by :func:`mdap`."""

    normalized_value: float
    normalized_loc: float
    normalized_det: float


@dataclass
class MeanDap:
    """Class-wise means of the normalized metric and its two components."""

    mdap: float
    mloc: float
    mdet: float


def pair_base_distance(a: Polyline, b: Polyline, params: MetricParams) -> tuple[float, bool]:
    """Normalized sequence distance between two geometries with direction handling.

    Open pairs take the minimum over the two traversal directions, closed
    pairs additionally minimize over rotations. A mixed open/closed pair is
    scored as the maximal mismatch 1.0 so it is never preferred over
    leaving both instances unmatched. So is a far pair, whose every point
    cost ``d**p`` exceeds ``c**p`` by the rounding margin of
    :func:`~mapscore.sospa.no_match_pays`: no match can pay there. For an
    open far pair the sequence solver returns the empty assignment without
    running the DP; a closed far pair still runs the rotation scan.
    """
    if a.closed != b.closed:
        return 1.0, False
    res = sospa_directional_min(a, b, params)
    return normalized_from_value(res.value, len(a), len(b), params), res.used_reversal


def _check_single_class(x: InstanceSet, y: InstanceSet) -> None:
    labels = {inst.class_label for inst in x.instances} | {inst.class_label for inst in y.instances}
    if len(labels) > 1:
        raise InputError(f"instance sets mix classes: {sorted(labels)}")


def _set_key(s: InstanceSet) -> tuple:
    blob = b"".join(
        inst.geometry.points.tobytes()
        + bytes([inst.geometry.closed])
        + float(inst.confidence).hex().encode()
        for inst in s.instances
    )
    return (len(s.instances), blob)


def _base_matrix(
    x: InstanceSet, y: InstanceSet, params: MetricParams
) -> tuple[list[list[float]], list[list[bool]]]:
    dbar = [[0.0] * len(y) for _ in range(len(x))]
    rev = [[False] * len(y) for _ in range(len(x))]
    for i, xi in enumerate(x.instances):
        for j, yj in enumerate(y.instances):
            dbar[i][j], rev[i][j] = pair_base_distance(xi.geometry, yj.geometry, params)
    return dbar, rev


def _assemble(
    x: InstanceSet,
    y: InstanceSet,
    pairs: list[tuple[int, int]],
    dbar: list[list[float]],
    rev: list[list[bool]],
    params: MetricParams,
) -> DapResult:
    p = params.exponent_p
    matched_x = {i for i, _ in pairs}
    matched_y = {j for _, j in pairs}
    loc_terms = []
    det_terms = []
    assignment = []
    for i, j in pairs:
        ri = x.instances[i].confidence
        rj = y.instances[j].confidence
        d = dbar[i][j]
        loc_terms.append(min(ri, rj) * (d if p == 1.0 else d**p))
        det_terms.append(0.5 * abs(ri - rj))
        assignment.append(MatchedPair(i, j, d, rev[i][j]))
    det_terms.extend(
        0.5 * inst.confidence for k, inst in enumerate(x.instances) if k not in matched_x
    )
    det_terms.extend(
        0.5 * inst.confidence for k, inst in enumerate(y.instances) if k not in matched_y
    )
    loc = math.fsum(loc_terms)
    det = math.fsum(det_terms)
    raw = loc + det
    value = raw if p == 1.0 else raw ** (1.0 / p)

    mass = 0.5 * (x.existence_mass + y.existence_mass)
    if mass == 0.0 and value == 0.0:
        normalized_value = normalized_loc = normalized_det = 0.0
    else:
        denom_value = (mass if p == 1.0 else mass ** (1.0 / p)) + value
        normalized_value = min(1.0, 2.0 * value / denom_value)
        # The component normalization is the p = 1 identity split; for p > 1
        # the two shares no longer sum to the normalized value.
        denom_split = mass + value
        normalized_loc = 2.0 * loc / denom_split
        normalized_det = 2.0 * det / denom_split
    return DapResult(
        value=value,
        loc_error=loc,
        det_error=det,
        normalized_value=normalized_value,
        normalized_loc=normalized_loc,
        normalized_det=normalized_det,
        assignment=assignment,
    )


def _mirror_result(result: DapResult) -> DapResult:
    result.assignment = sorted(
        (MatchedPair(pair.j, pair.i, pair.base_distance, pair.used_reversal) for pair in result.assignment),
        key=lambda pair: (pair.i, pair.j),
    )
    return result


def _solve(x: InstanceSet, y: InstanceSet, params: MetricParams) -> DapResult:
    dbar, rev = _base_matrix(x, y, params)
    p = params.exponent_p
    net = [
        [
            min(x.instances[i].confidence, y.instances[j].confidence)
            * ((dbar[i][j] if p == 1.0 else dbar[i][j] ** p) - 1.0)
            for j in range(len(y))
        ]
        for i in range(len(x))
    ]
    if len(x) == 0 or len(y) == 0:
        pairs: list[tuple[int, int]] = []
    else:
        # Net costs are never positive, so ties at zero resolve toward matching.
        pairs, _ = solve_assignment(net, include_zero_cost=True)
    return _assemble(x, y, pairs, dbar, rev, params)


def dap(x: InstanceSet, y: InstanceSet, params: MetricParams) -> DapResult:
    """Soft multi-instance metric between two instance sets of one class.

    The sets are ordered canonically inside, making the result exactly
    symmetric; reported pair indices always follow the caller's order.
    """
    _check_single_class(x, y)
    if _set_key(y) < _set_key(x):
        return _mirror_result(_solve(y, x, params))
    return _solve(x, y, params)


def dap_bruteforce_oracle(x: InstanceSet, y: InstanceSet, params: MetricParams) -> DapResult:
    """Exhaustive minimum over every assignment set; validation only.

    Ties between equal-cost assignments resolve toward the larger matched
    count (the matched convention), then lexicographically.
    """
    _check_single_class(x, y)
    n, m = len(x), len(y)
    if n > ORACLE_MAX_SIZE or m > ORACLE_MAX_SIZE:
        raise InputError(f"oracle refuses instance sets larger than {ORACLE_MAX_SIZE}")
    dbar, rev = _base_matrix(x, y, params)
    p = params.exponent_p
    conf_x = [inst.confidence for inst in x.instances]
    conf_y = [inst.confidence for inst in y.instances]
    half_mass = 0.5 * (math.fsum(conf_x) + math.fsum(conf_y))

    best_raw = math.inf
    best_pairs: tuple[tuple[int, int], ...] = ()
    for k in range(min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                terms = []
                for i, j in zip(rows, cols):
                    d = dbar[i][j]
                    terms.append(
                        min(conf_x[i], conf_y[j]) * (d if p == 1.0 else d**p)
                        + 0.5 * abs(conf_x[i] - conf_y[j])
                        - 0.5 * (conf_x[i] + conf_y[j])
                    )
                raw = half_mass + math.fsum(terms)
                pairs = tuple(sorted(zip(rows, cols)))
                better = raw < best_raw
                tie = raw == best_raw and (
                    len(pairs) > len(best_pairs) or (len(pairs) == len(best_pairs) and pairs < best_pairs)
                )
                if better or tie:
                    best_raw = raw
                    best_pairs = pairs
    return _assemble(x, y, list(best_pairs), dbar, rev, params)


def mdap(per_class) -> MeanDap:
    """Arithmetic mean of per-class normalized results.

    Accepts any mapping from class name to an object exposing
    ``normalized_value`` / ``normalized_loc`` / ``normalized_det`` (for
    example :class:`DapResult` or :class:`DapAggregate`).
    """
    if not per_class:
        raise InputError("at least one class is required")
    count = len(per_class)
    return MeanDap(
        mdap=math.fsum(agg.normalized_value for agg in per_class.values()) / count,
        mloc=math.fsum(agg.normalized_loc for agg in per_class.values()) / count,
        mdet=math.fsum(agg.normalized_det for agg in per_class.values()) / count,
    )
