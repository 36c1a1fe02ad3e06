"""Order-aware sequence metric for open polylines.

The metric is the minimum, over assignments whose index pairs strictly
increase in both sequences, of the summed point costs ``d(x_i, y_j)**p``
plus ``cutoff_c**p / 2`` per unmatched point, all raised to ``1/p``. The
minimization is the classic minimum-cost edit trace, solved here with the
Wagner-Fischer dynamic program; a brute-force enumeration over ordered
assignment sets is provided as an independent oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._dp import cross_distances, edit_backtrack, edit_table
from .errors import InputError
from .geometry import MetricParams, Polyline, reverse

ORACLE_MAX_LEN = 8


@dataclass(frozen=True)
class OrderedAssignment:
    """Matched index pairs, strictly increasing in both sequences (0-based)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last_i, last_j = -1, -1
        for i, j in self.pairs:
            if i <= last_i or j <= last_j:
                raise InputError("assignment pairs must strictly increase in both indices")
            last_i, last_j = i, j

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class SospaResult:
    """One metric evaluation: the value, its power-p cost, and an optimal assignment."""

    value: float
    raw_power_cost: float
    assignment: OrderedAssignment
    matched_count: int
    unmatched_count: int
    used_reversal: bool = False


def _require_open(line: Polyline, name: str) -> None:
    if line.closed:
        raise InputError(f"{name} must be an open polyline; use the cyclic variant for polygons")


def _power_costs(x: np.ndarray, y: np.ndarray, params: MetricParams) -> np.ndarray:
    if x.shape[1] != y.shape[1]:
        raise InputError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    params.require_finite_bound(len(x), len(y))
    dists = cross_distances(x, y)
    if params.exponent_p != 1.0:
        dists = dists**params.exponent_p
    return dists


def no_match_pays(costs: np.ndarray, gap: float) -> bool:
    """True when every cost exceeds ``2 * gap`` by a margin that makes the DP match nothing.

    A match trades two unmatched points, ``2 * gap``, for its cost, so in
    exact arithmetic no match pays once every cost exceeds ``2 * gap``. The
    DP sums in floating point, and this margin covers its rounding. The rule
    is only applied for a normal ``gap``, so that every rounding below,
    additions and the threshold's product alike, has a relative error of at
    most ``u``.

    Proof. Let ``N = n + m``, ``g = gap``, ``u = 2**-53``, and let
    ``s_0 = 0``, ``s_k = fl(s_{k-1} + g)`` be the sequential gap sums that
    fill the DP's first row and column. Say that ``fl(s_{k-2} + c) > s_k``
    for every cost ``c`` and ``2 <= k <= N``. Then, by induction over the
    cells, each cell ``(i, j)`` holds ``s_{i+j}``: its two gap candidates
    give ``s_{i+j}`` and its match candidate is larger. So the backtrack
    never finds the exact equality it needs to take a match, and it returns
    the empty assignment. Since ``fl`` is monotone, the smallest cost ``c``
    decides. Now bound the two sides:

    - ``s_k <= k g (1 + u)**k <= 1.001 k g``, because ``N < 2**40`` for any
      matrix that fits in memory, as ``n m >= N - 1``;
    - ``s_k <= (s_{k-2} + g)(1 + u)**2 + g (1 + u)
      = s_{k-2} + 2g + u (2 s_{k-2} + 3g) + u**2 (s_{k-2} + g)``;
    - ``fl(s_{k-2} + c) >= (s_{k-2} + c)(1 - u)``, or it is infinite.

    With ``s_{k-2} <= 1.001 (N - 2) g`` and ``N >= 2``, the condition holds
    whenever ``c > 2g + 6 N u g``. The threshold below is ``g (2 + 16 N u)``
    with two roundings, so it is at least ``2g + (16 N - 4.01) u g``, which
    is more than that. It also overflows before the sums do, so a finite
    ``N * threshold`` rules overflow out of the sums. Equality never
    prunes: at ``c == 2 * gap`` a first match ties the two gaps it replaces,
    ``0 + c == g + g``, and the backtrack breaks ties toward a match.
    """
    if costs.size == 0 or gap < sys.float_info.min:
        return False
    n, m = costs.shape
    threshold = gap * (2.0 + (n + m) * 2.0**-49)
    return math.isfinite((n + m) * threshold) and float(costs.min()) > threshold


def _geometry_key(line: Polyline) -> tuple:
    return (len(line), line.points.tobytes())


def _backtrack(table: np.ndarray, costs: np.ndarray, gap: float) -> list[tuple[int, int]]:
    # Ties prefer a match over skipping a point of x over skipping one of y,
    # which pins down the reported assignment; the value never depends on it.
    return [tuple(pair) for pair in edit_backtrack(table, costs, gap).tolist()]


def _assemble(
    pairs: list[tuple[int, int]],
    costs: np.ndarray,
    n_x: int,
    n_y: int,
    params: MetricParams,
) -> SospaResult:
    matched = len(pairs)
    unmatched = n_x + n_y - 2 * matched
    if pairs:
        rows, cols = zip(*pairs)
        subs = costs[list(rows), list(cols)].tolist()
    else:
        subs = []
    raw = math.fsum(subs) + params.unmatched_cost * unmatched
    p = params.exponent_p
    value = raw if p == 1.0 else raw ** (1.0 / p)
    return SospaResult(
        value=value,
        raw_power_cost=raw,
        assignment=OrderedAssignment(tuple(pairs)),
        matched_count=matched,
        unmatched_count=unmatched,
    )


def _solve_open(costs: np.ndarray, params: MetricParams) -> SospaResult:
    n, m = costs.shape
    gap = params.unmatched_cost
    if no_match_pays(costs, gap):
        return _assemble([], costs, n, m, params)
    costs = np.ascontiguousarray(costs)
    table = edit_table(costs, gap)
    pairs = _backtrack(table, costs, gap)
    return _assemble(pairs, costs, n, m, params)


def _mirror(result: SospaResult) -> SospaResult:
    result.assignment = OrderedAssignment(tuple(sorted((j, i) for i, j in result.assignment.pairs)))
    return result


def sospa(x: Polyline, y: Polyline, params: MetricParams, *, _costs: np.ndarray | None = None) -> SospaResult:
    """Sequence metric between two open polylines.

    Empty inputs are legal degenerate cases: with one side empty the value
    is ``((c**p / 2) * (|x| + |y|)) ** (1/p)``. The arguments are ordered
    canonically inside, so the function is exactly symmetric. When every
    point cost exceeds ``c**p``, twice the unmatched cost, by the margin of
    :func:`no_match_pays`, the result is the empty assignment, found
    without the DP. ``_costs`` is private to this package: the power-cost
    matrix of ``x`` against ``y``, passed by callers that already built it.
    """
    _require_open(x, "x")
    _require_open(y, "y")
    costs = _power_costs(x.points, y.points, params) if _costs is None else _costs
    if _geometry_key(y) < _geometry_key(x):
        return _mirror(_solve_open(costs.T, params))
    return _solve_open(costs, params)


def _direction_min(solve, x: Polyline, y: Polyline, params: MetricParams):
    """The better of ``solve`` on ``y`` and on ``reverse(y)``, from one cost matrix.

    ``solve`` is :func:`sospa` or :func:`~mapscore.cyclic.cyclic_sospa`. The
    reversed direction reads the matrix's columns backwards, a zero forward
    value skips it, and the forward result wins ties.
    """
    costs = _power_costs(x.points, y.points, params)
    forward = solve(x, y, params, _costs=costs)
    if forward.value == 0.0:
        return forward
    backward = solve(x, reverse(y), params, _costs=costs[:, ::-1])
    if backward.value < forward.value:
        backward.used_reversal = True
        return backward
    return forward


def sospa_directional_min(x: Polyline, y: Polyline, params: MetricParams) -> SospaResult:
    """Minimum of the metric over the two relative traversal directions.

    The forward evaluation wins ties, and ``used_reversal`` records whether
    the winning evaluation reversed one side. Closed inputs delegate to the
    cyclic variant. Both directions share one cost matrix; the reversed
    direction reads its columns backwards. A far pair, whose every point
    cost exceeds ``c**p`` by the margin of :func:`no_match_pays`, runs no DP:
    :func:`sospa` matches nothing in either direction, the forward result
    wins the tie, and its normalized value is 1.0.
    """
    if x.closed != y.closed:
        raise InputError("both polylines must be the same geometry kind (open or closed)")
    if x.closed:
        from .cyclic import cyclic_sospa_directional_min

        return cyclic_sospa_directional_min(x, y, params)
    return _direction_min(sospa, x, y, params)


def normalized_from_value(value: float, n_x: int, n_y: int, params: MetricParams) -> float:
    """Map a metric value into [0, 1]: ``2 d / (bound + d)`` with the empty-assignment bound."""
    if n_x == 0 and n_y == 0:
        return 0.0
    bound = params.power_bound(n_x, n_y) ** (1.0 / params.exponent_p)
    return min(1.0, 2.0 * value / (bound + value))


def sospa_normalized(x: Polyline, y: Polyline, params: MetricParams) -> float:
    """Normalized sequence metric in [0, 1]; remains a metric for p = 1."""
    if len(x) == 0 and len(y) == 0:
        return 0.0
    return normalized_from_value(sospa(x, y, params).value, len(x), len(y), params)


def assignment_cost(x: Polyline, y: Polyline, assignment: OrderedAssignment, params: MetricParams) -> float:
    """Metric value of one fixed assignment (not necessarily the optimum)."""
    costs = _power_costs(x.points, y.points, params)
    matched = len(assignment)
    raw = math.fsum(costs[i, j] for i, j in assignment.pairs)
    raw += params.unmatched_cost * (len(x) + len(y) - 2 * matched)
    return raw ** (1.0 / params.exponent_p)


def sospa_bruteforce_oracle(x: Polyline, y: Polyline, params: MetricParams) -> SospaResult:
    """Exhaustive minimum over every ordered assignment set; validation only."""
    _require_open(x, "x")
    _require_open(y, "y")
    n, m = len(x), len(y)
    if n > ORACLE_MAX_LEN or m > ORACLE_MAX_LEN:
        raise InputError(f"oracle refuses sequences longer than {ORACLE_MAX_LEN}")
    costs = _power_costs(x.points, y.points, params)
    gap = params.unmatched_cost
    best_raw = math.inf
    best_pairs: tuple[tuple[int, int], ...] = ()
    for k in range(min(n, m) + 1):
        base = gap * (n + m - 2 * k)
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                raw = math.fsum(costs[i, j] for i, j in zip(rows, cols)) + base
                if raw < best_raw:
                    best_raw = raw
                    best_pairs = tuple(zip(rows, cols))
    return _assemble(list(best_pairs), costs, n, m, params)
