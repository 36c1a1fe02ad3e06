"""Rectangular minimum-cost partial assignment, plus the unordered set metric.

``solve_assignment`` treats leaving a row or column unassigned as free, so
only negative entries ever drive a match. It solves the full-size assignment
of the entrywise minimum with zero, with the shortest augmenting path kernel
``_dp.assign_rows`` (Crouse 2016, the method and tie order of scipy's
``linear_sum_assignment``): extending a partial matching by zero-clipped
pairs never changes the optimum, so the full-size solution can be
post-filtered back to the cost-bearing pairs.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from ._dp import assign_rows
from .errors import InputError
from .geometry import MetricParams
from .sospa import _power_costs

GOSPA_MAX_SIZE = 100


def _full_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost matching of every row or every column, whichever side is shorter.

    Returns ``(rows, cols)`` as scipy's ``linear_sum_assignment`` does: a tall
    matrix is solved transposed, and the pairs come back sorted by row.
    """
    if cost.shape[0] <= cost.shape[1]:
        return np.arange(cost.shape[0]), assign_rows(cost)
    col4row = assign_rows(cost.T)
    order = np.argsort(col4row)
    return col4row[order], order


def solve_assignment(
    costs, *, include_zero_cost: bool = False
) -> tuple[list[tuple[int, int]], float]:
    """Minimum-total-cost partial assignment with free unassignment.

    Returns the chosen (row, col) pairs sorted by row and their summed cost.
    Pairs with positive cost are never chosen; zero-cost pairs are dropped
    unless ``include_zero_cost`` is set, in which case every tie the solver
    resolved toward matching is kept.
    """
    matrix = np.asarray(costs, dtype=np.float64)
    if matrix.ndim != 2:
        raise InputError(f"cost matrix must be 2-D, got shape {matrix.shape}")
    if matrix.size and not np.isfinite(matrix).all():
        raise InputError("cost matrix entries must all be finite")
    if matrix.size == 0:
        return [], 0.0
    clipped = np.minimum(matrix, 0.0)
    rows, cols = _full_assignment(clipped)
    if include_zero_cost:
        keep = matrix[rows, cols] <= 0.0
    else:
        keep = matrix[rows, cols] < 0.0
    pairs = sorted(zip(rows[keep].tolist(), cols[keep].tolist()))
    total = math.fsum(matrix[i, j] for i, j in pairs)
    return pairs, total


def enumerate_partial_matchings_cost(costs) -> float:
    """Brute-force optimum over every partial matching; test oracle only."""
    matrix = np.asarray(costs, dtype=np.float64)
    n, m = matrix.shape
    if max(n, m) > 7:
        raise InputError("oracle refuses matrices larger than 7 per side")
    best = 0.0
    for k in range(1, min(n, m) + 1):
        for rows in combinations(range(n), k):
            for cols in permutations(range(m), k):
                total = math.fsum(matrix[i, j] for i, j in zip(rows, cols))
                if total < best:
                    best = total
    return best


def gospa_unordered_reference(x_points, y_points, params: MetricParams) -> float:
    """Unordered-set counterpart of the sequence metric (alpha = 2 variant).

    Same cost structure, but the assignment is free to ignore sequence
    order. Used as the contrast baseline demonstrating order sensitivity.
    """
    n, m = len(x_points), len(y_points)
    if n > GOSPA_MAX_SIZE or m > GOSPA_MAX_SIZE:
        raise InputError(f"point multisets larger than {GOSPA_MAX_SIZE} are not supported")
    params.require_finite_bound(n, m)
    gap = params.unmatched_cost
    if n == 0 or m == 0:
        return (gap * (n + m)) ** (1.0 / params.exponent_p)
    xs = np.asarray(x_points, dtype=np.float64).reshape(n, -1)
    ys = np.asarray(y_points, dtype=np.float64).reshape(m, -1)
    powered = _power_costs(xs, ys, params)
    pairs, _ = solve_assignment(powered - 2.0 * gap)
    raw = math.fsum(powered[i, j] for i, j in pairs)
    raw += gap * (n + m - 2 * len(pairs))
    return raw ** (1.0 / params.exponent_p)
