"""Sequence metric over cyclic sequences (polygons).

A polygon is compared as the equivalence class of its rotations. Rotating
only one of the two sequences is sufficient to reach the global optimum, so
the solver scans the rotations of the second argument and runs the open
solver on each alignment. The scan over all rotations is one kernel call,
``_dp.cyclic_scan``; the winning rotation's result is then rebuilt as the
open solver builds its own. The validating oracle runs that one-sided scan
for every rotation of the first argument as well. The cyclic variant is not
claimed to satisfy the triangle inequality. Callers wanting speed should
pass the shorter polygon second: the scan costs O(|x| * |y|**2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dp import cyclic_scan, edit_table
from .errors import InputError
from .geometry import MetricParams, Polyline
from .sospa import ORACLE_MAX_LEN, SospaResult, _assemble, _backtrack, _direction_min, _power_costs


@dataclass
class CyclicSospaResult:
    """Best value over rotations, the winning rotation of y, and the aligned open result."""

    value: float
    best_shift_y: int
    inner: SospaResult
    used_reversal: bool = False


def _require_closed(line: Polyline, name: str) -> None:
    if not line.closed:
        raise InputError(f"{name} must be a closed polyline")


def cyclic_sospa(
    x: Polyline, y: Polyline, params: MetricParams, *, _costs: np.ndarray | None = None
) -> CyclicSospaResult:
    """Metric between two polygons, minimized over rotations of ``y``.

    Each rotation is scored by the open-sequence solver on the aligned pair,
    read as a window of the cost matrix placed twice side by side; ties
    resolve to the lowest rotation index. ``_costs`` is private to this
    package: the power-cost matrix of ``x`` against ``y``, passed by callers
    that already built it. Unlike the open solver, the scan has no far-pair
    shortcut: it fills the DP table for every rotation.
    """
    _require_closed(x, "x")
    _require_closed(y, "y")
    costs = _power_costs(x.points, y.points, params) if _costs is None else _costs
    gap = params.unmatched_cost
    shift, _ = cyclic_scan(costs, gap)
    window = np.roll(costs, -shift, axis=1)
    pairs = _backtrack(edit_table(window, gap), window, gap)
    result = _assemble(pairs, window, len(x), len(y), params)
    return CyclicSospaResult(value=result.value, best_shift_y=shift, inner=result)


def cyclic_sospa_twosided_oracle(x: Polyline, y: Polyline, params: MetricParams) -> CyclicSospaResult:
    """Minimum over every rotation pair of both polygons; validation only.

    Runs the one-sided scan of :func:`cyclic_sospa` for every rotation of
    ``x``; the first minimum wins. ``best_shift_y`` and the inner assignment
    refer to the winning rotation of ``x``.
    """
    _require_closed(x, "x")
    _require_closed(y, "y")
    n, m = len(x), len(y)
    if n > ORACLE_MAX_LEN or m > ORACLE_MAX_LEN:
        raise InputError(f"oracle refuses polygons longer than {ORACLE_MAX_LEN}")
    costs = _power_costs(x.points, y.points, params)
    best: CyclicSospaResult | None = None
    for sx in range(max(1, n)):
        result = cyclic_sospa(x, y, params, _costs=np.roll(costs, -sx, axis=0))
        if best is None or result.inner.raw_power_cost < best.inner.raw_power_cost:
            best = result
    assert best is not None
    return best


def cyclic_sospa_directional_min(x: Polyline, y: Polyline, params: MetricParams) -> CyclicSospaResult:
    """Minimum of the cyclic metric over the two relative traversal directions.

    When ``used_reversal`` is set, ``best_shift_y`` and the inner assignment
    refer to the reversed traversal of ``y``. Both directions share one cost
    matrix; the reversed direction reads its columns backwards.
    """
    _require_closed(x, "x")
    _require_closed(y, "y")
    return _direction_min(cyclic_sospa, x, y, params)
