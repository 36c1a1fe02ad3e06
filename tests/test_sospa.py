import importlib
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mapscore import (
    InputError,
    MetricParams,
    Polyline,
    assignment_cost,
    gospa_unordered_reference,
    sospa,
    sospa_bruteforce_oracle,
    sospa_directional_min,
    sospa_normalized,
)
from mapscore._dp import edit_backtrack, edit_table
from mapscore.sospa import OrderedAssignment, _assemble, _solve_open, no_match_pays, normalized_from_value

# The package attribute ``mapscore.sospa`` is the function, not the module.
sospa_module = importlib.import_module("mapscore.sospa")


def line(pts, closed=False):
    return Polyline(np.asarray(pts, dtype=float), closed)


def empty():
    return Polyline(np.empty((0, 2)))


def random_line(rng, max_len, min_len=0):
    return Polyline(rng.uniform(-4, 4, (int(rng.integers(min_len, max_len + 1)), 2)))


# The "shifted line" fixture used throughout: five collinear points spaced
# 1 m, displaced by a unit vector perpendicular to the line direction so
# every point moves exactly 1 m and the aligned matching stays optimal.
def shifted_pair():
    u = np.array([math.sqrt(2) / 2, -math.sqrt(2) / 2])
    t = np.array([math.sqrt(2) / 2, math.sqrt(2) / 2])
    pts = np.array([k * u for k in range(5)])
    return Polyline(pts), Polyline(pts + t)


class TestSospa:
    def test_identity_matches_everything(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, (6, 2))
        res = sospa(Polyline(pts), Polyline(pts.copy()), MetricParams(1.0, 1.0))
        assert res.value == 0.0
        assert res.matched_count == 6
        assert res.unmatched_count == 0

    def test_single_point_vs_empty(self):
        res = sospa(line([(0, 0)]), empty(), MetricParams(1.0, 1.0))
        assert res.value == 0.5
        assert res.matched_count == 0

    def test_both_empty(self):
        assert sospa(empty(), empty(), MetricParams(1.0, 1.0)).value == 0.0

    def test_swapped_order_pair(self):
        params = MetricParams(1.0, 1.0)
        x = line([(0, 0), (1, 0)])
        y = line([(1, 0), (0, 0)])
        res = sospa(x, y, params)
        assert res.value == 1.0
        assert res.matched_count == 1
        assert sospa_bruteforce_oracle(x, y, params).value == 1.0

    def test_shifted_line_all_matched(self):
        params = MetricParams(1.5, 1.0)
        x, y = shifted_pair()
        res = sospa(x, y, params)
        assert res.value == pytest.approx(5.0, abs=1e-9)
        assert res.matched_count == 5
        assert sospa_bruteforce_oracle(x, y, params).value == pytest.approx(5.0, abs=1e-9)

    def test_rejects_closed(self):
        with pytest.raises(InputError):
            sospa(line([(0, 0), (1, 0), (0, 1)], closed=True), line([(0, 0), (1, 0)]), MetricParams())

    def test_value_is_root_of_raw_cost(self):
        rng = np.random.default_rng(1)
        params = MetricParams(1.2, 2.0)
        for _ in range(50):
            res = sospa(random_line(rng, 7), random_line(rng, 7), params)
            assert res.value**2 == pytest.approx(res.raw_power_cost, rel=1e-12)

    def test_raw_cost_recomputable_from_assignment(self):
        rng = np.random.default_rng(2)
        params = MetricParams(0.8, 1.5)
        for _ in range(50):
            x, y = random_line(rng, 7), random_line(rng, 7)
            res = sospa(x, y, params)
            assert assignment_cost(x, y, res.assignment, params) == pytest.approx(res.value, rel=1e-12)

    def test_upper_bound_empty_assignment(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = MetricParams(float(rng.uniform(0.2, 3.0)), float(rng.choice([1.0, 2.0])))
            x, y = random_line(rng, 8), random_line(rng, 8)
            bound = params.power_bound(len(x), len(y)) ** (1.0 / params.exponent_p)
            assert sospa(x, y, params).value <= bound + 1e-12

    def test_fixed_assignment_monotone_in_cutoff(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = random_line(rng, 6, 1), random_line(rng, 6, 1)
            lo = MetricParams(0.5, 1.0)
            hi = MetricParams(1.7, 1.0)
            theta = sospa(x, y, lo).assignment
            assert assignment_cost(x, y, theta, hi) >= assignment_cost(x, y, theta, lo) - 1e-12

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            params = MetricParams(float(rng.uniform(0.1, 3.0)) + 1e-9, float(rng.choice([1.0, 1.5, 2.0])))
            x, y = random_line(rng, 6), random_line(rng, 6)
            dp = sospa(x, y, params).value
            brute = sospa_bruteforce_oracle(x, y, params).value
            assert dp == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_oracle_size_guard(self):
        big = Polyline(np.zeros((9, 2)))
        with pytest.raises(InputError):
            sospa_bruteforce_oracle(big, big, MetricParams())

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            params = MetricParams(float(rng.uniform(0.2, 2.5)), float(rng.choice([1.0, 2.0])))
            x, y = random_line(rng, 8), random_line(rng, 8)
            assert sospa(x, y, params).value == sospa(y, x, params).value

    def test_order_sensitivity_vs_unordered_reference(self):
        params = MetricParams(1.0, 1.0)
        x = line([(0, 0), (2, 0), (4, 0), (6, 0)])
        y = line([(4, 0), (6, 0), (0, 0), (2, 0)])
        assert sospa(x, y, params).value > 0.0
        assert gospa_unordered_reference(x.points, y.points, params) == 0.0


class TestDirectionalMin:
    def test_reversed_copy_is_zero(self):
        params = MetricParams(1.0, 1.0)
        x = line([(0, 0), (1, 0), (2, 0)])
        res = sospa_directional_min(x, Polyline(x.points[::-1].copy()), params)
        assert res.value == 0.0
        assert res.used_reversal

    def test_forward_wins_ties(self):
        params = MetricParams(1.0, 1.0)
        x = line([(0, 0), (1, 0)])
        res = sospa_directional_min(x, line([(0, 0), (1, 0)]), params)
        assert res.value == 0.0
        assert not res.used_reversal

    def test_swapped_order_restored_by_reversal(self):
        params = MetricParams(1.0, 1.0)
        res = sospa_directional_min(line([(0, 0), (1, 0)]), line([(1, 0), (0, 0)]), params)
        assert res.value == 0.0
        assert res.used_reversal

    def test_kind_mismatch_rejected(self):
        with pytest.raises(InputError):
            sospa_directional_min(
                line([(0, 0), (1, 0)]),
                line([(0, 0), (1, 0), (0, 1)], closed=True),
                MetricParams(),
            )

    def test_closed_inputs_delegate_to_cyclic(self):
        square = line([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
        rotated = line([(1, 1), (0, 1), (0, 0), (1, 0)], closed=True)
        res = sospa_directional_min(square, rotated, MetricParams(1.0, 1.0))
        assert res.value == 0.0
        assert hasattr(res, "best_shift_y")


class TestNormalized:
    def test_identity_is_zero(self):
        x = line([(0, 0), (1, 0)])
        assert sospa_normalized(x, line([(0, 0), (1, 0)]), MetricParams(1.0, 1.0)) == 0.0

    def test_far_apart_is_one(self):
        params = MetricParams(1.0, 1.0)
        x = line([(0, 0), (1, 0), (2, 0)])
        y = line([(100, 0), (101, 0), (102, 0)])
        assert sospa_normalized(x, y, params) == 1.0

    def test_shifted_line_value(self):
        x, y = shifted_pair()
        assert sospa_normalized(x, y, MetricParams(1.5, 1.0)) == pytest.approx(0.8, abs=1e-12)

    def test_both_empty_defined_as_zero(self):
        assert sospa_normalized(empty(), empty(), MetricParams()) == 0.0

    def test_range_and_p1_triangle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            params = MetricParams(float(rng.uniform(0.1, 3.0)) + 1e-9, 1.0)
            x, y, z = (random_line(rng, 8) for _ in range(3))
            n_xy = sospa_normalized(x, y, params)
            n_xz = sospa_normalized(x, z, params)
            n_zy = sospa_normalized(z, y, params)
            assert 0.0 <= n_xy <= 1.0
            assert n_xy <= n_xz + n_zy + 1e-9


class TestTriangleInequality:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_random_triples(self, p):
        rng = np.random.default_rng(8)
        for _ in range(150):
            params = MetricParams(float(rng.uniform(0.1, 3.0)) + 1e-9, p)
            x, y, z = (random_line(rng, 8) for _ in range(3))
            d_xy = sospa(x, y, params).value
            d_xz = sospa(x, z, params).value
            d_zy = sospa(z, y, params).value
            assert d_xy <= d_xz + d_zy + 1e-9


# ---------------------------------------------------------------------------
# Far pairs: when every point cost exceeds twice the gap by the margin of
# no_match_pays, the solvers skip the DP. Every result must still equal the
# DP run directly, bit for bit.

# Not dyadic, so c**p / 2 rounds for p > 1.
C_FAR = 1.3


def dp_run(costs, params):
    """The open solver with no pruning: edit_table, edit_backtrack and _assemble on one matrix."""
    costs = np.ascontiguousarray(costs)
    gap = params.unmatched_cost
    pairs = [tuple(pair) for pair in edit_backtrack(edit_table(costs, gap), costs, gap).tolist()]
    return _assemble(pairs, costs, costs.shape[0], costs.shape[1], params)


def fields(res):
    return (res.value, res.raw_power_cost, res.assignment.pairs, res.used_reversal)


def margin(n, m, gap):
    return gap * (2.0 + (n + m) * 2.0**-49)


# Smallest cost of the matrix, from (n, m, gap); and whether the DP is skipped.
MIN_COSTS = {
    "twice_gap": (lambda n, m, g: 2.0 * g, False),
    "ulp_above_twice_gap": (lambda n, m, g: math.nextafter(2.0 * g, math.inf), False),
    "at_margin": (margin, False),
    "ulp_above_margin": (lambda n, m, g: math.nextafter(margin(n, m, g), math.inf), True),
    "far": (lambda n, m, g: 8.0 * g, True),
}


def cost_matrix(rng, n, m, low):
    """Costs whose minimum is exactly ``low``; about half the entries equal it, for near-ties."""
    costs = np.where(rng.random((n, m)) < 0.5, low, low + rng.uniform(0.0, 1.0, (n, m)))
    costs[rng.integers(n), rng.integers(m)] = low
    return costs


def far_pair(rng, n, m, d0, closed=False):
    """x at x-coordinates <= 0, y at >= d0, and the closest points exactly d0 apart."""
    x = np.column_stack([-rng.uniform(0.0, 3.0, n), rng.uniform(-2.0, 2.0, n)])
    y = np.column_stack([d0 + rng.uniform(0.0, 3.0, m), rng.uniform(-2.0, 2.0, m)])
    x[0], y[0] = (0.0, 0.0), (d0, 0.0)
    return Polyline(x, closed), Polyline(y, closed)


def count_fills(monkeypatch, module):
    """Record the shape of each DP table that ``module`` fills."""
    shapes = []

    def counting(costs, gap):
        shapes.append(costs.shape)
        return edit_table(costs, gap)

    monkeypatch.setattr(module, "edit_table", counting)
    return shapes


@pytest.fixture
def fills(monkeypatch):
    return count_fills(monkeypatch, sospa_module)


class TestFarPairRule:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("case", sorted(MIN_COSTS))
    def test_open_solver_equals_direct_dp(self, p, case, fills):
        params = MetricParams(C_FAR, p)
        low_of, skips = MIN_COSTS[case]
        rng = np.random.default_rng(11)
        for n, m in ((1, 1), (1, 4), (3, 5), (6, 4), (9, 9)):
            costs = cost_matrix(rng, n, m, low_of(n, m, params.unmatched_cost))
            got = _solve_open(costs, params)
            want = dp_run(costs, params)
            assert fields(got) == fields(want)
            assert (got.matched_count, got.unmatched_count) == (want.matched_count, want.unmatched_count)
        assert len(fills) == (0 if skips else 5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("spacing, skips", [(0.5, False), (1.0, False), (3.0, True)])
    def test_directional_min_equals_direct_dp(self, p, spacing, skips, fills):
        # Closest points spacing * c apart: near, exactly at twice the gap, far.
        params = MetricParams(C_FAR, p)
        rng = np.random.default_rng(12)
        for n, m in ((1, 2), (3, 5), (4, 9)):  # n < m: both directions keep x first
            x, y = far_pair(rng, n, m, spacing * C_FAR)
            if spacing == 1.0:
                assert (cdist(x.points, y.points) ** p).min() == 2.0 * params.unmatched_cost
            forward = dp_run(cdist(x.points, y.points) ** p, params)
            backward = dp_run(cdist(x.points, y.points[::-1]) ** p, params)
            backward.used_reversal = True
            want = backward if forward.raw_power_cost != 0.0 and backward.value < forward.value else forward
            got = sospa_directional_min(x, y, params)
            assert fields(got) == fields(want)
            assert fields(sospa(x, y, params)) == fields(forward)
            if skips:
                assert got.matched_count == 0
                assert normalized_from_value(got.value, n, m, params) == 1.0
        assert len(fills) == (0 if skips else 9)

    @pytest.mark.parametrize(
        "c, p", [(1e-200, 2.0), (1e-310, 1.0), (2e306, 1.0)], ids=["zero_gap", "subnormal_gap", "overflowing_sums"]
    )
    def test_rule_stays_off_outside_its_proof(self, c, p, fills):
        params = MetricParams(c, p)
        costs = np.full((2, 198), 3e306)
        assert not no_match_pays(costs, params.unmatched_cost)
        assert fields(_solve_open(costs, params)) == fields(dp_run(costs, params))
        assert len(fills) == 1

    def test_empty_side_keeps_the_dp(self, fills):
        params = MetricParams(C_FAR, 1.5)
        y = Polyline(np.random.default_rng(13).uniform(50.0, 60.0, (4, 2)))
        want = dp_run(np.zeros((0, 4)), params)
        assert fields(sospa(empty(), y, params)) == fields(want)
        assert fields(sospa_directional_min(empty(), y, params)) == fields(want)
        assert len(fills) == 3


# ---------------------------------------------------------------------------
# Cutoffs near the float maximum: the DP's gap sums would overflow, so the
# solvers reject the pair before they build its cost matrix.


def points_at(count, offset):
    return Polyline(np.column_stack([np.full(count, offset), np.arange(count, dtype=float)]))


class TestOverflowGuard:
    @pytest.mark.parametrize(
        "n, m, cost, c",
        # p = 2 keeps the coordinates and their distances finite. Unguarded, the
        # first pair overflowed the DP's gap sums and the second the fsum.
        [(2, 198, 3e306, math.sqrt(2e306)), (90, 110, 1e308, 1.1e154)],
        ids=["gap_sums", "fsum"],
    )
    def test_public_solvers_raise(self, n, m, cost, c):
        params = MetricParams(c, 2.0)
        x, y = points_at(n, 0.0), points_at(m, math.sqrt(cost))
        assert np.isfinite(cdist(x.points, y.points)).all()
        calls = (
            lambda: sospa(x, y, params),
            lambda: sospa_directional_min(x, y, params),
            lambda: assignment_cost(x, y, OrderedAssignment(()), params),
        )
        for call in calls:
            with pytest.raises(InputError, match="overflows"):
                call()

    def test_unordered_reference_raises(self):
        # 2 * gap alone is near the float maximum, so the assignment's sum overflowed.
        params = MetricParams(1.7e308, 1.0)
        with pytest.raises(InputError, match="overflows"):
            gospa_unordered_reference(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]), params)
