import numpy as np
import pytest
from scipy.spatial.distance import cdist
from test_sospa import C_FAR, far_pair, fields

from mapscore import (
    InputError,
    MetricParams,
    Polyline,
    cyclic_shift,
    cyclic_sospa,
    cyclic_sospa_directional_min,
    cyclic_sospa_twosided_oracle,
    reverse,
    sospa,
)
from mapscore._dp import edit_backtrack, edit_table
from mapscore.cyclic import CyclicSospaResult
from mapscore.sospa import _assemble


def polygon(pts):
    return Polyline(np.asarray(pts, dtype=float), closed=True)


def random_polygon(rng, max_len=7):
    n = int(rng.integers(3, max_len + 1))
    return Polyline(rng.uniform(-4, 4, (n, 2)), closed=True)


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class TestCyclicSospa:
    def test_rotated_copy_is_zero(self):
        params = MetricParams(1.0, 1.0)
        x = polygon(UNIT_SQUARE)
        for k in range(1, 4):
            res = cyclic_sospa(x, cyclic_shift(x, k), params)
            assert res.value == 0.0
            assert (res.best_shift_y + k) % 4 == 0

    def test_translated_square(self):
        params = MetricParams(1.5, 1.0)
        x = polygon(UNIT_SQUARE)
        y = polygon(np.asarray(UNIT_SQUARE, dtype=float) + [0.5, 0.0])
        res = cyclic_sospa(x, y, params)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.best_shift_y == 0

    def test_inner_result_consistent_with_reported_shift(self):
        rng = np.random.default_rng(0)
        params = MetricParams(1.0, 1.0)
        for _ in range(30):
            x, y = random_polygon(rng), random_polygon(rng)
            res = cyclic_sospa(x, y, params)
            aligned = Polyline(cyclic_shift(y, res.best_shift_y).points)
            direct = sospa(Polyline(x.points), aligned, params)
            assert res.value == pytest.approx(direct.value, rel=1e-12, abs=1e-12)

    def test_requires_closed(self):
        open_line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InputError):
            cyclic_sospa(open_line, polygon(UNIT_SQUARE), MetricParams())
        with pytest.raises(InputError):
            cyclic_sospa(polygon(UNIT_SQUARE), open_line, MetricParams())


class TestTwoSidedEquivalence:
    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            c = float(rng.uniform(0.1, 3.0)) + 1e-9
            p = float(rng.choice([1.0, 1.5, 2.0]))
            params = MetricParams(c, p)
            x, y = random_polygon(rng), random_polygon(rng)
            one = cyclic_sospa(x, y, params).value
            two = cyclic_sospa_twosided_oracle(x, y, params).value
            assert one == pytest.approx(two, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_oracle_equals_open_minimum_over_rotation_pairs(self, p):
        # The oracle runs cyclic_sospa, so check it against the open solver alone.
        rng = np.random.default_rng(3)
        params = MetricParams(1.5, p)
        for n in range(1, 7):
            for m in range(1, 7):
                x = Polyline(rng.uniform(-2, 2, (n, 2)), closed=True)
                y = Polyline(rng.uniform(-2, 2, (m, 2)), closed=True)
                want = min(
                    sospa(Polyline(cyclic_shift(x, a).points), Polyline(cyclic_shift(y, b).points), params).value
                    for a in range(n)
                    for b in range(m)
                )
                got = cyclic_sospa_twosided_oracle(x, y, params).value
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_identity(self):
        x = polygon(UNIT_SQUARE)
        assert cyclic_sospa_twosided_oracle(x, polygon(UNIT_SQUARE), MetricParams()).value == 0.0

    def test_far_single_point(self):
        params = MetricParams(1.0, 1.0)
        x = polygon(UNIT_SQUARE)
        y = polygon([(100.0, 100.0)])
        expected = (params.unmatched_cost * 5) ** 1.0
        assert cyclic_sospa_twosided_oracle(x, y, params).value == pytest.approx(expected, rel=1e-12)

    def test_size_guard(self):
        big = Polyline(np.random.default_rng(0).uniform(0, 1, (9, 2)), closed=True)
        with pytest.raises(InputError):
            cyclic_sospa_twosided_oracle(big, big, MetricParams())


class TestStartIndexInvariance:
    def test_random_rotations(self):
        rng = np.random.default_rng(2)
        params = MetricParams(1.0, 1.0)
        for _ in range(25):
            x, y = random_polygon(rng), random_polygon(rng)
            base = cyclic_sospa(x, y, params).value
            a = int(rng.integers(0, len(x)))
            b = int(rng.integers(0, len(y)))
            rotated = cyclic_sospa(cyclic_shift(x, a), cyclic_shift(y, b), params).value
            assert rotated == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestDirectionalMin:
    def test_reversed_rotation_is_zero(self):
        params = MetricParams(1.0, 1.0)
        x = polygon(UNIT_SQUARE)
        y = reverse(cyclic_shift(x, 2))
        res = cyclic_sospa_directional_min(x, y, params)
        assert res.value == 0.0
        assert res.used_reversal

    def test_forward_wins_ties(self):
        params = MetricParams(1.0, 1.0)
        x = polygon(UNIT_SQUARE)
        res = cyclic_sospa_directional_min(x, polygon(UNIT_SQUARE), params)
        assert res.value == 0.0
        assert not res.used_reversal

    def test_mirrored_traversal_recovered(self):
        params = MetricParams(1.0, 1.0)
        hexagon = polygon([(np.cos(a), np.sin(a)) for a in np.linspace(0, 2 * np.pi, 7)[:-1]])
        res = cyclic_sospa_directional_min(hexagon, reverse(hexagon), params)
        assert res.value == 0.0


# ---------------------------------------------------------------------------
# The directional minimum builds one cost matrix and reads the reversed
# direction from its columns backwards, and the scan reads each rotation from
# that matrix placed twice side by side; the results must equal rotation scans
# that roll their own cdist matrices, bit for bit.


def scan_run(costs, params):
    """The rotation scan through edit_table, edit_backtrack and _assemble."""
    n, m = costs.shape
    gap = params.unmatched_cost
    best = None
    for s in range(m):
        shifted = np.ascontiguousarray(np.roll(costs, -s, axis=1))
        table = edit_table(shifted, gap)
        if best is not None and table[n, m] >= best.inner.raw_power_cost:
            continue
        pairs = [tuple(pair) for pair in edit_backtrack(table, shifted, gap).tolist()]
        result = _assemble(pairs, shifted, n, m, params)
        if best is None or result.raw_power_cost < best.inner.raw_power_cost:
            best = CyclicSospaResult(value=result.value, best_shift_y=s, inner=result)
    return best


def cyclic_fields(res):
    return (res.value, res.best_shift_y, res.used_reversal, fields(res.inner))


class TestSharedCostMatrix:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 3.0])
    def test_directional_min_equals_direct_scan(self, p, spacing):
        # Closest points spacing * c apart: near, exactly at twice the gap, far.
        params = MetricParams(C_FAR, p)
        rng = np.random.default_rng(22)
        for n, m in ((1, 1), (3, 5), (6, 4)):
            x, y = far_pair(rng, n, m, spacing * C_FAR, closed=True)
            forward = scan_run(cdist(x.points, y.points) ** p, params)
            backward = scan_run(cdist(x.points, y.points[::-1]) ** p, params)
            backward.used_reversal = True
            lost = forward.inner.raw_power_cost == 0.0 or not backward.value < forward.value
            want = forward if lost else backward
            got = cyclic_sospa_directional_min(x, y, params)
            assert cyclic_fields(got) == cyclic_fields(want)
            assert cyclic_fields(cyclic_sospa(x, y, params)) == cyclic_fields(forward)
