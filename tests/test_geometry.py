import math

import numpy as np
import pytest

from mapscore import (
    InputError,
    MetricParams,
    Polyline,
    cyclic_shift,
    point_distance,
    resample_equidistant,
    reverse,
)


def line(pts, closed=False):
    return Polyline(np.asarray(pts, dtype=float), closed)


class TestMetricParams:
    def test_defaults(self):
        params = MetricParams()
        assert params.cutoff_c == 1.5
        assert params.exponent_p == 1.0
        assert params.unmatched_cost == 0.75

    def test_unmatched_cost_uses_power(self):
        assert MetricParams(2.0, 2.0).unmatched_cost == 2.0

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.5), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_parameters(self, c, p):
        with pytest.raises(InputError):
            MetricParams(c, p)

    def test_bound_must_stay_finite_when_doubled(self):
        params = MetricParams(1e308, 1.0)  # unmatched cost 5e307
        params.require_finite_bound(1, 0)
        with pytest.raises(InputError):
            params.require_finite_bound(1, 1)
        with pytest.raises(InputError):
            params.require_finite_bound(2, 0)


class TestPolyline:
    def test_duplicate_closing_point_removed(self):
        poly = line([(0, 0), (1, 0), (1, 1), (0, 0)], closed=True)
        assert len(poly) == 3

    def test_open_keeps_duplicate_endpoint(self):
        poly = line([(0, 0), (1, 0), (0, 0)])
        assert len(poly) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            line([(0, 0), (math.nan, 1)])

    def test_empty_open_is_allowed(self):
        assert len(Polyline(np.empty((0, 2)))) == 0

    def test_empty_closed_is_rejected(self):
        with pytest.raises(InputError):
            Polyline(np.empty((0, 2)), closed=True)


class TestPointDistance:
    def test_identity(self):
        assert point_distance((0, 0), (0, 0)) == 0.0

    def test_three_four_five(self):
        assert point_distance((0, 0), (3, 4)) == 5.0

    def test_unit_diagonal(self):
        assert point_distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            point_distance((0, 0), (0, 0, 0))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = rng.uniform(-10, 10, (3, 2))
            d_ab = point_distance(a, b)
            assert d_ab >= 0.0
            assert d_ab == point_distance(b, a)
            assert d_ab <= point_distance(a, c) + point_distance(c, b) + 1e-12
        assert point_distance(a, a) == 0.0


class TestResample:
    def test_two_meter_segment(self):
        out = resample_equidistant(line([(0, 0), (2, 0)]), 0.5)
        assert out.points[:, 0].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert not out.closed

    def test_unit_square_perimeter(self):
        square = line([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
        out = resample_equidistant(square, 1.0)
        assert out.closed
        assert out.points.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_endpoint_retained_beyond_half_spacing(self):
        out = resample_equidistant(line([(0, 0), (1.3, 0)]), 0.5)
        assert out.points[:, 0].tolist() == pytest.approx([0.0, 0.5, 1.0, 1.3])

    def test_endpoint_dropped_within_half_spacing(self):
        out = resample_equidistant(line([(0, 0), (1.2, 0)]), 0.5)
        assert out.points[:, 0].tolist() == pytest.approx([0.0, 0.5, 1.0])

    @staticmethod
    def _arc_position(path, point):
        # Independent oracle for monotone-x paths: locate the segment by the
        # x bracket, then add the partial distance from the segment start.
        cumlen = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(path, axis=0), axis=1))])
        seg = min(int(np.searchsorted(path[:, 0], point[0], side="right")) - 1, len(path) - 2)
        return cumlen[seg] + float(np.linalg.norm(point - path[seg]))

    def test_spacing_property_along_arc(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            xs = np.cumsum(rng.uniform(0.5, 2.0, n))
            pts = np.column_stack([xs, rng.uniform(-1, 1, n)])
            spacing = float(rng.uniform(0.1, 1.0))
            out = resample_equidistant(Polyline(pts), spacing)
            positions = [self._arc_position(pts, p) for p in out.points]
            steps = np.diff(positions)
            assert np.all(np.abs(steps[:-1] - spacing) <= 1e-9)
            assert steps[-1] <= spacing + 1e-9

    def test_euclidean_gaps_never_exceed_spacing(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = rng.uniform(-5, 5, (int(rng.integers(2, 8)), 2))
            spacing = float(rng.uniform(0.1, 1.0))
            out = resample_equidistant(Polyline(pts), spacing)
            gaps = np.linalg.norm(np.diff(out.points, axis=0), axis=1)
            assert np.all(gaps <= spacing + 1e-9)

    def test_degenerate_zero_length(self):
        out = resample_equidistant(line([(1, 2), (1, 2)]), 0.5)
        assert out.points.tolist() == [[1, 2]]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            resample_equidistant(line([(0, 0), (1, 0)]), 0.0)
        with pytest.raises(InputError):
            resample_equidistant(line([(0, 0)]), 0.5)
        with pytest.raises(InputError):
            resample_equidistant(line([(0, 0), (1, 0)], closed=True), 0.5)


class TestReverseAndShift:
    def test_reverse_example(self):
        out = reverse(line([(0, 0), (1, 0), (2, 0)]))
        assert out.points[:, 0].tolist() == [2.0, 1.0, 0.0]

    def test_reverse_single_point(self):
        assert reverse(line([(5, 5)])).points.tolist() == [[5, 5]]

    def test_reverse_involution(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (7, 2))
        poly = Polyline(pts)
        assert np.array_equal(reverse(reverse(poly)).points, poly.points)

    def test_shift_by_one(self):
        out = cyclic_shift(line([(0, 0), (1, 1), (2, 2)], closed=True), 1)
        assert out.points[:, 0].tolist() == [1.0, 2.0, 0.0]

    def test_shift_by_n_is_identity(self):
        poly = line([(0, 0), (1, 1), (2, 2)], closed=True)
        assert np.array_equal(cyclic_shift(poly, 3).points, poly.points)

    def test_negative_shift(self):
        poly = line([(0, 0), (1, 1), (2, 2), (3, 3)], closed=True)
        assert np.array_equal(cyclic_shift(poly, -1).points, cyclic_shift(poly, 3).points)

    def test_shift_requires_closed(self):
        with pytest.raises(InputError):
            cyclic_shift(line([(0, 0), (1, 1)]), 1)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, (6, 2))
        poly = Polyline(pts, closed=True)
        shifted = cyclic_shift(poly, 2)
        rev = reverse(poly)
        assert sorted(map(tuple, shifted.points.tolist())) == sorted(map(tuple, pts.tolist()))
        assert sorted(map(tuple, rev.points.tolist())) == sorted(map(tuple, pts.tolist()))
