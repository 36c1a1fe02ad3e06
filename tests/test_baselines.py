import numpy as np
import pytest

from mapscore import (
    ApConfig,
    InputError,
    Polyline,
    average_precision,
    chamfer,
    cyclic_shift,
    frechet_discrete,
    mean_ap,
)
from mapscore.baselines import ap_from_records, match_predictions


def line(pts, closed=False):
    return Polyline(np.asarray(pts, dtype=float), closed)


class TestChamfer:
    def test_identity(self):
        x = line([(0, 0), (1, 0)])
        assert chamfer(x, line([(0, 0), (1, 0)])) == 0.0

    def test_single_points(self):
        assert chamfer(line([(0, 0)]), line([(1, 0)])) == 1.0

    def test_hand_example(self):
        assert chamfer(line([(0, 0), (2, 0)]), line([(1, 0)])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = Polyline(rng.uniform(-5, 5, (int(rng.integers(1, 8)), 2)))
            y = Polyline(rng.uniform(-5, 5, (int(rng.integers(1, 8)), 2)))
            assert chamfer(x, y) == chamfer(y, x)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            chamfer(Polyline(np.empty((0, 2))), line([(0, 0)]))

    def test_triangle_inequality_violation_witness(self):
        # Frozen from a seeded randomized search: the mean-of-minimums
        # construction is not a metric.
        x = line([(-4, 4)])
        y = line([(0, -3), (1, -4), (0, 2)])
        z = line([(-4, 3), (1, -2)])
        assert chamfer(x, y) > chamfer(x, z) + chamfer(z, y) + 0.5


class TestFrechet:
    def test_identity(self):
        x = line([(0, 0), (1, 0), (2, 0)])
        assert frechet_discrete(x, line([(0, 0), (1, 0), (2, 0)])) == 0.0

    def test_parallel_segments(self):
        assert frechet_discrete(line([(0, 0), (1, 0)]), line([(0, 1), (1, 1)])) == 1.0

    def test_outlier_dominates(self):
        x = line([(k, 0) for k in range(5)])
        moved = np.array([(k, 0) for k in range(5)], dtype=float)
        moved[2, 1] = 10.0
        assert frechet_discrete(x, Polyline(moved)) >= 10.0

    def test_supremum_dominates_directed_nearest(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(-5, 5, (int(rng.integers(1, 8)), 2))
            b = rng.uniform(-5, 5, (int(rng.integers(1, 8)), 2))
            dists = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
            directed = max(dists.min(axis=1).max(), dists.min(axis=0).max())
            assert frechet_discrete(Polyline(a), Polyline(b)) >= directed - 1e-12

    def test_cyclic_flag_aligns_rotations(self):
        square = line([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
        rotated = line([(1, 1), (0, 1), (0, 0), (1, 0)], closed=True)
        assert frechet_discrete(square, rotated) > 0.0
        assert frechet_discrete(square, rotated, cyclic=True) == 0.0

    def test_cyclic_is_the_minimum_over_rotations_of_y(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3, 5, 8):
            for _ in range(10):
                x = Polyline(rng.uniform(-3, 3, (int(rng.integers(1, 7)), 2)), closed=True)
                # Half-metre grid points give tied rotations.
                y = Polyline(0.5 * rng.integers(-6, 7, (m, 2)), closed=True)
                want = min(frechet_discrete(x, cyclic_shift(y, s)) for s in range(len(y)))
                assert frechet_discrete(x, y, cyclic=True) == want

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            frechet_discrete(line([(0, 0)]), Polyline(np.empty((0, 2))))


class TestApConfig:
    def test_valid(self):
        cfg = ApConfig((0.5, 1.0, 1.5), "chamfer")
        assert cfg.thresholds == (0.5, 1.0, 1.5)

    @pytest.mark.parametrize("thresholds", [(), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_bad_thresholds(self, thresholds):
        with pytest.raises(InputError):
            ApConfig(thresholds, "chamfer")

    def test_bad_base(self):
        with pytest.raises(InputError):
            ApConfig((1.0,), "hausdorff")


class TestAveragePrecision:
    def test_exact_prediction_scores_one(self):
        gt = [line([(0, 0), (1, 0)])]
        preds = [(1.0, line([(0, 0), (1, 0)]))]
        cfg = ApConfig((0.5,), "chamfer")
        assert average_precision(preds, gt, cfg, 0.5) == 1.0

    def test_offset_within_threshold_still_perfect(self):
        # A 1 m offset is a clean true positive at every permissive threshold.
        gt = [line([(k, 0) for k in range(5)])]
        preds = [(1.0, line([(k, 1.0) for k in range(5)]))]
        for tau in (1.0, 1.5, 2.0):
            cfg = ApConfig((tau,), "chamfer")
            assert average_precision(preds, gt, cfg, tau) == 1.0

    def test_frechet_collapse_beyond_max_threshold(self):
        gt = [line([(k, 0) for k in range(9)])]
        scrambled = np.array([(k, 0) for k in (5, 0, 7, 2, 8, 1, 6, 3, 4)], dtype=float)
        preds = [(1.0, Polyline(scrambled))]
        cfg = ApConfig((3.0,), "frechet")
        assert average_precision(preds, gt, cfg, 3.0) == 0.0

    def test_no_gt_conventions(self):
        cfg = ApConfig((1.0,), "chamfer")
        assert average_precision([], [], cfg, 1.0) == 1.0
        assert average_precision([(0.9, line([(0, 0)]))], [], cfg, 1.0) == 0.0

    def test_no_predictions_scores_zero(self):
        cfg = ApConfig((1.0,), "chamfer")
        assert average_precision([], [line([(0, 0)])], cfg, 1.0) == 0.0

    def test_mixed_ranking(self):
        gt = [line([(0, 0)])]
        preds = [(0.9, line([(50, 50)])), (0.8, line([(0, 0)]))]
        cfg = ApConfig((0.5,), "chamfer")
        assert average_precision(preds, gt, cfg, 0.5) == 0.5

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        cfg = ApConfig((0.5,), "chamfer")
        for _ in range(50):
            gt = [Polyline(rng.uniform(-3, 3, (3, 2))) for _ in range(int(rng.integers(1, 4)))]
            preds = [
                (float(rng.uniform(0, 1)), Polyline(rng.uniform(-3, 3, (3, 2))))
                for _ in range(int(rng.integers(0, 5)))
            ]
            values = [average_precision(preds, gt, cfg, tau) for tau in (0.5, 1.0, 2.0, 4.0)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_pooled_records_reduce_like_single_sample(self):
        gt = [line([(0, 0)]), line([(5, 5)])]
        preds = [(0.9, line([(0, 0)])), (0.7, line([(9, 9)]))]
        records = match_predictions(preds, gt, "chamfer", 0.5)
        assert ap_from_records(records, len(gt)) == average_precision(
            preds, gt, ApConfig((0.5,), "chamfer"), 0.5
        )


class TestMeanAp:
    def test_single_entry(self):
        assert mean_ap({"divider": {0.5: 0.7}}) == 0.7

    def test_threshold_mean(self):
        assert mean_ap({"divider": {0.5: 1.0, 1.0: 0.5, 1.5: 0.0}}) == 0.5

    def test_published_class_means(self):
        per_class = {"crossing": {0.5: 0.127}, "divider": {0.5: 0.262}, "boundary": {0.5: 0.445}}
        assert mean_ap(per_class) == pytest.approx(0.278, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mean_ap({})
        with pytest.raises(InputError):
            mean_ap({"divider": {}})
