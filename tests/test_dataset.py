import json

import numpy as np
import pytest

from mapscore import (
    ApConfig,
    InputError,
    MetricParams,
    SchemaError,
    evaluate,
    load_scenes,
    save_scenes,
    synthesize_scenario,
)
from mapscore.dataset import scenes_from_dict, scenes_to_dict

PARAMS = MetricParams(1.5, 1.0)

MINIMAL = {
    "scenes": [
        {
            "sample_id": "s0",
            "classes": {
                "divider": {
                    "ground_truth": [{"points": [[0, 0], [4, 0]], "closed": False}],
                    "predictions": [{"confidence": 0.9, "points": [[0, 0.2], [4, 0.2]], "closed": False}],
                }
            },
        }
    ]
}


def load_scenes_from(payload):
    return scenes_from_dict(json.loads(json.dumps(payload)))


def write(tmp_path, payload):
    path = tmp_path / "scenes.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadScenes:
    def test_minimal_file(self, tmp_path):
        scenes = load_scenes(write(tmp_path, MINIMAL))
        assert len(scenes) == 1
        cls = scenes[0].classes["divider"]
        assert cls.ground_truth[0].confidence == 1.0
        assert cls.predictions[0].confidence == 0.9

    def test_out_of_range_confidence_reports_id_and_path(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["predictions"][0]["confidence"] = 1.2
        with pytest.raises(SchemaError, match=r"scenes\[0\]:s0\.classes\.divider\.predictions\[0\]\.confidence"):
            load_scenes(write(tmp_path, payload))

    def test_gt_confidence_must_be_one(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["ground_truth"][0]["confidence"] = 0.5
        with pytest.raises(SchemaError, match="ground truth"):
            load_scenes(write(tmp_path, payload))

    def test_missing_points_reports_path(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        del payload["scenes"][0]["classes"]["divider"]["ground_truth"][0]["points"]
        with pytest.raises(SchemaError, match=r"ground_truth\[0\]"):
            load_scenes(write(tmp_path, payload))

    def test_duplicate_sample_id(self, tmp_path):
        payload = {"scenes": [MINIMAL["scenes"][0], MINIMAL["scenes"][0]]}
        with pytest.raises(SchemaError, match="duplicate"):
            load_scenes(write(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_scenes(path)

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("points", [[True, False], [4, 0]], r"predictions\[0\]\.points\[0\]"),
            ("confidence", True, r"predictions\[0\]\.confidence"),
        ],
        ids=["coordinate", "confidence"],
    )
    def test_boolean_prediction_field_rejected(self, tmp_path, field, value, path):
        # isinstance(True, int) holds, so a check for numbers alone would read true as 1.0.
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["predictions"][0][field] = value
        with pytest.raises(SchemaError, match=r"scenes\[0\]:s0\.classes\.divider\." + path):
            load_scenes(write(tmp_path, payload))

    def test_boolean_gt_confidence_rejected(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["ground_truth"][0]["confidence"] = True
        with pytest.raises(SchemaError, match=r"ground_truth\[0\]\.confidence"):
            load_scenes(write(tmp_path, payload))

    @pytest.mark.parametrize("later_scene", [False, True], ids=["same-class", "later-scene"])
    def test_mixed_point_dimensions_rejected(self, tmp_path, later_scene):
        # Without a file-wide check a 3-D prediction against 2-D ground truth
        # fails only once the pair is compared, with no field path.
        payload = json.loads(json.dumps(MINIMAL))
        if later_scene:
            payload["scenes"].append(json.loads(json.dumps(MINIMAL["scenes"][0])))
            payload["scenes"][1]["sample_id"] = "s1"
        scene = payload["scenes"][-1]
        scene["classes"]["divider"]["predictions"][0]["points"] = [[0, 0.2, 1], [4, 0.2, 1]]
        where = r"scenes\[1\]:s1" if later_scene else r"scenes\[0\]:s0"
        with pytest.raises(SchemaError, match=where + r"\.classes\.divider\.predictions\[0\]\.points: .*3-D.*2-D"):
            load_scenes(write(tmp_path, payload))

    def test_ragged_points_rejected(self, tmp_path):
        # numpy refuses a ragged list with a bare ValueError, which has no field path.
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["ground_truth"][0]["points"] = [[0, 0], [4, 0, 1]]
        with pytest.raises(SchemaError, match=r"ground_truth\[0\]\.points\[1\]: has 3 coordinates"):
            load_scenes(write(tmp_path, payload))

    def test_round_trip(self, tmp_path):
        scenes = [synthesize_scenario("shift", 1.0, seed=k) for k in range(3)]
        path = tmp_path / "out.json"
        save_scenes(scenes, path)
        again = load_scenes(path)
        assert scenes_to_dict(again) == scenes_to_dict(scenes)


class TestSynthesize:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenes([synthesize_scenario("misorder", 0.0, seed=7)], a)
        save_scenes([synthesize_scenario("misorder", 0.0, seed=7)], b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            synthesize_scenario("teleport", 1.0, seed=0)

    @pytest.mark.parametrize("kind", ["shift", "misorder", "drop_tail", "spurious_instances", "outlier_point"])
    def test_all_kinds_produce_scorable_scenes(self, kind):
        scene = synthesize_scenario(kind, 2.0, seed=1)
        report = evaluate([scene], PARAMS, (), metrics=("dap",), workers=1)
        assert report.mdap is not None
        assert 0.0 <= report.mdap <= 1.0

    def test_spurious_adds_extras_per_gt(self):
        scene = synthesize_scenario("spurious_instances", 3, seed=2)
        cls = scene.classes["divider"]
        assert len(cls.predictions) == len(cls.ground_truth) * 4


class TestEvaluate:
    def test_perfect_predictions(self):
        scenes = [synthesize_scenario("shift", 0.0, seed=k) for k in range(2)]
        report = evaluate(scenes, PARAMS, [ApConfig((0.5, 1.0, 1.5), "chamfer")],
                          metrics=("dap", "cd_ap"), workers=1)
        assert report.mdap == 0.0
        assert report.mean_ap["cd_ap"] == 1.0

    def test_dap_only_omits_ap(self):
        report = evaluate([synthesize_scenario("shift", 1.0, seed=0)], PARAMS, (), metrics=("dap",), workers=1)
        assert report.mean_ap == {}
        assert report.class_reports[0].ap_per_threshold == {}

    def test_ap_requires_matching_config(self):
        with pytest.raises(InputError, match="ApConfig"):
            evaluate([synthesize_scenario("shift", 1.0, seed=0)], PARAMS, (), metrics=("cd_ap",), workers=1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InputError, match="unknown metrics"):
            evaluate([], PARAMS, (), metrics=("iou",), workers=1)

    def test_unknown_class_warn_vs_error(self, caplog):
        scene = synthesize_scenario("shift", 1.0, seed=0)
        scene.classes["curb"] = scene.classes.pop("boundary")
        with caplog.at_level("WARNING"):
            report = evaluate([scene], PARAMS, (), metrics=("dap",), workers=1)
        assert all(rep.class_name != "curb" for rep in report.class_reports)
        assert any("curb" in message for message in caplog.messages)
        with pytest.raises(InputError, match="curb"):
            evaluate([scene], PARAMS, (), metrics=("dap",), workers=1, unknown_class="error")

    def test_missing_class_counts_as_empty(self):
        with_both = synthesize_scenario("shift", 1.0, seed=0)
        only_divider = synthesize_scenario("misorder", 0.0, seed=1)
        report = evaluate([with_both, only_divider], PARAMS, (), metrics=("dap",), workers=1)
        boundary = next(rep for rep in report.class_reports if rep.class_name == "boundary")
        assert boundary.sample_count == 2

    def test_worker_counts_do_not_change_metrics(self):
        scenes = [synthesize_scenario("shift", 1.0, seed=k) for k in range(4)]
        cfg = [ApConfig((1.0, 1.5), "chamfer")]
        reports = [
            evaluate(scenes, PARAMS, cfg, metrics=("dap", "cd_ap"), workers=w).metrics_dict()
            for w in (1, 3)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)

    def test_top_k_truncates_predictions(self):
        scene = synthesize_scenario("spurious_instances", 4, seed=0)
        full = evaluate([scene], PARAMS, (), metrics=("dap",), workers=1)
        trimmed = evaluate([scene], PARAMS, (), metrics=("dap",), workers=1,
                           top_k=len(scene.classes["divider"].ground_truth))
        assert trimmed.mdap <= full.mdap

    def test_negative_top_k_rejected(self):
        scene = synthesize_scenario("spurious_instances", 4, seed=0)
        with pytest.raises(InputError, match="top_k"):
            evaluate([scene], PARAMS, (), metrics=("dap",), workers=1, top_k=-1)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers):
        scene = synthesize_scenario("spurious_instances", 4, seed=0)
        with pytest.raises(InputError, match="workers must be >= 1"):
            evaluate([scene], PARAMS, (), metrics=("dap",), workers=workers)

    def test_no_ground_truth_warns_once_per_class(self, caplog):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scenes"][0]["classes"]["divider"]["ground_truth"] = []
        scenes = load_scenes_from(payload)
        configs = [ApConfig((0.5, 1.0, 1.5), "chamfer"), ApConfig((0.5, 1.0, 1.5), "frechet")]
        with caplog.at_level("WARNING", logger="mapscore.dataset"):
            evaluate(scenes, PARAMS, configs, metrics=("dap", "cd_ap", "fd_ap"), workers=1)
        warnings = [r for r in caplog.records if "no ground truth" in r.getMessage()]
        assert len(warnings) == 1
        assert "divider" in warnings[0].getMessage()

    def test_invalid_sampling(self):
        with pytest.raises(InputError):
            evaluate([], PARAMS, (), sampling=0.0, metrics=("dap",), workers=1)

    def test_runtime_excluded_from_metrics_dict(self):
        report = evaluate([synthesize_scenario("shift", 1.0, seed=0)], PARAMS, (), metrics=("dap",), workers=1)
        payload = report.metrics_dict()
        assert "runtime_ms" not in json.dumps(payload)
        assert "runtime_ms" in json.dumps(report.to_dict())

    def test_class_means_keep_p1_identity(self):
        scenes = [synthesize_scenario(kind, 1.0, seed=k)
                  for k, kind in enumerate(["shift", "misorder", "drop_tail", "outlier_point"])]
        report = evaluate(scenes, PARAMS, (), metrics=("dap",), workers=1)
        for rep in report.class_reports:
            assert rep.dap_mean == pytest.approx(rep.loc_mean + rep.det_mean, abs=1e-9)
        assert report.mdap == pytest.approx(report.mloc + report.mdet, abs=1e-9)
