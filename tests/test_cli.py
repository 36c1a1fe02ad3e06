import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mapscore.cli import _parse_geometry, main
from mapscore.dap import pair_base_distance
from mapscore.geometry import MetricParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_scipy():
    # The metrics run on the package's own kernels; scipy is a test-only oracle.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, mapscore, mapscore.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestSynth:
    def test_writes_requested_count(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        code, stdout, _ = run(capsys, "synth", "--kind", "shift", "--magnitude", "1.0",
                              "--count", "5", "--seed", "3", "--out", str(out))
        assert code == 0
        assert "5 samples" in stdout
        payload = json.loads(out.read_text())
        assert len(payload["scenes"]) == 5

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "synth", "--kind", "spurious_instances", "--magnitude", "4",
            "--count", "3", "--seed", "9", "--out", str(a))
        run(capsys, "synth", "--kind", "spurious_instances", "--magnitude", "4",
            "--count", "3", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def make_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        run(capsys, "synth", "--kind", "shift", "--magnitude", "1.0",
            "--count", "3", "--seed", "0", "--out", str(out))
        return out

    def test_eval_prints_report(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, capsys)
        code, stdout, _ = run(capsys, "eval", "--input", str(corpus),
                              "--cd-thresholds", "1.0,1.5,2.0", "--workers", "1")
        assert code == 0
        assert "mDAP=0.8889" in stdout
        assert "mAP[cd_ap]=1.0000" in stdout

    def test_metrics_dap_only_hides_ap_columns(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, capsys)
        code, stdout, _ = run(capsys, "eval", "--input", str(corpus),
                              "--metrics", "dap", "--workers", "1")
        assert code == 0
        assert "cd_ap" not in stdout
        assert "mDAP" in stdout

    def test_output_json_written(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, capsys)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "eval", "--input", str(corpus), "--metrics", "dap",
                         "--workers", "1", "--output", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["mdap"] == pytest.approx(0.8888888888888889, abs=1e-9)

    def test_bad_schema_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenes": [{"sample_id": "s", "classes": {
            "divider": {"predictions": [{"confidence": 2.0, "points": [[0, 0], [1, 0]]}]}}}]}))
        code, _, stderr = run(capsys, "eval", "--input", str(bad), "--workers", "1")
        assert code == 3
        assert "confidence" in stderr

    def test_negative_top_k_exits_two(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, capsys)
        code, stdout, stderr = run(capsys, "eval", "--input", str(corpus), "--metrics", "dap",
                                   "--workers", "1", "--top-k", "-1")
        assert code == 2
        assert "top_k" in stderr
        assert "mDAP" not in stdout

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        corpus = self.make_corpus(tmp_path, capsys)
        code, stdout, stderr = run(capsys, "eval", "--input", str(corpus), "--metrics", "dap", "--workers", workers)
        assert code == 2
        assert "workers" in stderr
        assert "mDAP" not in stdout

    def test_boolean_coordinate_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenes": [{"sample_id": "s", "classes": {
            "divider": {"ground_truth": [{"points": [[0, 0], [True, 0]]}]}}}]}))
        code, _, stderr = run(capsys, "eval", "--input", str(bad), "--workers", "1")
        assert code == 3
        assert "ground_truth[0].points[1]" in stderr

    def test_mixed_point_dimensions_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenes": [{"sample_id": "s", "classes": {"divider": {
            "ground_truth": [{"points": [[0, 0], [1, 0]]}],
            "predictions": [{"confidence": 0.5, "points": [[0, 0, 0], [1, 0, 0]]}]}}}]}))
        code, stdout, stderr = run(capsys, "eval", "--input", str(bad), "--workers", "1")
        assert code == 3
        assert "predictions[0].points" in stderr
        assert "mDAP" not in stdout

    def test_missing_file_exits_two(self, capsys):
        code, _, stderr = run(capsys, "eval", "--input", "/nonexistent/scenes.json", "--workers", "1")
        assert code == 2
        assert "error" in stderr


class TestPair:
    def test_swapped_order_showcase(self, capsys):
        code, stdout, _ = run(capsys, "pair", "--a", "0,0;1,0", "--b", "1,0;0,0", "--cutoff", "1.0")
        assert code == 0
        assert "sospa: 1.0" in stdout
        assert "unordered reference: 0.0" in stdout
        assert "chamfer: 0.0" in stdout

    def test_identical_inputs_all_zero(self, capsys):
        code, stdout, _ = run(capsys, "pair", "--a", "0,0;1,0;2,0", "--b", "0,0;1,0;2,0")
        assert code == 0
        assert "sospa: 0.0" in stdout
        assert "chamfer: 0.0" in stdout
        assert "frechet: 0.0" in stdout

    def test_closed_pair_uses_cyclic(self, capsys):
        code, stdout, _ = run(capsys, "pair", "--a", "0,0;1,0;1,1;0,1", "--b", "1,0;1,1;0,1;0,0",
                              "--closed-a", "--closed-b")
        assert code == 0
        assert "cyclic sospa: 0.0" in stdout

    @pytest.mark.parametrize(
        "a, b, flags",
        [
            ("0,0;1,0;2,0", "2,0;1,0;0,0", ()),
            ("0,0;1,0;1,1;0,1", "0,1;1,1;1,0;0,0", ("--closed-a", "--closed-b")),
        ],
        ids=["open", "closed"],
    )
    def test_normalized_is_the_direction_minimum(self, capsys, a, b, flags):
        # b is a traversed backwards: the direction minimum, and so the base distance, is 0.
        code, stdout, _ = run(capsys, "pair", "--a", a, "--b", b, "--cutoff", "1.0", *flags)
        closed = bool(flags)
        base, _ = pair_base_distance(_parse_geometry(a, closed), _parse_geometry(b, closed), MetricParams(1.0))
        assert code == 0
        assert "(direction min): 0.0 reversed=True" in stdout
        assert base == 0.0
        assert f"normalized: {base!r}\n" in stdout

    def test_kind_mismatch_warns(self, capsys):
        code, stdout, _ = run(capsys, "pair", "--a", "0,0;1,0;1,1", "--b", "0,0;1,0;1,1", "--closed-b")
        assert code == 0
        assert "warning" in stdout
        assert "1.0" in stdout

    def test_overflowing_cutoff_exits_two(self, capsys):
        code, stdout, stderr = run(capsys, "pair", "--a", "0,0;1,0", "--b", "0,1;1,1", "--cutoff", "1.7e308")
        assert code == 2
        assert stdout == ""
        assert "overflows" in stderr

    def test_geometry_file_input(self, tmp_path, capsys):
        geom = tmp_path / "geom.json"
        geom.write_text(json.dumps({"points": [[0, 0], [1, 0]], "closed": False}))
        code, stdout, _ = run(capsys, "pair", "--a", f"@{geom}", "--b", "0,0;1,0")
        assert code == 0
        assert "sospa: 0.0" in stdout

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"points": "abc"}, r"geom\.json:points: must be a non-empty list"),
            ({"points": [[0, 0], [1, 0, 5]]}, r"geom\.json:points\[1\]: has 3 coordinates"),
            ({"points": [[True, 0], [1, 0]]}, r"geom\.json:points\[0\]: must be a list of >= 2 numbers"),
            ({"points": [[0, 0], [1, 0]], "closed": "yes"}, r"geom\.json:closed: must be a boolean"),
            ([[0, 0], [1, 0]], r"geom\.json: must be an object"),
            ({"closed": False}, r"geom\.json: missing field 'points'"),
            ({"points": [[0, 0], [1, 0]], "closd": True}, r"geom\.json: unknown fields \['closd'\]"),
            ('{points: [[0, 0], [1, 0]]}', r"geom\.json: not valid JSON \(Expecting property name"),
        ],
        ids=[
            "string-points",
            "ragged",
            "boolean-coordinate",
            "string-closed",
            "not-an-object",
            "no-points",
            "unknown-field",
            "json-syntax",
        ],
    )
    def test_bad_geometry_file_exits_three(self, tmp_path, capsys, payload, field):
        # The file follows the scene schema: nothing is coerced, and the error names the file and field.
        geom = tmp_path / "geom.json"
        geom.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, stdout, stderr = run(capsys, "pair", "--a", f"@{geom}", "--b", "0,0;1,0")
        assert code == 3
        assert stdout == ""
        assert re.search(field, stderr), stderr

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0,0;1,x", "point '1,x' has a coordinate that is not a number"),
            ("0,0;1,0,5", "point '1,0,5' has 3 coordinates, but the first point has 2"),
            ("0,0;1", "point '1' needs at least two coordinates"),
        ],
        ids=["not-a-number", "ragged", "one-coordinate"],
    )
    def test_bad_inline_point_exits_two(self, capsys, spec, message):
        code, stdout, stderr = run(capsys, "pair", "--a", spec, "--b", "0,0;1,0")
        assert code == 2
        assert stdout == ""
        assert message in stderr


class TestWorkersEnv:
    def test_env_var_overrides_default(self, monkeypatch):
        from mapscore.cli import _default_workers

        monkeypatch.setenv("MAPSCORE_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("MAPSCORE_WORKERS", "not-a-number")
        assert _default_workers() >= 1


class TestOracle:
    def test_small_scale_passes(self, capsys):
        code, stdout, _ = run(capsys, "oracle", "--seed", "1", "--scale", "0.01")
        assert code == 0
        assert "[pass]" in stdout
        assert "[FAIL]" not in stdout

    def test_cyclic_triangle_flag(self, capsys):
        code, stdout, _ = run(capsys, "oracle", "--seed", "2", "--scale", "0.01", "--log-cyclic-triangle")
        assert code == 0
        assert "informational" in stdout
