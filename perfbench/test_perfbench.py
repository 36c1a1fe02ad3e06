"""Self-tests of the benchmark's generators and tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import mapscore  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from mapscore.dataset import _resample_instance  # noqa: E402


def _scene_bytes(scenes) -> list[bytes]:
    out = []
    for scene in scenes:
        for name, cls in sorted(scene.classes.items()):
            for inst in cls.ground_truth + cls.predictions:
                out.append(name.encode() + inst.geometry.points.tobytes() + repr(inst.confidence).encode())
    return out


@pytest.mark.parametrize(
    "make, to_bytes",
    [
        (wl.open_pair, lambda pair: [pair[0].points.tobytes(), pair[1].points.tobytes()]),
        (wl.soft_open_batch, _scene_bytes),
        (wl.polygon_batch, _scene_bytes),
        (lambda seed, index: wl.cli_scenes(seed + index), _scene_bytes),
    ],
)
def test_generators_are_deterministic_per_seed(make, to_bytes):
    assert to_bytes(make(7, 3)) == to_bytes(make(7, 3))
    assert to_bytes(make(7, 3)) != to_bytes(make(8, 3))


def test_pair_open_never_repeats_a_geometry():
    seen = set()
    for index in range(2000):
        x, y = wl.open_pair(0, index)
        seen.update((x.points.tobytes(), y.points.tobytes()))
    assert len(seen) == 4000


def test_pair_open_is_shaped_like_the_criterion_12_pair():
    sizes = [tuple(len(line) for line in wl.open_pair(0, index)) for index in range(50)]
    assert 45 <= np.mean([n for n, _ in sizes]) <= 55
    assert 55 <= np.mean([m for _, m in sizes]) <= 65


def test_soft_open_seed_0_is_the_criterion_12_corpus():
    batch = wl.soft_open_batch(0, 0)
    expected = [mapscore.synthesize_scenario("spurious_instances", 9, seed=0), mapscore.synthesize_scenario("shift", 1.0, seed=0)]
    assert _scene_bytes(batch[:2]) == _scene_bytes(expected)


def test_soft_polygon_has_reversal_and_rotation_wins():
    reversed_wins = rotated_wins = 0
    for index in range(4):
        crossing = wl.polygon_sample(0, index).classes["crossing"]
        truth = [_resample_instance(i, wl.SAMPLING).geometry for i in crossing.ground_truth]
        preds = [_resample_instance(i, wl.SAMPLING).geometry for i in crossing.predictions]
        for a, b in zip(truth, preds):
            result = mapscore.cyclic_sospa_directional_min(a, b, wl.PARAMS)
            reversed_wins += result.used_reversal
            rotated_wins += result.best_shift_y != 0
    assert reversed_wins > 0
    assert rotated_wins > 0


def _digests(make, count, seed=0):
    out = []
    for index in range(count):
        item = make(seed, index)
        if make is wl.open_pair:
            out.append(wl.check_pair(item, wl.run_pair(item)))
        else:
            out.append(wl.check_report(item, wl.run_scenes(item)))
    return out


def _bindings():
    return {
        (mod_name, attr): value
        for mod_name, mod in sys.modules.items()
        if mod_name == "mapscore" or mod_name.startswith("mapscore.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("make, count", [(wl.open_pair, 5), (wl.soft_open_batch, 1), (wl.polygon_batch, 1)])
def test_trace_wrappers_restore_functions_and_keep_outputs(make, count):
    before = _bindings()
    plain = _digests(make, count)
    tracer = tracing.Tracer()
    with tracer:
        assert mapscore.sospa is not before[("mapscore", "sospa")]
        assert mapscore.sospa.__wrapped__ is before[("mapscore", "sospa")]
        traced = _digests(make, count)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == plain == _digests(make, count)
    assert tracer.counts["dp.edit_table.calls"] > 0
    name = {wl.open_pair: "pair-open", wl.soft_open_batch: "soft-open", wl.polygon_batch: "soft-polygon"}[make]
    reference = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
    assert plain == reference["workloads"][name][:count]


def test_trace_wraps_each_from_import_binding():
    sospa_module, cyclic_module, dp = (sys.modules[f"mapscore.{name}"] for name in ("sospa", "cyclic", "_dp"))
    original = dp.edit_table
    with tracing.Tracer():
        assert sospa_module.edit_table is not original
        assert cyclic_module.edit_table is not original
        assert sospa_module.edit_table.__wrapped__ is original
    assert sospa_module.edit_table is cyclic_module.edit_table is original


def _unit_share(batches) -> float:
    tracer = tracing.Tracer()
    with tracer:
        for scenes in batches:
            wl.run_scenes(scenes)
    return tracing.layer_metrics(tracer.spans, tracer.counts)["dap.unit_distance_share"]


def test_far_pair_share_separates_the_corpora():
    assert _unit_share(wl.soft_open_batch(0, i) for i in range(3)) >= 0.75
    assert _unit_share(wl.polygon_batch(0, i) for i in range(2)) <= 0.25


def test_self_time_subtracts_direct_children():
    spans = [("outer", 0, 100, -1, 1), ("inner", 10, 40, 0, 1), ("leaf", 15, 25, 1, 1)]
    self_s = tracing.self_seconds(spans)
    assert self_s == pytest.approx({"outer": 70e-9, "inner": 20e-9, "leaf": 10e-9})


def test_calibrated_items_are_rescaled_by_the_slowness_around_them():
    class Echo:
        def run(self, item):
            return item

        def units(self, item):
            return 1

        def check(self, item, result):
            return str(result)

    assert calibration.scale(2.0, 2.0) == 0.5
    assert calibration.kernel() == calibration.kernel()
    assert calibration.fresh_process() > 0
    slowness = iter([1.0, 3.0, 1.0, 0.5, 0.5, 1.5])
    out = run.run_items(Echo(), range(5), 5, 0.0, slowness=lambda: next(slowness))
    assert out.digests == ["0", "1", "2", "3", "4"] and out.failed == 0
    assert out.scales == [0.5, 0.5, 4 / 3, 2.0, 1.0]
    assert out.busy == pytest.approx(sum(out.latencies))
    plain = run.run_items(Echo(), range(5), 5, 0.0)
    assert plain.scales == [1.0] * 5 and plain.busy == plain.raw_busy
