"""Seeded input generators and the per-item calls of the four workloads.

Every generator is a pure function of ``(seed, index)``: the same seed
always yields the same inputs, and the program only ever sees the
generated objects. Each workload item is one submission of a closed loop
with a single caller:

* ``pair-open``: one ``sospa`` call on a fresh open-polyline pair shaped
  like the acceptance-criterion-12 pair (about 50x61 points after 0.5 m
  resampling). Pairs never repeat, so memoizing calls cannot help.
* ``soft-open``: one ``evaluate(..., metrics=("dap",), workers=1)`` call
  on a batch of ten samples of the criterion-12 corpus (alternating
  ``spurious_instances`` magnitude 9 and ``shift`` 1.0 m). For seed 0 the
  first 50 batches are exactly that 500-sample corpus.
* ``soft-polygon``: one such ``evaluate`` call on one sample of
  overlapping closed crossing polygons (perimeters 10-26 m).
* ``cli-eval``: one ``mapscore eval --metrics dap,cd_ap,fd_ap`` process on
  a scene file written at set-up (open near-pair scenes plus a few
  polygons), with every other option at its default.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import mapscore
from mapscore import (
    ApConfig,
    Instance,
    MetricParams,
    Polyline,
    SceneClass,
    SceneRecord,
    resample_equidistant,
    synthesize_scenario,
)

PARAMS = MetricParams(cutoff_c=1.5, exponent_p=1.0)
SAMPLING = 0.5
SOFT_OPEN_BATCH = 10
# Seeds of the synthetic scenarios of seed n start at n * SEED_STRIDE, so
# seed 0 reproduces the criterion-12 corpus and other seeds never overlap it.
SEED_STRIDE = 100_000
CLI_METRICS = "dap,cd_ap,fd_ap"
CLI_OPEN_KINDS = (("shift", 1.0), ("misorder", 0.0), ("drop_tail", 0.4), ("outlier_point", 5.0))
CLI_OPEN_PER_KIND = 8
CLI_POLYGON_SAMPLES = 2

_PAIR_TAG = 1
_POLYGON_TAG = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_digest(item_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(item_digests).encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pair-open


def open_pair(seed: int, index: int) -> tuple[Polyline, Polyline]:
    """Criterion-12-shaped pair: a wavy 19.5 m line and a jittered copy, resampled at 0.5 m."""
    rng = np.random.default_rng(np.random.SeedSequence([_PAIR_TAG, seed, index]))
    base = np.column_stack([np.linspace(0.0, 19.5, 40), rng.uniform(-0.5, 0.5, 40)])
    x = resample_equidistant(Polyline(base), SAMPLING)
    y = resample_equidistant(Polyline(base + rng.uniform(-0.5, 0.5, base.shape)), SAMPLING)
    return x, y


# The calls under test go through the package attribute, which is one of the
# bindings the tracer wraps.
def run_pair(pair: tuple[Polyline, Polyline]):
    return mapscore.sospa(pair[0], pair[1], PARAMS)


def check_pair(pair: tuple[Polyline, Polyline], result) -> str:
    """Digest of the value; raises when the value leaves the metric's range."""
    x, y = pair
    bound = PARAMS.power_bound(len(x), len(y)) ** (1.0 / PARAMS.exponent_p)
    if not (0.0 <= result.value <= bound):
        raise ValueError(f"sospa value {result.value!r} outside [0, {bound!r}]")
    return digest(repr(result.value))


# ---------------------------------------------------------------------------
# soft-open


def soft_open_batch(seed: int, index: int) -> list[SceneRecord]:
    scenes = []
    for s in range(index * SOFT_OPEN_BATCH // 2, (index + 1) * SOFT_OPEN_BATCH // 2):
        scenario_seed = seed * SEED_STRIDE + s
        scenes.append(synthesize_scenario("spurious_instances", 9, seed=scenario_seed, sample_id=f"perf-s-{s}"))
        scenes.append(synthesize_scenario("shift", 1.0, seed=scenario_seed, sample_id=f"perf-t-{s}"))
    return scenes


def run_scenes(scenes: list[SceneRecord]):
    return mapscore.evaluate(scenes, PARAMS, (), sampling=SAMPLING, metrics=("dap",), workers=1)


def report_json(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


def check_report(scenes, report) -> str:
    """Digest of ``metrics_dict()``; raises when a mean leaves [0, 1]."""
    metrics = report.metrics_dict()
    for entry in metrics["classes"]:
        for key in ("dap_mean", "loc_mean", "det_mean"):
            value = entry[key]
            if value is not None and not (0.0 <= value <= 1.0 + 1e-12):
                raise ValueError(f"{entry['class_name']}.{key} = {value!r} outside [0, 1]")
    return digest(report_json(metrics))


# ---------------------------------------------------------------------------
# soft-polygon

# Perimeter range of the smaller crossing; the larger one gets the rest of a
# fixed total, which keeps the cost of every sample close to the same.
POLYGON_PERIMETERS = ((10.0, 18.0), 36.0)
# Smaller crossings for the CLI file, whose Frechet AP scans every rotation
# once per threshold.
CLI_POLYGON_PERIMETERS = ((10.0, 11.0), 22.0)


def _crossing(rng: np.random.Generator, perimeter: float) -> np.ndarray:
    """Rotated rectangle (aspect 1.5-3) with a vertex at each corner and edge midpoint."""
    aspect = rng.uniform(1.5, 3.0)
    height = perimeter / (2.0 * (1.0 + aspect))
    width = aspect * height
    corners = 0.5 * np.array([[-width, -height], [width, -height], [width, height], [-width, height]])
    ring = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        ring.extend([a, 0.5 * (a + b)])
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return np.asarray(ring) @ rot.T + rng.uniform(-2.0, 2.0, 2)


def polygon_sample(seed: int, index: int, perimeters=POLYGON_PERIMETERS) -> SceneRecord:
    """Two overlapping ground-truth crossings and two predictions.

    A prediction is a jittered copy with its start vertex rotated and, half
    of the time, its traversal reversed. In one sample of four, one ground
    truth is missed and an unrelated overlapping crossing of the same
    perimeter is predicted instead.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_POLYGON_TAG, seed, index]))
    (low, high), total = perimeters
    small = rng.uniform(low, high)
    missed = int(rng.integers(0, 2)) if rng.integers(0, 4) == 0 else -1
    ground_truth, predictions = [], []
    for k, perimeter in enumerate((small, total - small)):
        ring = _crossing(rng, perimeter)
        ground_truth.append(Instance(1.0, Polyline(ring, closed=True), "crossing"))
        if k == missed:
            pred = _crossing(rng, perimeter)
        else:
            pred = ring + rng.normal(0.0, 0.15, ring.shape)
            pred = np.roll(pred, -int(rng.integers(1, len(pred))), axis=0)
            if rng.random() < 0.5:
                pred = pred[::-1]
        predictions.append(Instance(float(rng.uniform(0.5, 1.0)), Polyline(pred, closed=True), "crossing"))
    return SceneRecord(f"polygon-{index}", {"crossing": SceneClass(ground_truth, predictions)})


def polygon_batch(seed: int, index: int) -> list[SceneRecord]:
    return [polygon_sample(seed, index)]


# ---------------------------------------------------------------------------
# cli-eval


def cli_scenes(seed: int) -> list[SceneRecord]:
    scenes = []
    for kind, magnitude in CLI_OPEN_KINDS:
        for k in range(CLI_OPEN_PER_KIND):
            scenario_seed = seed * SEED_STRIDE + k
            scenes.append(synthesize_scenario(kind, magnitude, seed=scenario_seed, sample_id=f"{kind}-{k}"))
    for k in range(CLI_POLYGON_SAMPLES):
        scenes.append(polygon_sample(seed, k, CLI_POLYGON_PERIMETERS))
    return scenes


def cli_argv(scene_path: str, output_path: str) -> list[str]:
    return ["eval", "--input", scene_path, "--metrics", CLI_METRICS, "--output", output_path]


def cli_reference_metrics(scenes: list[SceneRecord]) -> dict:
    """What ``mapscore eval`` must report, computed in process with one worker."""
    from mapscore.cli import DEFAULT_CD_THRESHOLDS, DEFAULT_FD_THRESHOLDS

    configs = (
        ApConfig(thresholds=DEFAULT_CD_THRESHOLDS, base="chamfer"),
        ApConfig(thresholds=DEFAULT_FD_THRESHOLDS, base="frechet"),
    )
    report = mapscore.evaluate(scenes, PARAMS, configs, sampling=SAMPLING, metrics=tuple(CLI_METRICS.split(",")), workers=1)
    return report.metrics_dict()


def cli_output_metrics(output_text: str) -> dict:
    """The ``--output`` report without its run times, i.e. its ``metrics_dict()`` part."""
    payload = json.loads(output_text)
    for entry in payload["classes"]:
        entry.pop("runtime_ms", None)
    return payload
