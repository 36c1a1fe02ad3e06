"""Scene-file ingestion, synthetic scenarios, and the evaluation harness.

A scene file is one JSON document::

    {"scenes": [{"sample_id": str,
                 "classes": {"<name>": {
                     "ground_truth": [{"points": [[x, y], ...], "closed": bool}],
                     "predictions": [{"confidence": float, "points": [[x, y], ...],
                                      "closed": bool}]}}}]}

Ground-truth instances always carry confidence 1.0; an explicit confidence
other than 1.0 is rejected. Evaluation resamples every geometry at the
requested spacing, scores the requested metric families per (sample,
class), and aggregates: the soft metric is averaged per class over
samples, AP pools (confidence, TP/FP) records across samples per class and
threshold. Worker count never changes any reported metric value.
"""
from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import ap_from_records, match_predictions, mean_ap
from .dap import DapAggregate, Instance, InstanceSet, dap, mdap
from .errors import InputError, SchemaError
from .geometry import MetricParams, Polyline, resample_equidistant

log = logging.getLogger(__name__)

# Default class vocabulary: name -> geometry is closed.
VOCABULARY: dict[str, bool] = {"crossing": True, "divider": False, "boundary": False}

SCENARIO_KINDS = ("shift", "misorder", "drop_tail", "spurious_instances", "outlier_point")
METRIC_FAMILIES = ("dap", "cd_ap", "fd_ap")
_FAMILY_BASE = {"cd_ap": "chamfer", "fd_ap": "frechet"}


@dataclass
class SceneClass:
    """Ground truth and predictions of one class within one sample."""

    ground_truth: list[Instance] = field(default_factory=list)
    predictions: list[Instance] = field(default_factory=list)


@dataclass
class SceneRecord:
    """One evaluation sample."""

    sample_id: str
    classes: dict[str, SceneClass] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Scene file I/O


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _is_number(value) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers here.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_points(raw, path: str) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) >= 1, path, "must be a non-empty list of [x, y] points")
    for k, pt in enumerate(raw):
        _require(
            isinstance(pt, list) and len(pt) >= 2 and all(_is_number(v) for v in pt),
            f"{path}[{k}]",
            "must be a list of >= 2 numbers",
        )
        _require(all(math.isfinite(float(v)) for v in pt), f"{path}[{k}]", "coordinates must be finite")
        _require(len(pt) == len(raw[0]), f"{path}[{k}]", f"has {len(pt)} coordinates, but {path}[0] has {len(raw[0])}")
    return np.asarray(raw, dtype=np.float64)


def _parse_instance(raw, path: str, class_name: str, is_gt: bool) -> Instance:
    _require(isinstance(raw, dict), path, "must be an object")
    allowed = {"points", "closed", "confidence"}
    extras = set(raw) - allowed
    _require(not extras, path, f"unknown fields {sorted(extras)}")
    _require("points" in raw, path, "missing field 'points'")
    closed = raw.get("closed", False)
    _require(isinstance(closed, bool), f"{path}.closed", "must be a boolean")
    pts = _parse_points(raw["points"], f"{path}.points")
    if is_gt:
        conf = raw.get("confidence", 1.0)
        _require(_is_number(conf), f"{path}.confidence", "must be a number")
        _require(float(conf) == 1.0, f"{path}.confidence", f"ground truth must have confidence 1.0, got {conf}")
        confidence = 1.0
    else:
        _require("confidence" in raw, path, "missing field 'confidence'")
        conf = raw["confidence"]
        _require(_is_number(conf), f"{path}.confidence", "must be a number")
        _require(
            math.isfinite(float(conf)) and 0.0 <= float(conf) <= 1.0,
            f"{path}.confidence",
            f"must lie in [0, 1], got {conf}",
        )
        confidence = float(conf)
    try:
        geometry = Polyline(pts, closed=closed)
    except InputError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return Instance(confidence=confidence, geometry=geometry, class_label=class_name)


def scenes_from_dict(payload: dict) -> list[SceneRecord]:
    """Validate one decoded scene document and build the records.

    Every point in the document must have the dimension of the first one, so
    that any two instances can be compared.
    """
    _require(isinstance(payload, dict), "$", "top level must be an object")
    _require("scenes" in payload, "$", "missing field 'scenes'")
    _require(isinstance(payload["scenes"], list), "scenes", "must be a list")
    records = []
    seen_ids = set()
    dim = None
    for idx, raw_scene in enumerate(payload["scenes"]):
        path = f"scenes[{idx}]"
        _require(isinstance(raw_scene, dict), path, "must be an object")
        _require("sample_id" in raw_scene, path, "missing field 'sample_id'")
        sample_id = raw_scene["sample_id"]
        _require(isinstance(sample_id, str) and sample_id, f"{path}.sample_id", "must be a non-empty string")
        _require(sample_id not in seen_ids, f"{path}.sample_id", f"duplicate sample_id {sample_id!r}")
        seen_ids.add(sample_id)
        path = f"scenes[{idx}]:{sample_id}"
        raw_classes = raw_scene.get("classes", {})
        _require(isinstance(raw_classes, dict), f"{path}.classes", "must be an object")
        classes = {}
        for name, raw_class in raw_classes.items():
            cpath = f"{path}.classes.{name}"
            _require(isinstance(raw_class, dict), cpath, "must be an object")
            gt = [
                _parse_instance(inst, f"{cpath}.ground_truth[{k}]", name, is_gt=True)
                for k, inst in enumerate(raw_class.get("ground_truth", []))
            ]
            preds = [
                _parse_instance(inst, f"{cpath}.predictions[{k}]", name, is_gt=False)
                for k, inst in enumerate(raw_class.get("predictions", []))
            ]
            for role, instances in (("ground_truth", gt), ("predictions", preds)):
                for k, inst in enumerate(instances):
                    dim = inst.geometry.dim if dim is None else dim
                    _require(
                        inst.geometry.dim == dim,
                        f"{cpath}.{role}[{k}].points",
                        f"points are {inst.geometry.dim}-D, but the first instance in the file has {dim}-D points",
                    )
            classes[name] = SceneClass(ground_truth=gt, predictions=preds)
        records.append(SceneRecord(sample_id=sample_id, classes=classes))
    return records


def load_scenes(path) -> list[SceneRecord]:
    """Read and validate a scene file; schema errors carry the field path."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    return scenes_from_dict(payload)


def _instance_to_dict(inst: Instance, is_gt: bool) -> dict:
    out = {"points": [[float(v) for v in pt] for pt in inst.geometry.points], "closed": inst.geometry.closed}
    if not is_gt:
        out["confidence"] = float(inst.confidence)
    return out


def scenes_to_dict(scenes: list[SceneRecord]) -> dict:
    return {
        "scenes": [
            {
                "sample_id": scene.sample_id,
                "classes": {
                    name: {
                        "ground_truth": [_instance_to_dict(i, True) for i in cls.ground_truth],
                        "predictions": [_instance_to_dict(i, False) for i in cls.predictions],
                    }
                    for name, cls in scene.classes.items()
                },
            }
            for scene in scenes
        ]
    }


def save_scenes(scenes: list[SceneRecord], path) -> None:
    """Write a scene file; output bytes are deterministic for equal records."""
    payload = json.dumps(scenes_to_dict(scenes), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(payload + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic scenarios


def _line_instance(start_x: float, y: float, length_steps: int, class_name: str, closed: bool = False) -> Instance:
    pts = np.array([[start_x + k, y] for k in range(length_steps + 1)], dtype=np.float64)
    return Instance(confidence=1.0, geometry=Polyline(pts, closed=closed), class_label=class_name)


def _translated(inst: Instance, dx: float, dy: float, confidence: float = 1.0) -> Instance:
    pts = inst.geometry.points + np.array([dx, dy])
    return Instance(confidence=confidence, geometry=Polyline._trusted(pts, inst.geometry.closed), class_label=inst.class_label)


def _ground_truth_lines(rng: np.random.Generator, class_name: str, count: int) -> list[Instance]:
    # Horizontal lines with half-meter-grid coordinates, vertices every 1 m,
    # vertically separated by at least 2 m so instances never interact.
    rows = rng.permutation(np.arange(-10, 11, 2))[:count]
    out = []
    for y in sorted(rows.tolist()):
        length = int(rng.integers(4, 11))
        start = float(rng.integers(-16, 5)) * 0.5
        out.append(_line_instance(start, float(y), length, class_name))
    return out


def _scramble(rng: np.random.Generator, pts: np.ndarray) -> np.ndarray:
    n = len(pts)
    while True:
        perm = rng.permutation(n)
        if not (np.array_equal(perm, np.arange(n)) or np.array_equal(perm, np.arange(n)[::-1])):
            return pts[perm]


def synthesize_scenario(kind: str, magnitude: float, seed: int, sample_id: str | None = None) -> SceneRecord:
    """Deterministic one-sample scenario realizing a named prediction pathology.

    ``shift`` translates every instance by ``magnitude`` meters perpendicular
    to its direction; ``misorder`` scrambles the vertex order of one
    prediction; ``drop_tail`` truncates the trailing ``magnitude`` fraction;
    ``spurious_instances`` adds ``magnitude`` far-away unit-confidence
    instances per ground-truth element; ``outlier_point`` displaces one
    vertex by ``magnitude`` meters.
    """
    if kind not in SCENARIO_KINDS:
        raise InputError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    rng = np.random.default_rng(np.random.SeedSequence([SCENARIO_KINDS.index(kind), int(seed)]))
    classes: dict[str, SceneClass] = {}
    if kind == "shift":
        for name, count in (("divider", 2), ("boundary", 2)):
            gt = _ground_truth_lines(rng, name, count)
            preds = [_translated(g, 0.0, magnitude) for g in gt]
            classes[name] = SceneClass(ground_truth=gt, predictions=preds)
    elif kind == "misorder":
        gt = _ground_truth_lines(rng, "divider", 2)
        preds = []
        for g in gt:
            pts = _scramble(rng, g.geometry.points)
            preds.append(Instance(1.0, Polyline(pts), class_label="divider"))
        classes["divider"] = SceneClass(ground_truth=gt, predictions=preds)
    elif kind == "drop_tail":
        frac = min(max(float(magnitude), 0.0), 0.9)
        gt = _ground_truth_lines(rng, "divider", 2)
        preds = []
        for g in gt:
            keep = max(2, math.ceil(len(g.geometry.points) * (1.0 - frac)))
            preds.append(Instance(1.0, Polyline(g.geometry.points[:keep].copy()), class_label="divider"))
        classes["divider"] = SceneClass(ground_truth=gt, predictions=preds)
    elif kind == "spurious_instances":
        extra = int(magnitude)
        gt = _ground_truth_lines(rng, "divider", 1 + int(rng.integers(0, 2)))
        preds = [_translated(g, 0.0, 0.0) for g in gt]
        offset = 50.0
        for g in gt:
            for k in range(extra):
                preds.append(_translated(g, 0.0, offset + 10.0 * k))
            offset += 100.0
        classes["divider"] = SceneClass(ground_truth=gt, predictions=preds)
    else:  # outlier_point
        gt = _ground_truth_lines(rng, "divider", 2)
        preds = []
        for g in gt:
            pts = g.geometry.points.copy()
            pts[len(pts) // 2, 1] += float(magnitude)
            preds.append(Instance(1.0, Polyline(pts), class_label="divider"))
        classes["divider"] = SceneClass(ground_truth=gt, predictions=preds)
    return SceneRecord(sample_id=sample_id or f"{kind}-{seed:06d}", classes=classes)


# ---------------------------------------------------------------------------
# Evaluation harness


@dataclass
class ClassReport:
    """Aggregated per-class outputs of one evaluation run."""

    class_name: str
    sample_count: int
    dap_mean: float | None
    loc_mean: float | None
    det_mean: float | None
    ap_per_threshold: dict[str, dict[float, float]]
    runtime_ms: dict[str, float]


@dataclass
class EvaluationReport:
    """Per-class reports plus the class-wise means."""

    class_reports: list[ClassReport]
    mdap: float | None
    mloc: float | None
    mdet: float | None
    mean_ap: dict[str, float]
    sample_count: int
    sampling: float
    cutoff_c: float
    exponent_p: float

    def metrics_dict(self) -> dict:
        """Stable machine-readable payload; runtimes are excluded on purpose."""
        return {
            "sample_count": self.sample_count,
            "sampling": self.sampling,
            "cutoff_c": self.cutoff_c,
            "exponent_p": self.exponent_p,
            "mdap": self.mdap,
            "mloc": self.mloc,
            "mdet": self.mdet,
            "mean_ap": dict(sorted(self.mean_ap.items())),
            "classes": [
                {
                    "class_name": rep.class_name,
                    "sample_count": rep.sample_count,
                    "dap_mean": rep.dap_mean,
                    "loc_mean": rep.loc_mean,
                    "det_mean": rep.det_mean,
                    "ap_per_threshold": {
                        family: {repr(t): ap for t, ap in sorted(by_t.items())}
                        for family, by_t in sorted(rep.ap_per_threshold.items())
                    },
                }
                for rep in self.class_reports
            ],
        }

    def to_dict(self) -> dict:
        payload = self.metrics_dict()
        for entry, rep in zip(payload["classes"], self.class_reports):
            entry["runtime_ms"] = dict(sorted(rep.runtime_ms.items()))
        return payload


@dataclass
class _WorkItem:
    scene_index: int
    class_name: str
    ground_truth: list[Instance]
    predictions: list[Instance]
    params: MetricParams
    sampling: float
    metrics: tuple[str, ...]
    ap_thresholds: dict[str, tuple[float, ...]]


@dataclass
class _WorkResult:
    scene_index: int
    class_name: str
    dap_triple: tuple[float, float, float] | None
    ap_records: dict[str, dict[float, list[tuple[float, bool]]]]
    gt_count: int
    runtime: dict[str, float]


def _resample_instance(inst: Instance, sampling: float) -> Instance:
    geom = inst.geometry
    if geom.closed:
        if len(geom) < 3:
            return inst
    elif len(geom) < 2:
        return inst
    return Instance(inst.confidence, resample_equidistant(geom, sampling), inst.class_label)


def _run_work_item(item: _WorkItem) -> _WorkResult:
    gt = [_resample_instance(i, item.sampling) for i in item.ground_truth]
    preds = [_resample_instance(i, item.sampling) for i in item.predictions]
    runtime: dict[str, float] = {}
    dap_triple = None
    if "dap" in item.metrics:
        start = time.perf_counter()
        result = dap(InstanceSet(gt), InstanceSet(preds), item.params)
        runtime["dap"] = time.perf_counter() - start
        dap_triple = (result.normalized_value, result.normalized_loc, result.normalized_det)
    ap_records: dict[str, dict[float, list[tuple[float, bool]]]] = {}
    pred_geoms = [(p.confidence, p.geometry) for p in preds]
    gt_geoms = [g.geometry for g in gt]
    for family in ("cd_ap", "fd_ap"):
        if family not in item.metrics:
            continue
        start = time.perf_counter()
        per_threshold = {}
        for tau in item.ap_thresholds[family]:
            per_threshold[tau] = match_predictions(pred_geoms, gt_geoms, _FAMILY_BASE[family], tau)
        runtime[family] = time.perf_counter() - start
        ap_records[family] = per_threshold
    return _WorkResult(
        scene_index=item.scene_index,
        class_name=item.class_name,
        dap_triple=dap_triple,
        ap_records=ap_records,
        gt_count=len(gt),
        runtime=runtime,
    )


def evaluate(
    scenes: list[SceneRecord],
    params: MetricParams,
    ap_configs=(),
    sampling: float = 0.5,
    metrics: tuple[str, ...] = ("dap", "cd_ap"),
    workers: int = 1,
    *,
    vocabulary: dict[str, bool] | None = None,
    unknown_class: str = "warn",
    top_k: int | None = None,
) -> EvaluationReport:
    """Score a scene list and aggregate per class.

    ``ap_configs`` supplies one :class:`~mapscore.baselines.ApConfig` per
    requested AP family (its ``base`` selects the family). Classes missing
    from a sample count as empty-vs-empty for that sample. ``workers``
    parallelizes over (sample, class) work items without changing any
    output value.
    """
    if sampling <= 0 or not math.isfinite(sampling):
        raise InputError(f"sampling must be finite and > 0, got {sampling}")
    unknown = set(metrics) - set(METRIC_FAMILIES)
    if unknown:
        raise InputError(f"unknown metrics {sorted(unknown)}; expected subset of {METRIC_FAMILIES}")
    if unknown_class not in ("warn", "error"):
        raise InputError("unknown_class must be 'warn' or 'error'")
    if top_k is not None and top_k < 0:
        raise InputError(f"top_k must be >= 0, got {top_k}")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    vocab = VOCABULARY if vocabulary is None else vocabulary

    ap_thresholds: dict[str, tuple[float, ...]] = {}
    base_to_family = {base: family for family, base in _FAMILY_BASE.items()}
    for config in ap_configs:
        ap_thresholds[base_to_family[config.base]] = config.thresholds
    for family in metrics:
        if family != "dap" and family not in ap_thresholds:
            raise InputError(f"metric {family!r} requested but no ApConfig with base "
                             f"{_FAMILY_BASE[family]!r} was provided")

    class_names: set[str] = set()
    for scene in scenes:
        for name in scene.classes:
            if name not in vocab:
                if unknown_class == "error":
                    raise InputError(f"sample {scene.sample_id!r}: unknown class {name!r}")
                log.warning("sample %s: skipping unknown class %r", scene.sample_id, name)
                continue
            class_names.add(name)
    ordered_classes = sorted(class_names)

    items = []
    for idx, scene in enumerate(scenes):
        for name in ordered_classes:
            cls = scene.classes.get(name, SceneClass())
            preds = cls.predictions
            if top_k is not None and len(preds) > top_k:
                order = sorted(range(len(preds)), key=lambda k: -preds[k].confidence)[:top_k]
                preds = [preds[k] for k in sorted(order)]
            items.append(
                _WorkItem(idx, name, cls.ground_truth, preds, params, sampling, tuple(metrics), ap_thresholds)
            )

    if workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(items) // (workers * 4))
            results = list(pool.map(_run_work_item, items, chunksize=chunk))
    else:
        results = [_run_work_item(item) for item in items]

    reports = []
    per_class_agg: dict[str, DapAggregate] = {}
    per_class_ap: dict[str, dict[str, dict[float, float]]] = {}
    for name in ordered_classes:
        rows = [r for r in results if r.class_name == name]
        rows.sort(key=lambda r: r.scene_index)
        runtime_ms = {}
        for family in metrics:
            total = math.fsum(r.runtime.get(family, 0.0) for r in rows)
            runtime_ms[family] = 1000.0 * total
        dap_mean = loc_mean = det_mean = None
        if "dap" in metrics:
            count = max(1, len(rows))
            dap_mean = math.fsum(r.dap_triple[0] for r in rows) / count
            loc_mean = math.fsum(r.dap_triple[1] for r in rows) / count
            det_mean = math.fsum(r.dap_triple[2] for r in rows) / count
            per_class_agg[name] = DapAggregate(dap_mean, loc_mean, det_mean)
        ap_per_threshold: dict[str, dict[float, float]] = {}
        gt_total = sum(r.gt_count for r in rows)
        if gt_total == 0 and any(family in metrics for family in _FAMILY_BASE):
            log.warning("class %s: no ground truth at any sample; AP convention applies", name)
        for family in ("cd_ap", "fd_ap"):
            if family not in metrics:
                continue
            by_threshold = {}
            for tau in ap_thresholds[family]:
                pooled: list[tuple[float, bool]] = []
                for r in rows:
                    pooled.extend(r.ap_records[family][tau])
                by_threshold[tau] = ap_from_records(pooled, gt_total)
            ap_per_threshold[family] = by_threshold
        per_class_ap[name] = ap_per_threshold
        reports.append(
            ClassReport(
                class_name=name,
                sample_count=len(scenes),
                dap_mean=dap_mean,
                loc_mean=loc_mean,
                det_mean=det_mean,
                ap_per_threshold=ap_per_threshold,
                runtime_ms=runtime_ms,
            )
        )

    overall_mdap = overall_mloc = overall_mdet = None
    if "dap" in metrics and per_class_agg:
        means = mdap(per_class_agg)
        overall_mdap, overall_mloc, overall_mdet = means.mdap, means.mloc, means.mdet
    mean_ap_by_family = {
        family: mean_ap({name: per_class_ap[name][family] for name in ordered_classes})
        for family in ("cd_ap", "fd_ap")
        if family in metrics and ordered_classes
    }

    return EvaluationReport(
        class_reports=reports,
        mdap=overall_mdap,
        mloc=overall_mloc,
        mdet=overall_mdet,
        mean_ap=mean_ap_by_family,
        sample_count=len(scenes),
        sampling=sampling,
        cutoff_c=params.cutoff_c,
        exponent_p=params.exponent_p,
    )
