"""Span and counter tracing of mapscore's layers, installed from outside the package.

The tracer wraps the public functions of each layer module. A function
imported with ``from ... import`` has one binding per importing module
(``mapscore.sospa.edit_table`` and ``mapscore.cyclic.edit_table`` are two
names for one object), so every module attribute that *is* the original
function is replaced, and :meth:`Tracer.uninstall` puts each one back.

A span is ``(name, start_ns, end_ns, parent_index, pid)``; a layer's self
time is its span time minus the time of its direct child spans. Counters
are exact work counts (calls, DP cells, rotations scanned) plus the
numerators of the ratios below.

In a process forked from the traced one (the CLI's worker pool), spans
and counters restart empty, and each finished top-level span is appended
as one JSON line to ``<flush_dir>/spans-<pid>.jsonl``; the traced parent
merges those files, because spans recorded in a worker never reach it
otherwise.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (module that defines the function, function name)
TARGETS = (
    ("mapscore._dp", "edit_table"),
    ("mapscore._dp", "edit_backtrack"),
    ("mapscore._dp", "frechet_table"),
    ("mapscore.sospa", "sospa"),
    ("mapscore.sospa", "sospa_directional_min"),
    ("mapscore.cyclic", "cyclic_sospa"),
    ("mapscore.cyclic", "cyclic_sospa_directional_min"),
    ("mapscore.dap", "dap"),
    ("mapscore.dap", "pair_base_distance"),
    ("mapscore.assignment", "solve_assignment"),
    ("mapscore.baselines", "match_predictions"),
    ("mapscore.baselines", "pair_distance"),
    ("mapscore.baselines", "ap_from_records"),
    ("mapscore.geometry", "resample_equidistant"),
    ("mapscore.dataset", "load_scenes"),
    ("mapscore.dataset", "evaluate"),
    # Private, but it is the unit of work a pool worker runs; wrapping it
    # makes each work item one top-level span in the worker.
    ("mapscore.dataset", "_run_work_item"),
)


def _cells(counts: Counter, name: str, args, result) -> None:
    shape = args[0].shape
    counts[name + ".cells"] += shape[0] * shape[1]


def _assignment_cells(counts: Counter, name: str, args, result) -> None:
    rows = len(args[0])
    counts[name + ".cells"] += rows * (len(args[0][0]) if rows else 0)


def _rotations(counts: Counter, name: str, args, result) -> None:
    counts[name + ".rotations"] += max(1, len(args[1]))


def _pair_distance(counts: Counter, name: str, args, result) -> None:
    if args[0].closed:
        counts["dap.pairs_closed"] += 1
    if result[0] == 1.0:
        counts["dap.unit_distance_pairs"] += 1


def _dap(counts: Counter, name: str, args, result) -> None:
    counts["dap.matched_pairs"] += len(result.assignment)


def _load_scenes(counts: Counter, name: str, args, result) -> None:
    counts[name + ".bytes"] += os.path.getsize(args[0])


def _evaluate(counts: Counter, name: str, args, result) -> None:
    counts[name + ".work_items"] += len(result.class_reports) * result.sample_count


HOOKS = {
    "dp.edit_table": _cells,
    "dp.frechet_table": _cells,
    "assignment.solve_assignment": _assignment_cells,
    "cyclic.cyclic_sospa": _rotations,
    "dap.pair_base_distance": _pair_distance,
    "dap.dap": _dap,
    "dataset.load_scenes": _load_scenes,
    "dataset.evaluate": _evaluate,
}


def _layer_name(module: str, func: str) -> str:
    # Metric names must start with a letter, so ``mapscore._dp`` becomes ``dp``.
    return f"{module.split('.', 1)[1].lstrip('_')}.{func}"


class Tracer:
    """Wraps the layer functions of the loaded mapscore modules."""

    def __init__(self, flush_dir: Path | None = None) -> None:
        self.flush_dir = flush_dir
        self.owner_pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list = []
        if flush_dir is not None:
            os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def _flush_child(self) -> None:
        record = self.dump()
        with open(self.flush_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset_in_child()

    def _wrap(self, name: str, original):
        hook = HOOKS.get(name)
        split_by_base = name == "baselines.pair_distance"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[2] if len(args) > 2 else kwargs['base']}" if split_by_base else name
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[index] = (span_name, start, end, parent, os.getpid())
            self.counts[span_name + ".calls"] += 1
            if hook is not None:
                hook(self.counts, name, args, result)
            if not self.stack and self.flush_dir is not None and os.getpid() != self.owner_pid:
                self._flush_child()
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, func_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, func_name)
            wrapper = self._wrap(_layer_name(module_name, func_name), original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "mapscore" or mod_name.startswith("mapscore.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        """Spans and counters of this process, as written to a flush file."""
        return {"pid": os.getpid(), "spans": self.spans, "counts": dict(self.counts)}


def merge_records(records: list[dict]) -> tuple[list, Counter]:
    """Concatenate the spans of several dumps (parents re-indexed) and sum their counters."""
    spans: list = []
    counts: Counter = Counter()
    for record in records:
        offset = len(spans)
        for name, start, end, parent, pid in record["spans"]:
            spans.append((name, start, end, parent + offset if parent >= 0 else -1, pid))
        counts.update(record["counts"])
    return spans, counts


def read_flush_dir(flush_dir: Path) -> list[dict]:
    records = []
    for path in sorted(flush_dir.glob("spans-*.json*")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def self_seconds(spans: list) -> dict[str, float]:
    """Per span name: summed span time minus the time covered by its child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, parent, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_ns[k]) * 1e-9
    return out


def backtracks_under(spans: list, parent_name: str) -> int:
    """Number of ``dp.edit_backtrack`` spans whose direct parent is a ``parent_name`` span."""
    return sum(
        1
        for name, _, _, parent, _ in spans
        if name == "dp.edit_backtrack" and parent >= 0 and spans[parent][0] == parent_name
    )


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metric -> (unit, the end-to-end metrics and workloads it should move).
LAYER_METRICS = {
    "dp.edit_table.calls": ("count", "throughput, latency_p50_ms on pair-open, soft-open, soft-polygon; barely cli-eval"),
    "dp.edit_table.cells": ("count", "throughput, latency_p50_ms on pair-open, soft-open, soft-polygon; barely cli-eval"),
    "dp.edit_table.self_s": ("s", "throughput, latency_p50_ms on pair-open, soft-open, soft-polygon; barely cli-eval"),
    "dp.edit_backtrack.calls": ("count", "throughput, latency_p50_ms on pair-open, soft-open, soft-polygon; barely cli-eval"),
    "dp.edit_backtrack.self_s": ("s", "throughput, latency_p50_ms on pair-open, soft-open, soft-polygon; barely cli-eval"),
    "dp.frechet_table.calls": ("count", "latency_p50_ms (wall) on cli-eval only"),
    "dp.frechet_table.cells": ("count", "latency_p50_ms (wall) on cli-eval only"),
    "dp.frechet_table.self_s": ("s", "latency_p50_ms (wall) on cli-eval only"),
    "sospa.sospa.calls": ("count", "throughput, latency_p50_ms on pair-open and soft-open"),
    "sospa.sospa.self_s": ("s", "throughput, latency_p50_ms on pair-open and soft-open"),
    "sospa.sospa_directional_min.calls": ("count", "throughput, latency_p50_ms on pair-open and soft-open"),
    "sospa.sospa_directional_min.self_s": ("s", "throughput, latency_p50_ms on pair-open and soft-open"),
    "cyclic.cyclic_sospa.calls": ("count", "throughput on soft-polygon only"),
    "cyclic.cyclic_sospa.rotations": ("count", "throughput on soft-polygon only"),
    "cyclic.cyclic_sospa.self_s": ("s", "throughput on soft-polygon only"),
    "cyclic.backtrack_share": ("ratio", "throughput on soft-polygon only"),
    "dap.dap.calls": ("count", "throughput on soft-open and soft-polygon"),
    "dap.dap.self_s": ("s", "throughput on soft-open and soft-polygon"),
    "dap.pair_base_distance.calls": ("count", "throughput on soft-open and soft-polygon"),
    "dap.pair_base_distance.self_s": ("s", "throughput on soft-open and soft-polygon"),
    "dap.unit_distance_share": ("ratio", "workload property: far pairs that pruning could skip"),
    "dap.closed_pair_share": ("ratio", "workload property: share of pairs scored by the cyclic variant"),
    "dap.matched_share": ("ratio", "workload property: matched pairs over evaluated pairs"),
    "assignment.solve_assignment.calls": ("count", "throughput on soft-open"),
    "assignment.solve_assignment.cells": ("count", "throughput on soft-open"),
    "assignment.solve_assignment.self_s": ("s", "throughput on soft-open"),
    "baselines.match_predictions.calls": ("count", "latency_p50_ms (wall) on cli-eval"),
    "baselines.match_predictions.self_s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "baselines.pair_distance.chamfer.calls": ("count", "latency_p50_ms (wall) on cli-eval"),
    "baselines.pair_distance.chamfer.self_s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "baselines.pair_distance.frechet.calls": ("count", "latency_p50_ms (wall) on cli-eval"),
    "baselines.pair_distance.frechet.self_s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "baselines.ap_from_records.calls": ("count", "latency_p50_ms (wall) on cli-eval"),
    "baselines.ap_from_records.self_s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "geometry.resample_equidistant.calls": ("count", "throughput on soft-open, soft-polygon; latency_p50_ms on cli-eval"),
    "geometry.resample_equidistant.self_s": ("s", "throughput on soft-open, soft-polygon; latency_p50_ms on cli-eval"),
    "dataset.load_scenes.s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "dataset.load_scenes.bytes": ("bytes", "latency_p50_ms (wall) on cli-eval"),
    "dataset.evaluate.s": ("s", "latency_p50_ms (wall) on cli-eval"),
    "dataset.evaluate.work_items": ("count", "latency_p50_ms (wall) on cli-eval"),
    "import.mapscore_s": ("s", "setup_s on every workload; latency_p50_ms on cli-eval"),
    "import.scipy_optimize_s": ("s", "setup_s on every workload; latency_p50_ms on cli-eval"),
    "trace.overhead_share": ("ratio", "none: traced over untraced time of the same passes, minus one"),
}


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Every per-layer metric except the import and overhead ones, from one traced pass."""
    self_s = self_seconds(spans)
    total_s: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        total_s[name] = total_s.get(name, 0.0) + (end - start) * 1e-9
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "cells", "rotations", "bytes", "work_items"):
            out[metric] = float(counts.get(metric, 0))
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif field == "s":
            out[metric] = total_s.get(layer, 0.0)
    pairs = counts.get("dap.pair_base_distance.calls", 0)
    out["cyclic.backtrack_share"] = _share(
        backtracks_under(spans, "cyclic.cyclic_sospa"), counts.get("cyclic.cyclic_sospa.rotations", 0)
    )
    out["dap.unit_distance_share"] = _share(counts.get("dap.unit_distance_pairs", 0), pairs)
    out["dap.closed_pair_share"] = _share(counts.get("dap.pairs_closed", 0), pairs)
    out["dap.matched_share"] = _share(counts.get("dap.matched_pairs", 0), pairs)
    return out
