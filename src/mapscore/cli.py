"""Command-line interface.

Subcommands: ``eval`` scores a scene file, ``pair`` inspects one geometry
pair, ``oracle`` runs the randomized validation suites, ``synth`` writes a
synthetic scenario corpus. Every printed number is reproducible through
direct library calls with the same configuration.

Exit codes: 0 success, 1 oracle-suite failure, 2 input or file error,
3 scene-schema validation error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .assignment import gospa_unordered_reference
from .baselines import ApConfig, chamfer, frechet_discrete
from .cyclic import cyclic_sospa, cyclic_sospa_directional_min
from .dataset import (
    SCENARIO_KINDS,
    EvaluationReport,
    _parse_points,
    _require,
    evaluate,
    load_scenes,
    save_scenes,
    synthesize_scenario,
)
from .errors import InputError, SchemaError
from .geometry import MetricParams, Polyline
from .sospa import normalized_from_value, sospa, sospa_directional_min
from .validation import cyclic_triangle_probe, run_all

DEFAULT_CD_THRESHOLDS = (0.5, 1.0, 1.5)
DEFAULT_FD_THRESHOLDS = (1.0, 2.0, 3.0)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _default_workers() -> int:
    env = os.environ.get("MAPSCORE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _parse_geometry(spec: str, closed: bool) -> Polyline:
    # A geometry file follows the scene schema's rules for an instance's
    # points and closed flag, so its errors name the file and field (exit 3).
    if spec.startswith("@"):
        name = spec[1:]
        try:
            payload = json.loads(Path(name).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{name}: not valid JSON ({exc})") from exc
        _require(isinstance(payload, dict), name, "must be an object")
        extras = set(payload) - {"points", "closed"}
        _require(not extras, name, f"unknown fields {sorted(extras)}")
        _require("points" in payload, name, "missing field 'points'")
        closed = payload.get("closed", closed)
        _require(isinstance(closed, bool), f"{name}:closed", "must be a boolean")
        return Polyline(_parse_points(payload["points"], f"{name}:points"), closed)
    pts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values = [float(v) for v in chunk.split(",")]
        except ValueError:
            raise InputError(f"point {chunk!r} has a coordinate that is not a number") from None
        if len(values) < 2:
            raise InputError(f"point {chunk!r} needs at least two coordinates")
        if pts and len(values) != len(pts[0]):
            raise InputError(f"point {chunk!r} has {len(values)} coordinates, but the first point has {len(pts[0])}")
        pts.append(values)
    if not pts:
        raise InputError("geometry has no points")
    return Polyline(np.asarray(pts, dtype=float), closed)


def _format_report(report: EvaluationReport, metrics: tuple[str, ...]) -> str:
    lines = []
    header = ["class", "samples"]
    if "dap" in metrics:
        header += ["DAP", "Loc", "Det"]
    families = [f for f in ("cd_ap", "fd_ap") if f in metrics]
    for rep in report.class_reports:
        for family in families:
            for tau in rep.ap_per_threshold.get(family, {}):
                label = f"{family}@{tau:g}"
                if label not in header:
                    header.append(label)
        break
    if not report.class_reports:
        for family in families:
            header.append(family)
    lines.append("  ".join(f"{h:>12}" for h in header))
    for rep in report.class_reports:
        row = [rep.class_name, str(rep.sample_count)]
        if "dap" in metrics:
            row += [f"{rep.dap_mean:.4f}", f"{rep.loc_mean:.4f}", f"{rep.det_mean:.4f}"]
        for family in families:
            for tau, ap in sorted(rep.ap_per_threshold.get(family, {}).items()):
                row.append(f"{ap:.4f}")
        lines.append("  ".join(f"{v:>12}" for v in row))
    summary = [f"samples={report.sample_count}", f"sampling={report.sampling:g}m",
               f"c={report.cutoff_c:g}", f"p={report.exponent_p:g}"]
    if report.mdap is not None:
        summary += [f"mDAP={report.mdap:.4f}", f"mLoc={report.mloc:.4f}", f"mDet={report.mdet:.4f}"]
    for family, value in sorted(report.mean_ap.items()):
        summary.append(f"mAP[{family}]={value:.4f}")
    lines.append("")
    lines.append("  ".join(summary))
    runtime_bits = []
    for rep in report.class_reports:
        for family, ms in sorted(rep.runtime_ms.items()):
            runtime_bits.append(f"{rep.class_name}/{family}={ms:.1f}ms")
    if runtime_bits:
        lines.append("runtime: " + "  ".join(runtime_bits))
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    params = MetricParams(cutoff_c=args.cutoff, exponent_p=args.p)
    configs = []
    if "cd_ap" in metrics:
        configs.append(ApConfig(thresholds=args.cd_thresholds, base="chamfer"))
    if "fd_ap" in metrics:
        configs.append(ApConfig(thresholds=args.fd_thresholds, base="frechet"))
    scenes = load_scenes(args.input)
    report = evaluate(
        scenes,
        params,
        configs,
        sampling=args.sampling,
        metrics=metrics,
        workers=args.workers,
        unknown_class="error" if args.strict_classes else "warn",
        top_k=args.top_k,
    )
    print(_format_report(report, metrics))
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.output}")
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    params = MetricParams(cutoff_c=args.cutoff, exponent_p=args.p)
    a = _parse_geometry(args.a, args.closed_a)
    b = _parse_geometry(args.b, args.closed_b)
    if a.closed != b.closed:
        print("warning: geometry kinds differ (open vs closed); the multi-instance "
              "metric scores such pairs as the maximal mismatch 1.0")
        print("pair base distance: 1.0")
        return 0
    if a.closed:
        forward = cyclic_sospa(a, b, params)
        both = cyclic_sospa_directional_min(a, b, params)
        inner = both.inner
        print(f"cyclic sospa: {forward.value!r} (best shift of b: {forward.best_shift_y})")
        print(f"cyclic sospa (direction min): {both.value!r} reversed={both.used_reversal}")
    else:
        res = sospa(a, b, params)
        both = sospa_directional_min(a, b, params)
        inner = both
        print(f"sospa: {res.value!r} (raw power cost {res.raw_power_cost!r})")
        print(f"sospa (direction min): {both.value!r} reversed={both.used_reversal}")
    print(f"normalized: {normalized_from_value(both.value, len(a), len(b), params)!r}")
    print(f"matched pairs (0-based{', one side reversed' if both.used_reversal else ''}): "
          f"{list(inner.assignment.pairs)}")
    print(f"unordered reference: {gospa_unordered_reference(a.points, b.points, params)!r}")
    print(f"chamfer: {chamfer(a, b)!r}")
    print(f"frechet: {frechet_discrete(a, b, cyclic=a.closed and b.closed)!r}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed, scale=args.scale)
    failed = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.checked - res.failures}/{res.checked}")
        for message in res.messages:
            print(f"    {message}")
        failed += res.failures
    if args.log_cyclic_triangle:
        findings = cyclic_triangle_probe(seed=args.seed)
        if findings:
            print(f"cyclic triangle-inequality violations found ({len(findings)}), informational:")
            for message in findings[:10]:
                print(f"    {message}")
        else:
            print("cyclic triangle-inequality violations found (0), informational")
    return 0 if failed == 0 else 1


def cmd_synth(args: argparse.Namespace) -> int:
    scenes = [
        synthesize_scenario(args.kind, args.magnitude, args.seed + i, sample_id=f"{args.kind}-{i:04d}")
        for i in range(args.count)
    ]
    save_scenes(scenes, args.out)
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mapscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a scene file")
    p_eval.add_argument("--input", required=True, help="scene JSON file")
    p_eval.add_argument("--cutoff", type=float, default=1.5, help="cutoff c in meters")
    p_eval.add_argument("--p", type=float, default=1.0, help="exponent p")
    p_eval.add_argument("--sampling", type=float, default=0.5, help="resampling spacing in meters")
    p_eval.add_argument("--metrics", default="dap,cd_ap", help="comma list from dap,cd_ap,fd_ap")
    p_eval.add_argument("--cd-thresholds", type=_float_list, default=DEFAULT_CD_THRESHOLDS)
    p_eval.add_argument("--fd-thresholds", type=_float_list, default=DEFAULT_FD_THRESHOLDS)
    p_eval.add_argument("--workers", type=int, default=_default_workers())
    p_eval.add_argument("--top-k", type=int, default=None, help="keep only the K most confident predictions per class")
    p_eval.add_argument("--output", default=None, help="write the machine-readable report here")
    p_eval.add_argument("--strict-classes", action="store_true", help="fail on classes outside the vocabulary")
    p_eval.set_defaults(func=cmd_eval)

    p_pair = sub.add_parser("pair", help="inspect one geometry pair")
    p_pair.add_argument("--a", required=True, help='inline "x,y;x,y;..." or @file.json')
    p_pair.add_argument("--b", required=True)
    p_pair.add_argument("--closed-a", action="store_true")
    p_pair.add_argument("--closed-b", action="store_true")
    p_pair.add_argument("--cutoff", type=float, default=1.5)
    p_pair.add_argument("--p", type=float, default=1.0)
    p_pair.set_defaults(func=cmd_pair)

    p_oracle = sub.add_parser("oracle", help="run the randomized validation suites")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--scale", type=float, default=1.0, help="scale factor on the draw counts")
    p_oracle.add_argument("--log-cyclic-triangle", action="store_true",
                          help="also report cyclic triangle-inequality violations")
    p_oracle.set_defaults(func=cmd_oracle)

    p_synth = sub.add_parser("synth", help="write a synthetic scenario corpus")
    p_synth.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p_synth.add_argument("--magnitude", type=float, default=1.0)
    p_synth.add_argument("--count", type=int, default=10)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
