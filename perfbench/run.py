#!/usr/bin/env python3
"""mapscore benchmark: four closed-loop workloads, end-to-end metrics, and a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload soft-open --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --write-reference

Workloads (see ``workloads.py``): ``pair-open``, ``soft-open``,
``soft-polygon`` and ``cli-eval``. Each is a closed loop with one caller;
everything runs in this process except ``cli-eval``, which starts one
``mapscore eval`` process per item. mapscore is imported from ``src/``
next to this directory, so there is nothing to build. ``BENCHMARK.json``
lists all but pair-open: the run budget fits three 25-second workloads,
and soft-open runs the same ``sospa`` and DP code.

With ``--trace 0`` a run measures items for ``--seconds`` seconds of busy
time, and for at least ``MIN_ITEMS`` items and the reference prefix.
Every time it reports is rescaled to a reference host by a calibration
job timed before and after each item and each set-up probe (see
``calibration.py``), because the shared host's speed changes from second
to second: kernel calls in this process for the in-process workloads, a
fresh calibration process for cli-eval and the set-up probes. The
unscaled throughput and the host's speed relative to the reference are
printed beside them. It reports:

* ``throughput`` (1/s): ``sospa`` calls per second on pair-open, scene
  samples per second elsewhere, over the rescaled busy time;
* ``latency_p50_ms``: median rescaled time of one item (a call, an
  ``evaluate`` batch, a CLI process), and ``latency_tail_ms``, the highest
  percentile with at least ten samples beyond it (the text output names it);
* ``setup_s``: median over fresh interpreters of ``import mapscore`` plus
  the first call of the workload's entry point, rescaled;
* ``peak_rss_mb``: peak resident memory of this process, or of the largest
  CLI process on cli-eval.

With ``--trace 1`` a run repeats rounds over a fixed prefix of the same
inputs, each round one untraced and one traced pass, and reports the
per-layer metrics of ``tracing.LAYER_METRICS`` (medians over rounds) and
the tracing overhead. Counts must repeat exactly between rounds, and
traced outputs must equal untraced ones.

Every item's output is digested. For seed 0 the digests of the first
items are compared with ``reference.json``; for other seeds the combined
digest is printed so that two versions of the program can be compared.
An exception, a non-zero CLI exit, an out-of-range value or a digest
mismatch is a failed item, and a run with a failed item exits 1. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the metrics ``BENCHMARK.json``
lists: the gated end-to-end metrics are throughput, set-up time and peak
memory; the latency percentiles are printed but not gated, because their
run-to-run spread on a shared host exceeds any useful bound. A fuller record is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("pair-open", "soft-open", "soft-polygon", "cli-eval")
DEFAULT_SEED = 0
MIN_ITEMS = 12
TAIL_BEYOND = 10
SETUP_REPEATS = 5
# The calibration job after each timed item: in-process kernel calls
# (1.4-2.7 ms each) for items run here, a few per cent of the item's time;
# a fresh calibration process (0.15-0.35 s) for CLI processes.
CALIBRATION = {
    "pair-open": functools.partial(calibration.in_process, 1),
    "soft-open": functools.partial(calibration.in_process, 1),
    "soft-polygon": functools.partial(calibration.in_process, 2),
    "cli-eval": calibration.fresh_process,
}
IMPORT_REPEATS = 3
# Items whose digests reference.json holds, and the prefix a traced round runs.
REFERENCE_ITEMS = {"pair-open": 1000, "soft-open": 20, "soft-polygon": 20, "cli-eval": 1}
TRACE_ITEMS = {"pair-open": 300, "soft-open": 10, "soft-polygon": 3, "cli-eval": 1}
# What the installed ``mapscore`` console script runs.
CLI_LAUNCH = "import sys; from mapscore.cli import main; sys.exit(main())"


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, timeout=120, **kwargs)


class Outcome:
    """Item digests, latencies and failures of one pass or run."""

    def __init__(self) -> None:
        self.digests: list[str] = []
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.units = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, seconds: float, scale: float = 1.0) -> None:
        """Record an item that took ``seconds`` here and ``seconds * scale`` on the reference host."""
        self.scales.append(scale)
        self.latencies.append(seconds * scale)
        self.busy += seconds * scale
        self.raw_busy += seconds

    def fail(self, message: str) -> None:
        self.failed += 1
        self.digests.append("error")
        if len(self.errors) < 5:
            self.errors.append(message)


def run_items(workload, items, min_items: int, seconds: float, slowness=None) -> Outcome:
    """Closed loop over ``items`` until both ``min_items`` items and ``seconds`` of busy time here.

    With ``slowness``, a calibration job returning the host's slowness
    over the reference host, the job follows every item (and precedes the
    first), and each item's time is rescaled by the slowness on either side
    of it.
    """
    out = Outcome()
    before = slowness() if slowness else 0.0
    for item in items:
        if len(out.latencies) >= min_items and out.raw_busy >= seconds:
            break
        start = time.perf_counter()
        try:
            result = workload.run(item)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if slowness:
            after = slowness()
            out.timed(elapsed, calibration.scale(before, after))
            before = after
        else:
            out.timed(elapsed)
        if error is not None:
            out.fail(f"{type(error).__name__}: {error}")
            continue
        out.units += workload.units(item)
        try:
            out.digests.append(workload.check(item, result))
        except ValueError as exc:
            out.fail(str(exc))
    return out


class InProcessWorkload:
    """pair-open, soft-open and soft-polygon: library calls in this process."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, name: str, seed: int, work: Path, wl) -> None:
        self.name, self.seed, self.work = name, seed, work
        if name == "pair-open":
            self.make, self.run, self.check = wl.open_pair, wl.run_pair, wl.check_pair
            self.units = lambda item: 1
        else:
            self.make = wl.soft_open_batch if name == "soft-open" else wl.polygon_batch
            self.run, self.check, self.units = wl.run_scenes, wl.check_report, len

    def items(self):
        return (self.make(self.seed, index) for index in itertools.count())

    def probe_args(self) -> list[str]:
        first = self.make(self.seed, 0)
        path = self.work / "probe-input.json"
        if self.name == "pair-open":
            path.write_text(json.dumps({"x": first[0].points.tolist(), "y": first[1].points.tolist()}), encoding="utf-8")
        else:
            from mapscore import save_scenes

            save_scenes(first, path)
        return [self.name, str(path)]

    def traced_pass(self, prefix: list):
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            out = run_items(self, prefix, len(prefix), 0.0)
        return out, tracer.spans, tracer.counts


class CliWorkload:
    """cli-eval: one ``mapscore eval`` process per item on a scene file written here."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, work: Path, wl) -> None:
        from mapscore import save_scenes

        self.wl = wl
        self.scene_path, self.output_path = work / "scenes.json", work / "report.json"
        self.flush_dir = work / "spans"
        scenes = wl.cli_scenes(seed)
        save_scenes(scenes, self.scene_path)
        self.samples = len(scenes)
        self.expected = wl.report_json(wl.cli_reference_metrics(scenes))
        self.cli_args = wl.cli_argv(str(self.scene_path), str(self.output_path))
        self.probe_output = work / "probe-report.json"

    def items(self):
        return itertools.repeat(["-c", CLI_LAUNCH, *self.cli_args])

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        self.output_path.unlink(missing_ok=True)
        return run_child(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    def units(self, argv) -> int:
        return self.samples

    def check(self, argv, proc: subprocess.CompletedProcess) -> str:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        got = self.wl.report_json(self.wl.cli_output_metrics(self.output_path.read_text(encoding="utf-8")))
        if got != self.expected:
            raise ValueError("CLI report differs from the in-process evaluate() result")
        return self.wl.digest(got)

    def probe_args(self) -> list[str]:
        return ["cli-eval", str(self.scene_path), str(self.probe_output)]

    def traced_pass(self, prefix: list):
        import tracing

        shutil.rmtree(self.flush_dir, ignore_errors=True)
        self.flush_dir.mkdir()
        out = run_items(self, [[str(HERE / "traced_cli.py"), str(self.flush_dir), *self.cli_args]], 1, 0.0)
        spans, counts = tracing.merge_records(tracing.read_flush_dir(self.flush_dir))
        return out, spans, counts


def make_workload(name: str, seed: int, work: Path, wl):
    return CliWorkload(seed, work, wl) if name == "cli-eval" else InProcessWorkload(name, seed, work, wl)


def measure_setup(probe_args: list[str]) -> float:
    """Median set-up time over fresh interpreters, each rescaled by a calibration process on either side."""
    totals = []
    before = calibration.fresh_process()
    for _ in range(SETUP_REPEATS):
        proc = run_child([str(HERE / "setup_probe.py"), *probe_args], capture_output=True, text=True, check=True)
        after = calibration.fresh_process()
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append((times["import_s"] + times["first_call_s"]) * calibration.scale(before, after))
        before = after
    return statistics.median(totals)


def import_times() -> dict[str, float]:
    """Median cumulative import time of mapscore and scipy.optimize from ``-X importtime``."""
    samples: dict[str, list[float]] = {"import.mapscore_s": [], "import.scipy_optimize_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = run_child(["-X", "importtime", "-c", "import mapscore"], capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        samples["import.mapscore_s"].append(cumulative.get("mapscore", 0.0))
        samples["import.scipy_optimize_s"].append(cumulative.get("scipy.optimize", 0.0))
    return {key: statistics.median(values) for key, values in samples.items()}


def compare_reference(name: str, seed: int, out: Outcome, wl) -> str:
    """Count reference mismatches as failures (seed 0 only); return the combined digest."""
    prefix = out.digests[: REFERENCE_ITEMS[name]]
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]
        mismatched = sum(1 for got, ref in zip(prefix, reference) if got not in ("error", ref))
        if mismatched:
            out.failed += mismatched
            out.errors.append(f"{mismatched} of the first {len(prefix)} outputs differ from reference.json")
    return wl.combined_digest(prefix)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with TAIL_BEYOND samples above it.

    Needs more than TAIL_BEYOND samples; below 2 * TAIL_BEYOND the value lies under the median.
    """
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(name: str, workload, seed: int, seconds: float, wl) -> tuple[dict, Outcome, dict]:
    setup_s = measure_setup(workload.probe_args())
    out = run_items(workload, workload.items(), max(MIN_ITEMS, REFERENCE_ITEMS[name]), seconds, CALIBRATION[name])
    peak_kb = resource.getrusage(workload.rusage).ru_maxrss
    tail_value, tail_pct = tail(out.latencies)
    info = {
        "digest": compare_reference(name, seed, out, wl),
        "items": len(out.latencies),
        "busy_s": out.raw_busy,
        "reference_busy_s": out.busy,
        "host_speed": statistics.median(out.scales),
        "host_throughput": out.units / out.raw_busy,
        "tail_percentile": tail_pct,
    }
    metrics = {
        "throughput": (out.units / out.busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(out.latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, out, info


# Workload-specific names of throughput and item latency, with the latency
# unit and its scale from ms.
ALIASES = {
    "pair-open": ("calls_per_s", "call_{}_us", "us", 1e3),
    "soft-open": ("samples_per_s", "batch_{}_ms", "ms", 1.0),
    "soft-polygon": ("samples_per_s", "sample_{}_ms", "ms", 1.0),
    "cli-eval": ("samples_per_s", "wall_{}_s", "s", 1e-3),
}


def alias_lines(name: str, metrics: dict, info: dict, out: Outcome) -> list[str]:
    rate, latency, unit, scale = ALIASES[name]
    attempted = len(out.latencies)
    tail_note = f"p{info['tail_percentile']:.1f} of {attempted} samples"
    if attempted < 2 * TAIL_BEYOND:
        tail_note += f", below the median: fewer than {2 * TAIL_BEYOND} samples"
    return [
        f"{rate} = {metrics['throughput'][0]:.6g} 1/s",
        f"{latency.format('p50')} = {metrics['latency_p50_ms'][0] * scale:.6g} {unit}",
        f"{latency.format('tail')} = {metrics['latency_tail_ms'][0] * scale:.6g} {unit} ({tail_note})",
        f"fail_share = {out.failed / attempted:.6g} ({out.failed} of {attempted})",
    ]


def traced(name: str, workload, seed: int, seconds: float, wl) -> tuple[dict, Outcome, dict]:
    import tracing

    prefix = list(itertools.islice(workload.items(), TRACE_ITEMS[name]))
    rounds: list[dict] = []
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    first_counts = None
    out = Outcome()
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        # Alternate which pass goes first, so neither always runs warm.
        for mode in ("untraced", "traced") if len(rounds) % 2 == 0 else ("traced", "untraced"):
            if mode == "traced":
                pass_out, spans, counts = workload.traced_pass(prefix)
            else:
                pass_out = run_items(workload, prefix, len(prefix), 0.0)
            times[mode].append(pass_out.busy)
            out.latencies += pass_out.latencies
            out.failed += pass_out.failed
            out.errors += pass_out.errors
            if not out.digests:
                out.digests = pass_out.digests
            elif pass_out.digests != out.digests:
                out.fail(f"{mode} outputs differ from those of the first pass")
        if first_counts is None:
            first_counts = dict(counts)
        elif dict(counts) != first_counts:
            out.fail("traced counts differ between rounds over the same inputs")
        rounds.append(tracing.layer_metrics(spans, counts))
    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics.update(import_times())
    untraced_s, traced_s = statistics.median(times["untraced"]), statistics.median(times["traced"])
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    info = {
        "digest": compare_reference(name, seed, out, wl),
        "rounds": len(rounds),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "span_processes": len({span[4] for span in spans}),
    }
    (workload_dir(name, seed, 1) / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return {key: (value, tracing.LAYER_METRICS[key][0]) for key, value in metrics.items()}, out, info


def workload_dir(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from mapscore import _dp
    from mapscore.cli import build_parser

    return {
        "dp_backend": "numba" if _dp.HAVE_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cli_workers": build_parser().parse_args(["eval", "--input", "-"]).workers,
        "seed": seed,
    }


def write_reference(wl) -> int:
    payload = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        work = workload_dir(name, DEFAULT_SEED, 0)
        work.mkdir(parents=True, exist_ok=True)
        workload = make_workload(name, DEFAULT_SEED, work, wl)
        out = run_items(workload, workload.items(), REFERENCE_ITEMS[name], 0.0)
        if out.failed:
            raise SystemExit(f"{name}: {out.errors}")
        payload["workloads"][name] = out.digests
    REFERENCE.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="rewrite reference.json for seed 0")
    args = parser.parse_args()
    if not (SRC / "mapscore" / "__init__.py").is_file():
        print(f"error: no mapscore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mapscore

    if not Path(mapscore.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mapscore from {mapscore.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.write_reference:
        return write_reference(wl)
    if args.workload is None:
        parser.error("--workload is required")

    work = workload_dir(args.workload, args.seed, args.trace)
    work.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    if env["dp_backend"] == "python":
        print("WARNING: numba is not installed; the DP kernels ran in the pure-Python fallback", file=sys.stderr)
    workload = make_workload(args.workload, args.seed, work, wl)
    runner = traced if args.trace else end_to_end
    metrics, out, info = runner(args.workload, workload, args.seed, args.seconds, wl)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info, sort_keys=True)}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    if env["dp_backend"] == "python":
        print("WARNING: DP backend is the pure-Python fallback (numba not installed)")
    if args.trace:
        import tracing

        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}    [moves: {tracing.LAYER_METRICS[key][1]}]")
        pairs = metrics["dap.pair_base_distance.calls"][0]
        closed = pairs * metrics["dap.closed_pair_share"][0]
        print(
            f"property: dap.unit_distance_share = {metrics['dap.unit_distance_share'][0]:.4f} "
            f"over {pairs:.0f} pairs, {pairs - closed:.0f} open and {closed:.0f} closed"
        )
        if args.workload == "cli-eval":
            print(
                f"cli-eval spans: merged from {info['span_processes']} processes; the pool workers are forked "
                "from the traced CLI process and append their spans to per-process files"
            )
    else:
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
        for line in alias_lines(args.workload, metrics, info, out):
            print(f"  {line}")
    for message in out.errors:
        print(f"FAILED: {message}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = [entry["name"] for entry in bench["per_layer" if args.trace else "end_to_end"]]
    record = {
        "correct": out.failed == 0,
        "attempted": len(out.latencies),
        "failed": out.failed,
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]} for key in reported},
    }
    full = {
        **record,
        "all_metrics": {key: value for key, (value, _) in metrics.items()},
        "env": env,
        "info": info,
        "latencies_s": out.latencies,
    }
    (work / "result.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
