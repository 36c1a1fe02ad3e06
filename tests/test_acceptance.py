"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute. Randomized criteria use fixed seeds. The C kernels are built and
loaded when ``mapscore`` is imported, so no timed criterion pays for the
build; criterion 12 also makes one untimed call before it starts the clock.
"""
import json
import math
import os
import time

import numpy as np

from mapscore import (
    ApConfig,
    Instance,
    InstanceSet,
    MetricParams,
    Polyline,
    dap,
    evaluate,
    mean_ap,
    resample_equidistant,
    sospa,
    synthesize_scenario,
)
from mapscore._dp import BACKEND
from mapscore.validation import (
    cyclic_equivalence_suite,
    dap_axiom_suite,
    dap_oracle_suite,
    normalized_triangle_suite,
    sospa_axiom_suite,
    sospa_oracle_suite,
)

P1 = MetricParams(1.5, 1.0)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _mixed_corpus(repeats: int = 5):
    scenes = []
    for s in range(repeats):
        scenes.append(synthesize_scenario("shift", 1.0, seed=s, sample_id=f"shift-{s}"))
        scenes.append(synthesize_scenario("misorder", 0.0, seed=s, sample_id=f"mis-{s}"))
        scenes.append(synthesize_scenario("spurious_instances", 4, seed=s, sample_id=f"spur-{s}"))
        scenes.append(synthesize_scenario("outlier_point", 5.0, seed=s, sample_id=f"out-{s}"))
        scenes.append(synthesize_scenario("drop_tail", 0.4, seed=s, sample_id=f"drop-{s}"))
    return scenes


def test_criterion_01_sospa_oracle_equivalence():
    start = time.perf_counter()
    result = sospa_oracle_suite(seed=0, pairs=1000)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 10.0
    _report(1, ok, f"dp vs enumeration {result.checked - result.failures}/{result.checked} "
                   f"within 1e-12 in {elapsed:.2f}s (< 10s)")


def test_criterion_02_sospa_metric_axioms():
    result = sospa_axiom_suite(seed=0, triples=1000)
    _report(2, result.passed, f"symmetry/identity exact, triangle slack 1e-9 on "
                              f"{result.checked} triples, p in {{1,2}}")


def test_criterion_03_normalized_triangle_p1():
    result = normalized_triangle_suite(seed=0, triples=1000)
    _report(3, result.passed, f"normalized form in [0,1] and triangle slack 1e-9 on "
                              f"{result.checked} triples at p=1")


def test_criterion_04_cyclic_one_sided_equals_two_sided():
    result = cyclic_equivalence_suite(seed=0, pairs=500)
    _report(4, result.passed, f"one-sided rotation scan vs two-sided brute force on "
                              f"{result.checked} closed pairs within 1e-12")


def test_criterion_05_dap_hungarian_vs_enumeration():
    result = dap_oracle_suite(seed=0, pairs=500)
    _report(5, result.passed, f"assignment reduction vs enumeration and decomposition "
                              f"identities on {result.checked} instance-set pairs within 1e-12")


def test_criterion_06_dap_metric_axioms_and_bounds():
    result = dap_axiom_suite(seed=0, triples=500)
    _report(6, result.passed, f"normalized triangle slack 1e-9 and existence-mass bounds on "
                              f"{result.checked} instance-set triples at p=1")


def test_criterion_07_shift_archetype_blind_ap_vs_dap():
    scenes = [synthesize_scenario("shift", 1.0, seed=s) for s in range(6)]
    start = time.perf_counter()
    report = evaluate(scenes, P1, [ApConfig((1.0, 1.5, 2.0), "chamfer")],
                      sampling=0.5, metrics=("dap", "cd_ap"), workers=1)
    elapsed = time.perf_counter() - start
    expected = 8.0 / 9.0
    ap_perfect = report.mean_ap["cd_ap"] == 1.0 and all(
        ap == 1.0 for rep in report.class_reports for ap in rep.ap_per_threshold["cd_ap"].values()
    )
    dap_values = [rep.dap_mean for rep in report.class_reports]
    dap_ok = all(abs(v - expected) <= 1e-6 for v in dap_values)
    ok = ap_perfect and dap_ok and elapsed < 1.0
    _report(7, ok, f"1 m shift corpus: cd mAP={report.mean_ap['cd_ap']:.3f} (=1.000) while "
                   f"normalized value={dap_values[0]:.6f} (0.8889 +/- 1e-6) in {elapsed:.2f}s (< 1s)")


def test_criterion_08_archetype_table():
    params = MetricParams(0.5, 1.0)
    # (a) four spurious unit-confidence extras per true element
    spurious = [synthesize_scenario("spurious_instances", 4, seed=s) for s in range(3)]
    rep_a = evaluate(spurious, params, (), sampling=0.5, metrics=("dap",), workers=1)
    a_ok = (
        abs(rep_a.mdap - 0.800) <= 1e-9
        and abs(rep_a.mloc - 0.0) <= 1e-9
        and abs(rep_a.mdet - 0.800) <= 1e-9
    )
    # (b) total miss: one unit-confidence element, empty prediction set
    gt = InstanceSet([Instance(1.0, Polyline(np.array([[0.0, 0.0], [4.0, 0.0]])))])
    miss = dap(gt, InstanceSet(), params)
    b_ok = (
        abs(miss.normalized_value - 1.000) <= 1e-12
        and miss.normalized_loc == 0.0
        and abs(miss.normalized_det - 1.000) <= 1e-12
    )
    # (c) scrambled point order: chamfer AP blind, frechet AP collapses, the
    # soft metric lands strictly between.
    misorder = [synthesize_scenario("misorder", 0.0, seed=s) for s in range(3)]
    rep_c = evaluate(
        misorder,
        params,
        [ApConfig((0.5,), "chamfer"), ApConfig((0.5,), "frechet")],
        sampling=0.5,
        metrics=("dap", "cd_ap", "fd_ap"),
        workers=1,
    )
    c_ok = rep_c.mean_ap["cd_ap"] == 1.0 and rep_c.mean_ap["fd_ap"] == 0.0 and 0.0 < rep_c.mdap < 1.0
    ok = a_ok and b_ok and c_ok
    _report(8, ok, f"(a) spurious k=4 -> {rep_a.mdap:.3f}/{rep_a.mloc:.3f}/{rep_a.mdet:.3f} "
                   f"(0.800/0.000/0.800); (b) total miss -> {miss.normalized_value:.3f} all det; "
                   f"(c) misorder -> cd AP {rep_c.mean_ap['cd_ap']:.1f}, fd AP "
                   f"{rep_c.mean_ap['fd_ap']:.1f}, value {rep_c.mdap:.3f} in (0,1)")


def test_criterion_09_mean_ap_arithmetic():
    per_class = {"crossing": {0.5: 0.127}, "divider": {0.5: 0.262}, "boundary": {0.5: 0.445}}
    value = mean_ap(per_class)
    ok = abs(value - 0.278) < 5e-4
    _report(9, ok, f"class means {{0.127, 0.262, 0.445}} -> {value:.3f} (= 0.278)")


def test_criterion_10_sampling_stability():
    scenes = _mixed_corpus(5)
    values = {}
    for spacing in (0.25, 0.5, 0.75):
        values[spacing] = evaluate(scenes, P1, (), sampling=spacing, metrics=("dap",), workers=1).mdap
    dev_fine = abs(values[0.25] - values[0.5]) / values[0.5]
    dev_coarse = abs(values[0.75] - values[0.5]) / values[0.5]
    ok = dev_fine < 0.05 and dev_coarse < 0.05
    _report(10, ok, f"mDAP at 0.25/0.5/0.75 m = {values[0.25]:.4f}/{values[0.5]:.4f}/"
                    f"{values[0.75]:.4f}; deviations {dev_fine:.2%}, {dev_coarse:.2%} (< 5%)")


def test_criterion_11_worker_determinism():
    scenes = _mixed_corpus(2)
    cfg = [ApConfig((0.5, 1.0, 1.5), "chamfer")]
    payloads = []
    counts = (1, 4, os.cpu_count() or 1)
    for workers in counts:
        report = evaluate(scenes, P1, cfg, sampling=0.5, metrics=("dap", "cd_ap"), workers=workers)
        payloads.append(json.dumps(report.metrics_dict(), sort_keys=True))
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(11, ok, f"evaluate() metrics bitwise identical across worker counts {counts}")


def test_criterion_12_performance():
    rng = np.random.default_rng(0)
    base = np.column_stack([np.linspace(0.0, 19.5, 40), rng.uniform(-0.5, 0.5, 40)])
    x = resample_equidistant(Polyline(base), 0.5)
    y = resample_equidistant(Polyline(base + rng.uniform(-0.5, 0.5, base.shape)), 0.5)
    sospa(x, y, P1)  # warm path end to end
    start = time.perf_counter()
    for _ in range(10000):
        sospa(x, y, P1)
    sospa_elapsed = time.perf_counter() - start

    scenes = []
    for s in range(250):
        scenes.append(synthesize_scenario("spurious_instances", 9, seed=s, sample_id=f"perf-s-{s}"))
        scenes.append(synthesize_scenario("shift", 1.0, seed=s, sample_id=f"perf-t-{s}"))
    start = time.perf_counter()
    evaluate(scenes, P1, (), sampling=0.5, metrics=("dap",), workers=1)
    dap_elapsed = time.perf_counter() - start

    ok = sospa_elapsed < 2.0 and dap_elapsed < 30.0
    _report(12, ok, f"10k sequence evaluations on ~40-point lines in {sospa_elapsed:.2f}s (< 2s); "
                    f"500-sample soft-metric corpus in {dap_elapsed:.2f}s single-threaded (< 30s); "
                    f"DP backend {BACKEND}")
