"""The C kernels against the Python reference loops, the bound kernels against scipy, and backend selection.

The C kernels are built and called directly, whichever backend
``mapscore._dp`` bound at import, so a C source that no longer compiles or
no longer matches the loops fails here. scipy is a test-only oracle:
``cross_distances`` must equal ``cdist`` and ``solve_assignment`` must
choose the pairs of ``linear_sum_assignment``.
"""
import shlex
import shutil
import sys
import sysconfig

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from mapscore import _dp
from mapscore.assignment import _full_assignment, solve_assignment

CC = sysconfig.get_config_var("CC")
needs_cc = pytest.mark.skipif(
    shutil.which((shlex.split(CC or "") or [""])[0]) is None, reason=f"no C compiler ({CC!r})"
)


@pytest.fixture(scope="module")
def c_kernels():
    return _dp.load_c_kernels(CC)


def _cases():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, m = rng.integers(1, 30, size=2)
        yield rng.uniform(0.0, 3.0, (n, m)), float(rng.uniform(0.1, 2.0))
    for _ in range(200):
        n, m = rng.integers(1, 12, size=2)
        # Integer multiples of 0.5 make ties between the three moves common.
        yield rng.integers(0, 6, (n, m)) * 0.5, float(rng.integers(1, 4)) * 0.5
    for shape in ((0, 5), (4, 0), (0, 0), (1, 1)):
        yield rng.uniform(0.0, 3.0, shape), 0.75


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@needs_cc
def test_c_edit_kernels_match_python_loops_bitwise(c_kernels):
    edit_table, edit_backtrack = c_kernels[:2]
    for costs, gap in _cases():
        table = edit_table(costs, gap)
        reference = _dp._edit_table_py(costs, gap)
        assert _same_bytes(table, reference), (costs.shape, gap)
        assert _same_bytes(edit_backtrack(table, costs, gap), _dp._edit_backtrack_py(reference, costs, gap))


def _same_scan(got, want) -> bool:
    # The shift, and the raw cost to the bit.
    return type(got[0]) is int and got[0] == want[0] and got[1].hex() == want[1].hex()


@needs_cc
def test_c_cyclic_scan_matches_python_loop_bitwise(c_kernels):
    cyclic_scan = c_kernels[5]
    rng = np.random.default_rng(7)
    thin = [(rng.uniform(0.0, 3.0, shape), 0.75) for shape in ((1, 6), (6, 1), (1, 1), (0, 1), (1, 0))]
    for costs, gap in [*_cases(), *thin]:
        assert _same_scan(cyclic_scan(costs, gap), _dp._cyclic_scan_py(costs, gap)), (costs.tolist(), gap)


@needs_cc
@pytest.mark.parametrize(
    "diagonal, gap, running, exact",
    [
        # A running sum drops both 1e-16 terms; math.fsum keeps them.
        ((1.0, 1e-16, 1e-16), 1.0, 1.0, 1.0000000000000002),
        # 1 + 1e16 is a half-way case that the 1e-16 breaks upward.
        ((1e-16, 1.0, 1e16), 1e16, 1e16, 1.0000000000000002e16),
    ],
)
def test_c_cyclic_scan_sums_matched_costs_exactly(c_kernels, diagonal, gap, running, exact):
    # Only the diagonal pays for a match, so rotation 0 matches every point.
    costs = np.full((3, 3), 4.0 * gap)
    np.fill_diagonal(costs, diagonal)
    assert diagonal[0] + diagonal[1] + diagonal[2] == running != exact
    assert _same_scan(_dp._cyclic_scan_py(costs, gap), (0, exact))
    assert _same_scan(c_kernels[5](costs, gap), (0, exact))


@needs_cc
def test_c_frechet_table_matches_python_loop_bitwise(c_kernels):
    frechet_table = c_kernels[2]
    for dists, _ in _cases():
        if dists.size:
            assert _same_bytes(frechet_table(dists), _dp._frechet_table_py(dists)), dists.shape


@needs_cc
def test_c_wrappers_take_views_and_reject_what_c_would_overrun(c_kernels):
    edit_table, edit_backtrack, frechet_table = c_kernels[:3]
    cyclic_scan = c_kernels[5]
    rng = np.random.default_rng(1)
    base = rng.uniform(0.0, 3.0, (7, 9))
    frozen = base.copy()
    frozen.flags.writeable = False
    for view in (np.roll(base, -3, axis=1), base.T, base[::2, 1:], base[:, ::-1], base.astype(np.float32), frozen):
        dense = np.ascontiguousarray(view, dtype=np.float64)
        assert _same_bytes(edit_table(view, 0.5), _dp._edit_table_py(dense, 0.5))
        assert _same_scan(cyclic_scan(view, 0.5), _dp._cyclic_scan_py(dense, 0.5))
        assert _same_bytes(frechet_table(view), _dp._frechet_table_py(dense))
        table = edit_table(view, 0.5)
        assert _same_bytes(edit_backtrack(table, view, 0.5), _dp._edit_backtrack_py(table, dense, 0.5))
    with pytest.raises(ValueError):
        edit_backtrack(np.zeros((3, 3)), base, 0.5)
    for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
        with pytest.raises(IndexError):
            _dp._frechet_table_py(empty)
        with pytest.raises(IndexError):
            frechet_table(empty)


def _points(rng, n, d, scale):
    return rng.normal(size=(n, d)) * scale


def _point_cases():
    rng = np.random.default_rng(2)
    for k in range(300):
        n, m = rng.integers(1, 30, size=2)
        d = 1 + k % 3
        yield _points(rng, n, d, 10.0 ** rng.uniform(-3, 5)), _points(rng, m, d, 10.0 ** rng.uniform(-3, 5))
    for k in range(100):
        n, m = rng.integers(1, 8, size=2)
        # Points on a half-unit grid make equal distances and exact zeros common.
        yield rng.integers(-3, 4, (n, 2)) * 0.5, rng.integers(-3, 4, (m, 2)) * 0.5
    for n, m in ((0, 4), (4, 0), (0, 0), (1, 1)):
        yield _points(rng, n, 2, 1.0), _points(rng, m, 2, 1.0)


def _cost_cases():
    """Wide or square cost matrices, as ``assign_rows`` takes them."""
    for costs, _ in _cases():
        yield costs - 1.5 if costs.shape[0] <= costs.shape[1] else (costs - 1.5).T
    rng = np.random.default_rng(3)
    for _ in range(200):
        nr, nc = np.sort(rng.integers(1, 14, size=2))
        # Mostly zero, as in the zero-clipped matrices of the soft metric.
        yield np.where(rng.random((nr, nc)) < 0.8, 0.0, -rng.random((nr, nc)))


@needs_cc
def test_c_cross_distances_match_python_loop_bitwise(c_kernels):
    cross_distances = c_kernels[3]
    for x, y in _point_cases():
        assert _same_bytes(cross_distances(x, y), _dp._cross_distances_py(x, y)), (x.shape, y.shape)


@needs_cc
def test_c_assign_rows_matches_python_loop_bitwise(c_kernels):
    assign_rows = c_kernels[4]
    for cost in _cost_cases():
        assert _same_bytes(assign_rows(cost), _dp._assign_rows_py(cost)), cost.shape


@needs_cc
def test_c_point_and_assignment_wrappers_take_views_and_reject_what_c_would_overrun(c_kernels):
    cross_distances, assign_rows = c_kernels[3:5]
    rng = np.random.default_rng(4)
    base = rng.uniform(-3.0, 3.0, (7, 9))
    frozen = base.copy()
    frozen.flags.writeable = False
    for view in (base[:, :3], base.T[:, ::3], base[::2, 1:4], base[:, :3].astype(np.float32), frozen[:, :3]):
        dense = np.ascontiguousarray(view, dtype=np.float64)
        assert _same_bytes(cross_distances(view, view[::-1]), _dp._cross_distances_py(dense, dense[::-1]))
    for view in (base, base.T[:5], base[::2, 1:], base.astype(np.float32), frozen):
        dense = np.ascontiguousarray(view, dtype=np.float64)
        assert _same_bytes(assign_rows(view), _dp._assign_rows_py(dense))
    assert not frozen.flags.writeable
    for x, y in ((base[:, :2], base[:, :3]), (base[0], base[:, :9]), (base[:, :2], base[0, :2])):
        with pytest.raises(ValueError):
            cross_distances(x, y)
    for kernel in (assign_rows, _dp._assign_rows_py):
        assert _same_bytes(kernel(np.zeros((0, 4))), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="infeasible"):
            kernel(np.full((2, 3), np.inf))
    with pytest.raises(ValueError, match="no more rows than columns"):
        assign_rows(base.T)
    with pytest.raises(ValueError, match="infeasible"):
        _dp._assign_rows_py(base.T)


def _scipy_pairs(matrix, include_zero_cost):
    # The pairs solve_assignment chose when it called scipy's solver.
    rows, cols = linear_sum_assignment(np.minimum(matrix, 0.0))
    keep = matrix[rows, cols] <= 0.0 if include_zero_cost else matrix[rows, cols] < 0.0
    return sorted(zip(rows[keep].tolist(), cols[keep].tolist()))


def _assignment_oracle_cases(count):
    rng = np.random.default_rng(5)
    for k in range(count):
        n, m = rng.integers(1, 14, size=2)
        kind = k % 4
        if kind == 0:
            yield rng.uniform(-2.0, 2.0, (n, m))
        elif kind == 1:
            yield rng.integers(-4, 3, (n, m)) * 0.5
        elif kind == 2:
            yield np.where(rng.random((n, m)) < 0.8, 0.0, -rng.random((n, m)))
        else:
            yield np.where(rng.random((n, m)) < 0.5, 0.0, rng.integers(-2, 3, (n, m)) * 0.5)


def test_assignment_equals_scipy_pairs_and_order():
    checked = 0
    for matrix in _assignment_oracle_cases(40_000):
        clipped = np.minimum(matrix, 0.0)
        rows, cols = _full_assignment(clipped)
        want_rows, want_cols = linear_sum_assignment(clipped)
        assert _same_bytes(rows, want_rows) and _same_bytes(cols, want_cols), matrix.tolist()
        for include_zero_cost in (False, True):
            pairs, _ = solve_assignment(matrix, include_zero_cost=include_zero_cost)
            assert pairs == _scipy_pairs(matrix, include_zero_cost), (matrix.tolist(), include_zero_cost)
        checked += 1
    assert checked == 40_000


def test_cross_distances_equal_cdist_bitwise():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        for scale in (1e-3, 1e-1, 1.0, 1e2, 1e5):
            for _ in range(60):
                n, m = rng.integers(1, 25, size=2)
                x, y = _points(rng, n, d, scale), _points(rng, m, d, scale) + rng.normal(size=d) * scale
                assert _same_bytes(_dp.cross_distances(x, y), cdist(x, y)), (d, scale, n, m)


def test_bound_backend_is_named():
    kernels = (
        _dp.edit_table,
        _dp.edit_backtrack,
        _dp.frechet_table,
        _dp.cross_distances,
        _dp.assign_rows,
        _dp.cyclic_scan,
    )
    python_loops = (
        _dp._edit_table_py,
        _dp._edit_backtrack_py,
        _dp._frechet_table_py,
        _dp._cross_distances_py,
        _dp._assign_rows_py,
        _dp._cyclic_scan_py,
    )
    assert _dp.BACKEND in ("c", "python")
    assert (_dp.BACKEND == "python") == (kernels == python_loops)
    # perfbench/run.py environment() reads this name on every benchmark run.
    assert _dp.HAVE_NUMBA is False


def test_missing_compiler_falls_back_to_python_loops_with_a_warning(tmp_path):
    missing = str(tmp_path / "no-such-cc")
    with pytest.raises(_dp.KernelUnavailable, match="no C compiler"):
        _dp.load_c_kernels(missing)
    with pytest.warns(RuntimeWarning, match="pure-Python loops.*no C compiler"):
        backend, kernels = _dp._compiled_or_python(missing)
    assert backend == "python"
    assert kernels == (
        _dp._edit_table_py,
        _dp._edit_backtrack_py,
        _dp._frechet_table_py,
        _dp._cross_distances_py,
        _dp._assign_rows_py,
        _dp._cyclic_scan_py,
    )


def test_failing_compiler_is_reported_as_a_compile_failure():
    # The interpreter rejects the compiler flags and exits nonzero.
    with pytest.raises(_dp.KernelUnavailable, match="compile failed"):
        _dp.load_c_kernels(shlex.quote(sys.executable))
