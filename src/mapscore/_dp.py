"""Numeric kernels: the sequence metrics' DP tables, point distances and assignment.

The DP kernels fill their tables with plain sequential float arithmetic so
that backtracking can rely on exact equality against the recurrence.
``cyclic_scan`` runs the edit DP over every rotation of a cost matrix's
columns and returns the winning shift and its raw cost, summed with
``math.fsum``'s correctly rounded algorithm, so one call replaces the
polygon metric's per-rotation loop and picks the rotation that loop picks.
``cross_distances`` sums squared coordinate differences in coordinate order,
and ``assign_rows`` is the shortest augmenting path solver of scipy's
``linear_sum_assignment``, tie order included, so neither needs scipy at
run time. The Python loops below are the reference. One of two backends runs
them, chosen once at import; ``BACKEND`` names the one in use:

- ``"c"``: ``_dp_kernels.c``, the same loops in C with the same additions,
  comparisons and tie order. It is built on first import with the
  interpreter's C compiler (``sysconfig`` ``CC``) into the package's
  ``__pycache__/`` and loaded with ``ctypes``. The library's file name
  carries a hash of the source and the compiler command, so an edited source
  is rebuilt, and it is moved into place atomically, so concurrent first
  imports never load a half-written file.
- ``"python"``: the loops themselves, which make a ``sospa`` call some forty
  times slower. A ``RuntimeWarning`` says why the C kernels are not
  available.

``edit_table``, ``edit_backtrack``, ``frechet_table``, ``cross_distances``,
``assign_rows`` and ``cyclic_scan`` are bound to the chosen backend and take
the same arguments whichever it is.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

# Always False: there is no numba backend. perfbench/run.py environment() reads it.
HAVE_NUMBA = False

C_SOURCE = Path(__file__).with_name("_dp_kernels.c")
C_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
C_LIBS = ("-lm",)


def _edit_table_py(costs: np.ndarray, gap: float) -> np.ndarray:
    n, m = costs.shape
    table = np.empty((n + 1, m + 1))
    table[0, 0] = 0.0
    for j in range(1, m + 1):
        table[0, j] = table[0, j - 1] + gap
    for i in range(1, n + 1):
        table[i, 0] = table[i - 1, 0] + gap
        row = table[i]
        above = table[i - 1]
        cost_row = costs[i - 1]
        for j in range(1, m + 1):
            best = above[j - 1] + cost_row[j - 1]
            alt = above[j] + gap
            if alt < best:
                best = alt
            alt = row[j - 1] + gap
            if alt < best:
                best = alt
            row[j] = best
    return table


def _edit_backtrack_py(table: np.ndarray, costs: np.ndarray, gap: float) -> np.ndarray:
    # Ties prefer a match over skipping a row point over skipping a column
    # point. The equality tests are exact: the fill used the same additions.
    n, m = costs.shape
    out = np.empty((min(n, m), 2), dtype=np.int64)
    count = 0
    i, j = n, m
    while i > 0 or j > 0:
        here = table[i, j]
        if i > 0 and j > 0 and here == table[i - 1, j - 1] + costs[i - 1, j - 1]:
            count += 1
            out[count - 1, 0] = i - 1
            out[count - 1, 1] = j - 1
            i -= 1
            j -= 1
        elif i > 0 and here == table[i - 1, j] + gap:
            i -= 1
        else:
            j -= 1
    return out[:count][::-1].copy()


def _frechet_table_py(dists: np.ndarray) -> np.ndarray:
    n, m = dists.shape
    table = np.empty((n, m))
    table[0, 0] = dists[0, 0]
    for j in range(1, m):
        table[0, j] = max(table[0, j - 1], dists[0, j])
    for i in range(1, n):
        table[i, 0] = max(table[i - 1, 0], dists[i, 0])
        for j in range(1, m):
            reach = table[i - 1, j]
            if table[i, j - 1] < reach:
                reach = table[i, j - 1]
            if table[i - 1, j - 1] < reach:
                reach = table[i - 1, j - 1]
            table[i, j] = reach if reach > dists[i, j] else dists[i, j]
    return table


def _cross_distances_py(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = np.zeros((x.shape[0], y.shape[0]))
    for k in range(x.shape[1]):
        t = x[:, k:k + 1] - y[:, k]
        s = s + t * t
    return np.sqrt(s)


def _assign_rows_py(cost: np.ndarray) -> np.ndarray:
    # Crouse's shortest augmenting path method as scipy's
    # linear_sum_assignment runs it, for nr <= nc: the columns still to scan
    # are listed in reverse, and among columns tied on the lowest path cost
    # the scan prefers one that is still unassigned.
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    shortest = np.empty(nc)
    path = np.full(nc, -1, dtype=np.int64)
    col4row = np.full(nr, -1, dtype=np.int64)
    row4col = np.full(nc, -1, dtype=np.int64)
    remaining = np.empty(nc, dtype=np.int64)
    row_seen = np.zeros(nr, dtype=np.bool_)
    col_seen = np.zeros(nc, dtype=np.bool_)
    for cur in range(nr):
        min_val = 0.0
        i = cur
        sink = -1
        num_remaining = nc
        for it in range(nc):
            remaining[it] = nc - it - 1
            shortest[it] = np.inf
        row_seen[:] = False
        col_seen[:] = False
        while sink == -1:
            index = -1
            lowest = np.inf
            row_seen[i] = True
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + cost[i, j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            col_seen[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
        u[cur] += min_val
        for k in range(nr):
            if row_seen[k] and k != cur:
                u[k] += min_val - shortest[col4row[k]]
        for j in range(nc):
            if col_seen[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            k = path[j]
            row4col[j] = k
            previous = col4row[k]
            col4row[k] = j
            j = previous
            if k == cur:
                break
    return col4row


def _cyclic_scan_py(costs: np.ndarray, gap: float) -> tuple[int, float]:
    # Rotation s reads columns s .. s + m - 1 of the matrix placed twice side
    # by side. Only a table whose optimum beats the best raw cost so far is
    # backtracked, and a strict < keeps the lowest shift on ties.
    n, m = costs.shape
    doubled = np.concatenate([costs, costs], axis=1)
    best_shift, best_raw = 0, math.inf
    for s in range(max(1, m)):
        window = doubled[:, s:s + m]
        table = _edit_table_py(window, gap)
        if table[n, m] >= best_raw:
            continue
        pairs = _edit_backtrack_py(table, window, gap)
        raw = math.fsum(window[pairs[:, 0], pairs[:, 1]].tolist()) + gap * (n + m - 2 * len(pairs))
        if raw < best_raw:
            best_shift, best_raw = s, raw
    return best_shift, best_raw


class KernelUnavailable(RuntimeError):
    """The C kernels could not be built or loaded; the message says why."""


def load_c_kernels(compiler: str | None) -> tuple:
    """Build ``_dp_kernels.c`` with ``compiler`` if needed and wrap it.

    ``compiler`` is a command line such as ``sysconfig.get_config_var("CC")``.
    Returns ``(edit_table, edit_backtrack, frechet_table, cross_distances,
    assign_rows, cyclic_scan)`` with the signatures of the Python loops; raises
    :class:`KernelUnavailable` when there is no compiler, the compile fails or
    the library does not load.
    """
    command = shlex.split(compiler or "")
    if not command or shutil.which(command[0]) is None:
        raise KernelUnavailable(f"no C compiler: {compiler!r} not found")
    command += C_FLAGS
    try:
        digest = hashlib.sha256(C_SOURCE.read_bytes() + "\0".join([*command, *C_LIBS]).encode()).hexdigest()[:16]
        library = C_SOURCE.parent / "__pycache__" / f"{C_SOURCE.stem}.{digest}.so"
        if not library.exists():
            library.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=library.parent) as scratch:
                built = os.path.join(scratch, library.name)
                done = subprocess.run([*command, "-o", built, str(C_SOURCE), *C_LIBS], capture_output=True, text=True)
                if done.returncode != 0:
                    raise KernelUnavailable(f"compile failed: {done.stderr.strip()}")
                os.replace(built, library)
    except OSError as exc:
        raise KernelUnavailable(f"compile failed: {exc}") from exc
    try:
        lib = ctypes.CDLL(str(library))
    except OSError as exc:
        raise KernelUnavailable(f"load failed: {exc}") from exc

    i64, f64 = ctypes.c_int64, ctypes.c_double
    f64p, i64p = ctypes.POINTER(f64), ctypes.POINTER(i64)
    lib.edit_table.argtypes = (f64p, i64, i64, f64, f64p)
    lib.edit_table.restype = None
    lib.edit_backtrack.argtypes = (f64p, f64p, i64, i64, f64, i64p)
    lib.edit_backtrack.restype = i64
    lib.frechet_table.argtypes = (f64p, i64, i64, f64p)
    lib.frechet_table.restype = None
    lib.cross_distances.argtypes = (f64p, f64p, i64, i64, i64, f64p)
    lib.cross_distances.restype = None
    lib.assign_rows.argtypes = (f64p, i64, i64, i64p)
    lib.assign_rows.restype = i64
    lib.cyclic_scan.argtypes = (f64p, i64, i64, f64, f64p)
    lib.cyclic_scan.restype = i64

    # Inputs become writable C-contiguous float64 (callers pass views, and
    # ``from_buffer`` needs a writable buffer), and every shape is checked
    # here, so C never reads out of bounds. A pointer argument takes the
    # ``from_buffer`` object itself, which ctypes passes by reference: that
    # costs less than ``.ctypes.data`` or ``byref``, and on matrices of a few
    # hundred cells the call costs more than the C work. An empty array,
    # which ``from_buffer`` refuses, passes NULL.
    def dense(a) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.float64)
        return a if a.flags.writeable else a.copy()

    def ref(a: np.ndarray, ctype=f64):
        return ctype.from_buffer(a) if a.size else None

    def edit_table(costs: np.ndarray, gap: float) -> np.ndarray:
        costs = dense(costs)
        n, m = costs.shape
        table = np.empty((n + 1, m + 1))
        lib.edit_table(ref(costs), n, m, float(gap), ref(table))
        return table

    def edit_backtrack(table: np.ndarray, costs: np.ndarray, gap: float) -> np.ndarray:
        costs = dense(costs)
        n, m = costs.shape
        table = dense(table)
        if table.shape != (n + 1, m + 1):
            raise ValueError(f"table shape {table.shape} does not fit costs of shape {costs.shape}")
        out = np.empty((min(n, m), 2), dtype=np.int64)
        count = lib.edit_backtrack(ref(table), ref(costs), n, m, float(gap), ref(out, i64))
        return out[:count][::-1].copy()

    def frechet_table(dists: np.ndarray) -> np.ndarray:
        dists = dense(dists)
        n, m = dists.shape
        if n == 0 or m == 0:
            raise IndexError(f"frechet_table needs points on both sides, got shape {dists.shape}")
        table = np.empty((n, m))
        lib.frechet_table(ref(dists), n, m, ref(table))
        return table

    def cross_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = dense(x), dense(y)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ValueError(f"point arrays of shapes {x.shape} and {y.shape} are not (n, d) and (m, d)")
        (n, d), m = x.shape, len(y)
        out = np.empty((n, m))
        if out.size:
            lib.cross_distances(ref(x), ref(y), n, m, d, ref(out))
        return out

    def assign_rows(cost: np.ndarray) -> np.ndarray:
        cost = dense(cost)
        nr, nc = cost.shape
        if nr > nc:
            raise ValueError(f"assign_rows needs no more rows than columns, got shape {cost.shape}")
        col4row = np.empty(nr, dtype=np.int64)
        status = lib.assign_rows(ref(cost), nr, nc, ref(col4row, i64)) if nr else 0
        if status == -2:
            raise MemoryError(f"no memory for the assignment work arrays of shape {cost.shape}")
        if status != 0:
            raise ValueError("cost matrix is infeasible")
        return col4row

    def cyclic_scan(costs: np.ndarray, gap: float) -> tuple[int, float]:
        costs = dense(costs)
        n, m = costs.shape
        doubled = np.concatenate([costs, costs], axis=1)
        raw = f64()
        shift = lib.cyclic_scan(ref(doubled), n, m, float(gap), raw)
        if shift == -2:
            raise MemoryError(f"no memory for the rotation scan of a cost matrix of shape {costs.shape}")
        return shift, raw.value

    return edit_table, edit_backtrack, frechet_table, cross_distances, assign_rows, cyclic_scan


def _compiled_or_python(compiler: str | None) -> tuple[str, tuple]:
    """The C kernels, or else the Python loops with a ``RuntimeWarning`` saying why."""
    try:
        return "c", load_c_kernels(compiler)
    except KernelUnavailable as exc:
        warnings.warn(
            "mapscore numeric kernels run as slow pure-Python loops; install a C compiler "
            f"for the fast path. Reason: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return "python", (
            _edit_table_py,
            _edit_backtrack_py,
            _frechet_table_py,
            _cross_distances_py,
            _assign_rows_py,
            _cyclic_scan_py,
        )


BACKEND, (edit_table, edit_backtrack, frechet_table, cross_distances, assign_rows, cyclic_scan) = _compiled_or_python(
    sysconfig.get_config_var("CC")
)
