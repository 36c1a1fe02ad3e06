/* Numeric kernels of mapscore: the dynamic-programming tables of the
 * sequence metrics, the polygon metric's rotation scan (cyclic_scan),
 * pairwise point distances and the assignment solver.
 *
 * Plain C with no Python API; mapscore/_dp.py builds this file into a shared
 * library and calls it through ctypes. Each function repeats the matching
 * Python loop in _dp.py operation for operation: the same sequential double
 * additions, the same strict comparisons and the same tie order, so that the
 * results are bitwise equal to the Python ones; where the loop calls
 * math.fsum, the C port exact_sum takes its place. Build without -ffast-math
 * and with -ffp-contract=off, or a fused multiply-add could change a sum.
 *
 * All arrays are C-contiguous float64 (int64 for the backtrack and
 * assignment outputs); the caller checks shapes and allocates the outputs.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Wagner-Fischer table, (n + 1) x (m + 1), over an n x m cost matrix whose
 * rows lie stride doubles apart. */
static void fill(const double *costs, int64_t stride, int64_t n, int64_t m, double gap, double *table)
{
    const int64_t width = m + 1;
    table[0] = 0.0;
    for (int64_t j = 1; j <= m; j++)
        table[j] = table[j - 1] + gap;
    for (int64_t i = 1; i <= n; i++) {
        double *row = table + i * width;
        const double *above = row - width;
        const double *cost_row = costs + (i - 1) * stride;
        row[0] = above[0] + gap;
        for (int64_t j = 1; j <= m; j++) {
            double best = above[j - 1] + cost_row[j - 1];
            double alt = above[j] + gap;
            if (alt < best)
                best = alt;
            alt = row[j - 1] + gap;
            if (alt < best)
                best = alt;
            row[j] = best;
        }
    }
}

/* Optimal matched pairs of a table from fill, over the same strided costs,
 * written to out as (i, j) rows from the last pair to the first; returns
 * their count, at most min(n, m). Ties prefer a match over skipping a row
 * point over skipping a column point. In column 0 only a row skip is
 * possible, so the walk stays inside the table even if the table did not
 * come from fill. */
static int64_t backtrack(const double *table, const double *costs, int64_t stride, int64_t n, int64_t m,
                         double gap, int64_t *out)
{
    const int64_t width = m + 1;
    int64_t count = 0;
    int64_t i = n, j = m;
    while (i > 0 || j > 0) {
        const double here = table[i * width + j];
        if (i > 0 && j > 0 && here == table[(i - 1) * width + (j - 1)] + costs[(i - 1) * stride + (j - 1)]) {
            out[2 * count] = i - 1;
            out[2 * count + 1] = j - 1;
            count++;
            i--;
            j--;
        } else if (i > 0 && (j == 0 || here == table[(i - 1) * width + j] + gap)) {
            i--;
        } else {
            j--;
        }
    }
    return count;
}

void edit_table(const double *costs, int64_t n, int64_t m, double gap, double *table)
{
    fill(costs, m, n, m, gap, table);
}

int64_t edit_backtrack(const double *table, const double *costs, int64_t n, int64_t m, double gap,
                       int64_t *out)
{
    return backtrack(table, costs, m, n, m, gap, out);
}

/* The correctly rounded sum of values[0..count), as Python's math.fsum
 * computes it: CPython's math_fsum, after J. R. Shewchuk, "Adaptive
 * Precision Floating-Point Arithmetic and Fast Robust Geometric Predicates"
 * (DCG 18, 1997). The partials are nonoverlapping, grow in magnitude and sum
 * exactly to the values added so far; each value adds at most one, so
 * partials needs room for count doubles. The final loop adds them from the
 * top until the sum turns inexact, then corrects a half-way case toward
 * even. math_fsum's branches for an infinite or NaN value and for an
 * intermediate overflow are left out: cyclic_scan shows that neither can
 * occur for the sums it takes. */
static double exact_sum(const double *values, int64_t count, double *partials)
{
    int64_t n = 0;
    for (int64_t k = 0; k < count; k++) {
        double x = values[k];
        int64_t i = 0;
        for (int64_t j = 0; j < n; j++) {
            double y = partials[j];
            if (fabs(x) < fabs(y)) {
                const double t = x;
                x = y;
                y = t;
            }
            const double hi = x + y;
            const double lo = y - (hi - x);
            if (lo != 0.0)
                partials[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0)
            partials[n++] = x;
    }
    double hi = 0.0;
    if (n > 0) {
        double lo = 0.0;
        hi = partials[--n];
        while (n > 0) {
            const double x = hi;
            const double y = partials[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))) {
            const double y = lo * 2.0;
            const double x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    return hi;
}

/* The rotation of the columns that minimizes the edit cost of an n x m cost
 * matrix: the loop of mapscore/_dp.py's _cyclic_scan_py. doubled is the
 * matrix placed twice side by side, n x 2m, and rotation s reads its window
 * of columns s .. s + m - 1 in place. A rotation whose optimal table value is
 * not below the best raw cost so far is skipped; otherwise its raw cost is
 * the exact sum of the matched costs, taken in the order of the pairs, plus
 * gap per unmatched point, and a strict < keeps the lowest shift on ties.
 * With m == 0 there is one rotation. Returns the winning shift and writes
 * its raw cost to best_raw, or returns -2 when memory runs out.
 *
 * No step overflows when 2 * gap * (n + m) is finite, as
 * MetricParams.require_finite_bound ensures. Costs and gap are at least 0
 * (an infinite cost is never matched, because a matched cost is at most the
 * finite table cell that takes it), and every table cell is at most the
 * sequential sum of n + m gaps, below 1.001 * gap * (n + m). Along the
 * backtracked path each cell is the rounded sum of the cell before it and a
 * matched cost or a gap, so the exact sum of the matched costs and the gaps
 * exceeds the last cell by a factor of at most 1 + (n + m) * 2^-53 / (1 -
 * 2^-53): it stays below about half the largest double. exact_sum's partials
 * and each of its intermediate sums are at most that exact sum times 1 +
 * 2^-50, so the sum, the gap term and raw are all finite. */
int64_t cyclic_scan(const double *doubled, int64_t n, int64_t m, double gap, double *best_raw)
{
    const int64_t width = m + 1, most = n < m ? n : m;
    double *table = malloc((size_t)((n + 1) * width + 2 * most) * sizeof(double));
    int64_t *pairs = malloc((size_t)(2 * most + 1) * sizeof(int64_t));
    if (table == NULL || pairs == NULL) {
        free(table);
        free(pairs);
        return -2;
    }
    double *matched = table + (n + 1) * width, *partials = matched + most;
    int64_t best_shift = 0;
    double best = INFINITY;
    for (int64_t s = 0; s < (m > 0 ? m : 1); s++) {
        const double *window = doubled + s;
        fill(window, 2 * m, n, m, gap, table);
        if (table[n * width + m] >= best)
            continue;
        const int64_t count = backtrack(table, window, 2 * m, n, m, gap, pairs);
        for (int64_t k = 0; k < count; k++) {
            const int64_t *pair = pairs + 2 * (count - 1 - k);
            matched[k] = window[pair[0] * 2 * m + pair[1]];
        }
        const double raw = exact_sum(matched, count, partials) + gap * (double)(n + m - 2 * count);
        if (raw < best) {
            best_shift = s;
            best = raw;
        }
    }
    free(table);
    free(pairs);
    *best_raw = best;
    return best_shift;
}

/* Discrete Frechet coupling table, n x m with n, m >= 1. */
void frechet_table(const double *dists, int64_t n, int64_t m, double *table)
{
    table[0] = dists[0];
    for (int64_t j = 1; j < m; j++)
        table[j] = dists[j] > table[j - 1] ? dists[j] : table[j - 1];
    for (int64_t i = 1; i < n; i++) {
        double *row = table + i * m;
        const double *above = row - m;
        const double *dist_row = dists + i * m;
        row[0] = dist_row[0] > above[0] ? dist_row[0] : above[0];
        for (int64_t j = 1; j < m; j++) {
            double reach = above[j];
            if (row[j - 1] < reach)
                reach = row[j - 1];
            if (above[j - 1] < reach)
                reach = above[j - 1];
            row[j] = reach > dist_row[j] ? reach : dist_row[j];
        }
    }
}

/* Euclidean distance from each of the n points of x to each of the m points
 * of y, both d-dimensional, into out (n x m): the squared coordinate
 * differences are summed in coordinate order from 0.0, then square-rooted. */
void cross_distances(const double *x, const double *y, int64_t n, int64_t m, int64_t d, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < m; j++) {
            double s = 0.0;
            for (int64_t k = 0; k < d; k++) {
                const double t = x[i * d + k] - y[j * d + k];
                s = s + t * t;
            }
            out[i * m + j] = sqrt(s);
        }
    }
}

/* Minimum-cost assignment of every row of an nr x nc cost matrix, nr <= nc,
 * to a distinct column, written to col4row. This is the shortest augmenting
 * path method of D. F. Crouse, "On implementing 2D rectangular assignment
 * algorithms" (IEEE TAES 52(4), 2016), step for step as scipy's
 * linear_sum_assignment runs it, so ties resolve the same way: the columns
 * still to scan are listed in reverse, and among columns tied on the lowest
 * path cost the scan prefers one that is still unassigned. Returns 0, -1 when
 * no augmenting path has a finite cost, or -2 when memory runs out. */
int64_t assign_rows(const double *cost, int64_t nr, int64_t nc, int64_t *col4row)
{
    double *u = calloc((size_t)(nr + 2 * nc), sizeof(double));
    int64_t *path = malloc((size_t)(3 * nc) * sizeof(int64_t));
    char *row_seen = calloc((size_t)(nr + nc), 1);
    if (u == NULL || path == NULL || row_seen == NULL) {
        free(u);
        free(path);
        free(row_seen);
        return -2;
    }
    double *v = u + nr, *shortest = v + nc;
    int64_t *row4col = path + nc, *remaining = row4col + nc;
    char *col_seen = row_seen + nr;
    int64_t status = 0;
    for (int64_t i = 0; i < nr; i++)
        col4row[i] = -1;
    for (int64_t j = 0; j < nc; j++) {
        path[j] = -1;
        row4col[j] = -1;
    }
    for (int64_t cur = 0; cur < nr; cur++) {
        double min_val = 0.0;
        int64_t i = cur, sink = -1, num_remaining = nc;
        for (int64_t it = 0; it < nc; it++) {
            remaining[it] = nc - it - 1;
            shortest[it] = INFINITY;
        }
        memset(row_seen, 0, (size_t)(nr + nc));
        while (sink == -1) {
            int64_t index = -1;
            double lowest = INFINITY;
            row_seen[i] = 1;
            for (int64_t it = 0; it < num_remaining; it++) {
                const int64_t j = remaining[it];
                const double r = min_val + cost[i * nc + j] - u[i] - v[j];
                if (r < shortest[j]) {
                    path[j] = i;
                    shortest[j] = r;
                }
                if (shortest[j] < lowest || (shortest[j] == lowest && row4col[j] == -1)) {
                    lowest = shortest[j];
                    index = it;
                }
            }
            min_val = lowest;
            if (min_val == INFINITY) {
                status = -1;
                break;
            }
            const int64_t j = remaining[index];
            if (row4col[j] == -1)
                sink = j;
            else
                i = row4col[j];
            col_seen[j] = 1;
            remaining[index] = remaining[--num_remaining];
        }
        if (status != 0)
            break;
        u[cur] += min_val;
        for (int64_t k = 0; k < nr; k++)
            if (row_seen[k] && k != cur)
                u[k] += min_val - shortest[col4row[k]];
        for (int64_t j = 0; j < nc; j++)
            if (col_seen[j])
                v[j] -= min_val - shortest[j];
        for (int64_t j = sink;;) {
            const int64_t k = path[j], previous = col4row[k];
            row4col[j] = k;
            col4row[k] = j;
            j = previous;
            if (k == cur)
                break;
        }
    }
    free(u);
    free(path);
    free(row_seen);
    return status;
}
