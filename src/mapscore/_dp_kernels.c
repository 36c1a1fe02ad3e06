/* Numeric kernels of mapscore: the dynamic-programming tables of the
 * sequence metrics, pairwise point distances and the assignment solver.
 *
 * Plain C with no Python API; mapscore/_dp.py builds this file into a shared
 * library and calls it through ctypes. Each function repeats the matching
 * Python loop in _dp.py operation for operation: the same sequential double
 * additions, the same strict comparisons and the same tie order, so that the
 * results are bitwise equal to the Python ones. Build without -ffast-math and
 * with -ffp-contract=off, or a fused multiply-add could change a sum.
 *
 * All arrays are C-contiguous float64 (int64 for the backtrack and
 * assignment outputs); the caller checks shapes and allocates the outputs.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Wagner-Fischer table, (n + 1) x (m + 1), over an n x m cost matrix. */
void edit_table(const double *costs, int64_t n, int64_t m, double gap, double *table)
{
    const int64_t width = m + 1;
    table[0] = 0.0;
    for (int64_t j = 1; j <= m; j++)
        table[j] = table[j - 1] + gap;
    for (int64_t i = 1; i <= n; i++) {
        double *row = table + i * width;
        const double *above = row - width;
        const double *cost_row = costs + (i - 1) * m;
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

/* Optimal matched pairs of a table from edit_table, written to out as
 * (i, j) rows from the last pair to the first; returns their count, at most
 * min(n, m). Ties prefer a match over skipping a row point over skipping a
 * column point. In column 0 only a row skip is possible, so the walk stays
 * inside the table even if the table did not come from edit_table. */
int64_t edit_backtrack(const double *table, const double *costs, int64_t n, int64_t m, double gap,
                       int64_t *out)
{
    const int64_t width = m + 1;
    int64_t count = 0;
    int64_t i = n, j = m;
    while (i > 0 || j > 0) {
        const double here = table[i * width + j];
        if (i > 0 && j > 0 && here == table[(i - 1) * width + (j - 1)] + costs[(i - 1) * m + (j - 1)]) {
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
