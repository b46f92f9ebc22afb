/* A block of online SOM steps, compiled on first use by dam._native.
 *
 * Plain C with no Python or numpy headers; `dam.som` calls it through
 * ctypes. It must train the same codebook bytes as `som._numpy_block`, so:
 *
 * - the update repeats numpy's operations in numpy's order,
 *   t = c - x; t *= h; c -= t, and the build passes -ffp-contract=off so
 *   that no multiply and add fuse into one rounding. Two-lane vectors
 *   (a GCC extension clang also has) round each lane as a scalar would;
 * - the neighbourhood weight is read from a table numpy filled, one row per
 *   step and one entry per distinct squared grid distance dr^2 + dc^2
 *   (h = table[s][index[dr][dc]] * alpha[s]), so no libm exp is called;
 * - the winner is the argmin of the distances this kernel summed only when
 *   the runner-up is further than the rounding bound of
 *   `som._rounding_bound`; otherwise the step is handed back, and the
 *   caller finds the direct-form winner with numpy and resumes with it
 *   forced.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

typedef double pair __attribute__((vector_size(16)));

static pair load(const double *p)
{
    pair v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

static void store(double *p, pair v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

static double sq_dist(const double *c, const double *x, int64_t dim)
{
    pair acc0 = {0.0, 0.0}, acc1 = {0.0, 0.0};
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4) {
        pair e0 = load(c + j) - load(x + j), e1 = load(c + j + 2) - load(x + j + 2);
        acc0 += e0 * e0;
        acc1 += e1 * e1;
    }
    double sum = (acc0[0] + acc0[1]) + (acc1[0] + acc1[1]);
    for (; j < dim; ++j) {
        double e = c[j] - x[j];
        sum += e * e;
    }
    return sum;
}

/* Moves unit c toward x by h and returns its new squared distance to next. */
static double move_unit(double *c, const double *x, const double *next, double h, int64_t dim)
{
    pair hh = {h, h}, acc0 = {0.0, 0.0}, acc1 = {0.0, 0.0};
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4) {
        pair c0 = load(c + j), c1 = load(c + j + 2);
        c0 -= (c0 - load(x + j)) * hh;
        c1 -= (c1 - load(x + j + 2)) * hh;
        store(c + j, c0);
        store(c + j + 2, c1);
        pair e0 = c0 - load(next + j), e1 = c1 - load(next + j + 2);
        acc0 += e0 * e0;
        acc1 += e1 * e1;
    }
    double sum = (acc0[0] + acc0[1]) + (acc1[0] + acc1[1]);
    for (; j < dim; ++j) {
        c[j] -= (c[j] - x[j]) * h;
        double e = c[j] - next[j];
        sum += e * e;
    }
    return sum;
}

/* Winner of a step from its distances, ties to the lowest index, or -1 when
 * the distances cannot decide it. */
static int64_t decide(const double *dist, int64_t units, int64_t dim)
{
    int64_t winner = 0;
    double first = dist[0], second = INFINITY;
    if (units == 1)
        return 0;
    for (int64_t u = 0; u < units; ++u)
        if (dist[u] != dist[u])
            return -1;
    for (int64_t u = 1; u < units; ++u)
        if (dist[u] < first) {
            first = dist[u];
            winner = u;
        }
    for (int64_t u = 0; u < units; ++u)
        if (u != winner && dist[u] < second)
            second = dist[u];
    if (!(second - first > 4.0 * (double)(dim + 2) * (DBL_EPSILON * second + 0x1p-1074)))
        return -1;
    return winner;
}

/* Runs steps 0 .. steps-1 of a block on the (rows * cols, dim) codebook.
 *
 * Step s visits samples[order[s]]; table has one row of `stride` weights per
 * step and alpha one learning rate. `index` is (2 rows - 1, 2 cols - 1):
 * entry [rows - 1 + dr][cols - 1 + dc] is the table column of the grid
 * offset (dr, dc). `forced`, when not negative, is the winner of step 0.
 * `dist` is scratch for rows * cols distances. Returns `steps` when every
 * step ran, else the index of the first step whose winner is undecided;
 * that step has not changed the codebook.
 */
int64_t dam_som_block(double *codebook, int64_t rows, int64_t cols, int64_t dim,
                      const double *samples, const int64_t *order, int64_t steps,
                      const double *table, int64_t stride, const double *alpha,
                      const int64_t *index, int64_t forced, double *dist)
{
    int64_t units = rows * cols;
    if (forced < 0 && steps > 0)
        for (int64_t u = 0; u < units; ++u)
            dist[u] = sq_dist(codebook + u * dim, samples + order[0] * dim, dim);
    for (int64_t s = 0; s < steps; ++s) {
        int64_t winner = forced;
        forced = -1;
        if (winner < 0) {
            winner = decide(dist, units, dim);
            if (winner < 0)
                return s;
        }
        const double *x = samples + order[s] * dim;
        /* The last step's distances are not used: the next call starts anew. */
        const double *next = s + 1 < steps ? samples + order[s + 1] * dim : x;
        const double *weights = table + s * stride;
        int64_t wr = winner / cols, wc = winner % cols;
        for (int64_t r = 0; r < rows; ++r) {
            const int64_t *column = index + (rows - 1 + r - wr) * (2 * cols - 1) + cols - 1 - wc;
            for (int64_t c = 0; c < cols; ++c) {
                int64_t u = r * cols + c;
                dist[u] = move_unit(codebook + u * dim, x, next, weights[column[c]] * alpha[s], dim);
            }
        }
    }
    return steps;
}
