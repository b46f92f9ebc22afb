/* A block of online SOM steps, compiled on first use by dam._native.
 *
 * Plain C with no Python or numpy headers; `dam.som` calls it through
 * ctypes. It must train the same codebook bytes as `som._numpy_block`, so:
 *
 * - the update repeats numpy's operations in numpy's order,
 *   t = c - x; t *= h; c -= t, element by element, and the build passes
 *   -ffp-contract=off so that no multiply and add fuse into one rounding.
 *   Vectors (a GCC extension clang also has) round each lane as a scalar
 *   would, whatever their width;
 * - the weight h is read from a table numpy filled, one row per step and
 *   one entry per distinct squared grid distance dr^2 + dc^2, that already
 *   holds the learning rate (h = table[s][index[dr][dc]]), so no libm exp
 *   is called and the schedule stays in `som.train_som`;
 * - the winner is the argmin of the distances this kernel summed only when
 *   the runner-up is further than the rounding bound of
 *   `som._rounding_bound`; otherwise the kernel stops before that step and
 *   numpy makes it. The distances sum the same squares as numpy's, in
 *   another order. The bound holds for any order, so the lanes a body
 *   splits the sum into decide only how often numpy makes a step, never a
 *   winner.
 *
 * The file includes itself to compile the block body twice: on two-lane
 * (128-bit) vectors for the baseline ISA and, on x86-64, on four-lane
 * (256-bit) vectors in functions built for AVX2, which does not enable FMA.
 * The baseline body stays two lanes wide because a baseline build splits
 * each four-lane operation in two and keeps the halves on the stack.
 * `dam_som_block` runs the AVX2 body when the CPU and OS support it;
 * `dam_som_block_baseline` always runs the other, so tests can train with
 * both.
 */

#ifndef VEC

#include <float.h>
#include <math.h>
#include <stdint.h>

/* Winner of a step from its distances, ties to the lowest index, or -1 when
 * the distances cannot decide it. */
static int64_t decide(const double *dist, int64_t units, int64_t dim)
{
    int64_t winner = 0;
    double first = INFINITY, second = INFINITY;
    if (units == 1)
        return 0;
    for (int64_t u = 0; u < units; ++u) {
        double d = dist[u];
        if (d != d)
            return -1;
        if (d < first) {
            second = first;
            first = d;
            winner = u;
        } else if (d < second) {
            second = d;
        }
    }
    if (!(second - first > 4.0 * (double)(dim + 2) * (DBL_EPSILON * second + 0x1p-1074)))
        return -1;
    return winner;
}

#define BLOCK_PARAMS                                                                   \
    double *codebook, int64_t rows, int64_t cols, int64_t dim, const double *samples, \
        const int64_t *order, int64_t steps, const double *table, int64_t stride,     \
        const int64_t *index, double *dist
#define BLOCK_ARGS codebook, rows, cols, dim, samples, order, steps, table, stride, index, dist

/* Vectors read and written in place need only a double's alignment. */
typedef double pair __attribute__((vector_size(16), aligned(8), may_alias));
#define VEC pair
#define LANES 2
#define TARGET
#define NAME(f) f##_pair
#include "_som_kernel.c"
#undef VEC
#undef LANES
#undef TARGET
#undef NAME

#if defined(__x86_64__)
typedef double quad __attribute__((vector_size(32), aligned(8), may_alias));
#define VEC quad
#define LANES 4
#define TARGET __attribute__((target("avx2")))
#define NAME(f) f##_quad
#include "_som_kernel.c"
#endif

/* The block body for the baseline ISA; `dam_som_block` takes the same arguments. */
int64_t dam_som_block_baseline(BLOCK_PARAMS)
{
    return block_pair(BLOCK_ARGS);
}

/* 1 when `dam_som_block` runs the AVX2 body on this machine, else 0. */
int dam_som_avx2(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

/* The block body for this machine: AVX2 when `dam_som_avx2`, else baseline. */
int64_t dam_som_block(BLOCK_PARAMS)
{
#if defined(__x86_64__)
    if (dam_som_avx2())
        return block_quad(BLOCK_ARGS);
#endif
    return block_pair(BLOCK_ARGS);
}

#else /* The block body on VEC, a vector of LANES doubles, built with TARGET. */

#define AT(p) (*(VEC *)(p))

TARGET static double NAME(sq_dist)(const double *c, const double *x, int64_t dim)
{
    VEC acc0 = {0.0}, acc1 = {0.0};
    int64_t j = 0;
    for (; j + 2 * LANES <= dim; j += 2 * LANES) {
        VEC e0 = AT(c + j) - AT(x + j), e1 = AT(c + j + LANES) - AT(x + j + LANES);
        acc0 += e0 * e0;
        acc1 += e1 * e1;
    }
    if (j + LANES <= dim) {
        VEC e0 = AT(c + j) - AT(x + j);
        acc0 += e0 * e0;
        j += LANES;
    }
    acc0 += acc1;
    double sum = acc0[0];
    for (int l = 1; l < LANES; ++l)
        sum += acc0[l];
    for (; j < dim; ++j) {
        double e = c[j] - x[j];
        sum += e * e;
    }
    return sum;
}

/* Moves unit c toward x by h and returns its new squared distance to next. */
TARGET static double NAME(move_unit)(double *c, const double *x, const double *next, double h,
                                     int64_t dim)
{
    VEC acc0 = {0.0}, acc1 = {0.0};
    int64_t j = 0;
    for (; j + 2 * LANES <= dim; j += 2 * LANES) {
        VEC c0 = AT(c + j), c1 = AT(c + j + LANES);
        c0 -= (c0 - AT(x + j)) * h;
        c1 -= (c1 - AT(x + j + LANES)) * h;
        AT(c + j) = c0;
        AT(c + j + LANES) = c1;
        VEC e0 = c0 - AT(next + j), e1 = c1 - AT(next + j + LANES);
        acc0 += e0 * e0;
        acc1 += e1 * e1;
    }
    if (j + LANES <= dim) {
        VEC c0 = AT(c + j);
        c0 -= (c0 - AT(x + j)) * h;
        AT(c + j) = c0;
        VEC e0 = c0 - AT(next + j);
        acc0 += e0 * e0;
        j += LANES;
    }
    acc0 += acc1;
    double sum = acc0[0];
    for (int l = 1; l < LANES; ++l)
        sum += acc0[l];
    for (; j < dim; ++j) {
        c[j] -= (c[j] - x[j]) * h;
        double e = c[j] - next[j];
        sum += e * e;
    }
    return sum;
}

/* Runs steps 0 .. steps-1 of a block on the (rows * cols, dim) codebook.
 *
 * Step s visits samples[order[s]]; table has one row of `stride` weights per
 * step, the learning rate included. `index` is (2 rows - 1, 2 cols - 1):
 * entry [rows - 1 + dr][cols - 1 + dc] is the table column of the grid
 * offset (dr, dc). `dist` is scratch for rows * cols distances. Returns
 * `steps` when every step ran, else the index of the first step whose
 * winner is undecided; that step has not changed the codebook, and the
 * caller makes it with numpy.
 */
TARGET static int64_t NAME(block)(BLOCK_PARAMS)
{
    int64_t units = rows * cols;
    if (steps > 0)
        for (int64_t u = 0; u < units; ++u)
            dist[u] = NAME(sq_dist)(codebook + u * dim, samples + order[0] * dim, dim);
    for (int64_t s = 0; s < steps; ++s) {
        int64_t winner = decide(dist, units, dim);
        if (winner < 0)
            return s;
        const double *x = samples + order[s] * dim;
        /* The last step's distances are not used: the next call starts anew. */
        const double *next = s + 1 < steps ? samples + order[s + 1] * dim : x;
        const double *weights = table + s * stride;
        int64_t wr = winner / cols, wc = winner % cols;
        for (int64_t r = 0; r < rows; ++r) {
            const int64_t *column = index + (rows - 1 + r - wr) * (2 * cols - 1) + cols - 1 - wc;
            for (int64_t c = 0; c < cols; ++c) {
                int64_t u = r * cols + c;
                dist[u] = NAME(move_unit)(codebook + u * dim, x, next, weights[column[c]], dim);
            }
        }
    }
    return steps;
}

#undef AT

#endif
