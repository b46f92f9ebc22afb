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
 *   is called. `dam_som_schedule` gives numpy the learning rate and radius
 *   of each step with libm's pow, the function Python's float `**` calls;
 * - the winner is the argmin of the distances this kernel summed only when
 *   the runner-up is further than the rounding bound of
 *   `som._rounding_bound`, which makes it the winner of numpy's direct form
 *   (`som.train_som` states why); otherwise the kernel stops before that
 *   step and numpy makes it with the direct form. The bound holds for any
 *   summation order, so the lanes a body splits the sum into decide only
 *   how often numpy makes a step, never a winner;
 * - a unit whose move provably leaves its bytes unchanged stays: only its
 *   distance to the next sample is summed, in any order (see above). Let m
 *   and M be the smallest and largest |coordinate| of the unit, X the largest
 *   |coordinate| of a training row (`size`, from `som.train_som`), u = 2^-53,
 *   S = fl(M + X) and q = 2^-56 m / S. The unit stays when m >= 2^-900 and
 *   |h| < tau = fl(q). The numerator of q is then exact, so |h| < q (1 + u):
 *   tau rounds q up by at most that factor or, below 2^-1022, by at most
 *   2^-1075, less than the 2^-1074 step from tau down to |h| there. As
 *   |c - x| <= M + X and rounding is monotone, |fl(c - x)| <= S; a product
 *   rounds up by at most a factor 1 + u plus 2^-1075, so |t| = |fl(fl(c - x)
 *   h)| < 2^-56 m (1 + u)^2 + 2^-1075 < 2^-55 |c|, as m <= |c| and 2^-56 m
 *   >= 2^-956. For 2^e <= |c| < 2^(e+1) the doubles next to c are at least
 *   2^(e-53) away and |t| < 2^(e-54), so fl(c - t) = c, sign included, also
 *   for h = 0 and subnormal h. A zero, -0.0, subnormal or NaN coordinate
 *   makes m < 2^-900 or the sum NaN, and an infinite one makes tau 0: such a
 *   unit always moves. As m <= M <= S, tau <= 2^-56, and a unit at |h| >=
 *   2^-56 moves after one compare. A buffer of the call keeps each unit's
 *   tau, made with its distance, or, once the unit moved, its last tau
 *   negated, which is made anew only when |h| drops below it. Units stay
 *   only at steps where the unit half the map's longer side from the winner
 *   has |h| < 2^-56; before, too few would stay to pay for the bookkeeping.
 *   So 25% of the unit-steps of a paper-shape (25x25) training stay, all in
 *   its last 40%, and none of an 8x8 one (31% and 7% if every step were
 *   open). When the buffer cannot be allocated, every unit moves.
 *
 * A block runs on one thread or on two. With two, each thread owns a
 * contiguous half of the units: it moves them and finds their nearest two
 * to the next sample. Both threads then merge the two halves the same way,
 * ties to the lower half, and apply the same test, so they agree on every
 * winner and stop at the same step. A unit's arithmetic does not depend on
 * the thread that moves it, so the bytes are those of one thread. The
 * threads meet once per step: each publishes its half's nearest units and
 * bumps its own step counter, then waits for the other's. The helper thread
 * starts with every signal blocked and is joined before the call returns,
 * so signals reach the caller's thread and a fork never copies it; when it
 * cannot start, the caller's thread runs the block alone.
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

#define _GNU_SOURCE
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>

/* The nearest units of one half of the map to one sample. */
struct nearest {
    double first, second; /* the lowest and second-lowest distance, INFINITY if none */
    int64_t winner;       /* the first unit at `first` */
    int64_t nan;          /* 1 when some distance is NaN */
};

static const struct nearest NONE = {INFINITY, INFINITY, 0, 0};

static inline void see(struct nearest *n, double d, int64_t u)
{
    if (d != d) {
        n->nan = 1;
    } else if (d < n->first) {
        n->second = n->first;
        n->first = d;
        n->winner = u;
    } else if (d < n->second) {
        n->second = d;
    }
}

/* Winner of a step from the nearest units of the lower and the upper half,
 * ties to the lowest index, or -1 when the distances cannot decide it. */
static int64_t decide(const struct nearest *lower, const struct nearest *upper, int64_t units,
                      int64_t dim)
{
    if (units == 1)
        return 0;
    if (lower->nan || upper->nan)
        return -1;
    const struct nearest *near = upper->first < lower->first ? upper : lower;
    const struct nearest *far = near == lower ? upper : lower;
    double first = near->first;
    double second = far->first < near->second ? far->first : near->second;
    if (!(second - first > 4.0 * (double)(dim + 2) * (DBL_EPSILON * second + 0x1p-1074)))
        return -1;
    return near->winner;
}

/* What one thread publishes, on cache lines of its own: `ready` steps have
 * their nearest units in `nearest`, step s in nearest[s & 1]. */
struct lane {
    _Alignas(64) _Atomic int64_t ready;
    struct nearest nearest[2];
};

/* Pauses before a waiting thread gives up its CPU: a few microseconds on
 * older x86 cores, ~50 us on Skylake and later, whose `pause` is longer. */
#define SPINS 1024

static void wait_for(struct lane *lane, int64_t steps)
{
    for (int spins = 0; atomic_load_explicit(&lane->ready, memory_order_acquire) < steps;) {
        if (spins < SPINS) {
            ++spins;
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        } else {
            sched_yield();
        }
    }
}

static void publish(struct lane *lane, int64_t steps, const struct nearest *near)
{
    lane->nearest[(steps - 1) & 1] = *near;
    atomic_store_explicit(&lane->ready, steps, memory_order_release);
}

#define BLOCK_PARAMS                                                                   \
    double *codebook, int64_t rows, int64_t cols, int64_t dim, const double *samples, \
        const int64_t *order, int64_t steps, const double *table, int64_t stride,     \
        const int64_t *index, int64_t threads, double size
#define BLOCK_ARGS \
    codebook, rows, cols, dim, samples, order, steps, table, stride, index, threads, size

/* One call's arguments and its threads' meeting point. */
struct block {
    double *codebook;
    int64_t rows, cols, dim;
    const double *samples;
    const int64_t *order;
    int64_t steps;
    const double *table;
    int64_t stride;
    const int64_t *index;
    int64_t threads; /* 1 or 2 */
    double size;     /* X, the largest |coordinate| of a training row */
    double *tau;     /* each unit's tau, or minus its last; NULL: every unit moves */
    struct lane lane[2];
};

/* Starts the helper on a CPU other than the caller's: a new thread often
 * starts on its creator's CPU and stays there for a whole call. */
static void place_helper(pthread_attr_t *attr)
{
#if defined(__GLIBC__)
    cpu_set_t cpus;
    int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return;
    CPU_CLR(cpu, &cpus);
    if (CPU_COUNT(&cpus) > 0)
        pthread_attr_setaffinity_np(attr, sizeof cpus, &cpus);
#else
    (void)attr;
#endif
}

/* Runs `body` on the caller's thread and, when two threads are asked for
 * and the helper starts, `helper` on another; returns once both are done. */
static int64_t run(BLOCK_PARAMS, int64_t (*body)(struct block *, int), void *(*helper)(void *))
{
    if (steps <= 0)
        return steps;
    struct block block = {codebook, rows, cols, dim, samples, order, steps, table, stride, index,
                          threads > 1 ? 2 : 1, size, malloc(rows * cols * sizeof(double)),
                          {{0, {NONE, NONE}}, {0, {NONE, NONE}}}};
    pthread_t thread;
    if (block.threads > 1) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        place_helper(&attr);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        if (pthread_create(&thread, &attr, helper, &block) != 0)
            block.threads = 1;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        pthread_attr_destroy(&attr);
    }
    int64_t done = body(&block, 0);
    if (block.threads > 1)
        pthread_join(thread, NULL);
    free(block.tau);
    return done;
}

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
    return run(BLOCK_ARGS, block_pair, helper_pair);
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
        return run(BLOCK_ARGS, block_quad, helper_quad);
#endif
    return run(BLOCK_ARGS, block_pair, helper_pair);
}

/* Steps first .. first + count - 1 of a `total`-step schedule: alphas[s] and
 * sigmas[s] decay exponentially from alpha0 and sigma0 toward alpha1 and
 * sigma1, as `som._python_schedule` computes them with Python's float `**`
 * (libm's pow for a positive base and a finite exponent). Python's int
 * true division rounds step / (total - 1) once, as this quotient of two
 * exact doubles does for any step count below 2^53. */
void dam_som_schedule(double alpha0, double alpha1, double sigma0, double sigma1, int64_t total,
                      int64_t first, int64_t count, double *alphas, double *sigmas)
{
    const double alpha_ratio = alpha1 / alpha0, sigma_ratio = sigma1 / sigma0;
    for (int64_t s = 0; s < count; ++s) {
        double frac = total > 1 ? (double)(first + s) / (double)(total - 1) : 0.0;
        alphas[s] = alpha0 * pow(alpha_ratio, frac);
        sigmas[s] = sigma0 * pow(sigma_ratio, frac);
    }
}

#else /* The block body on VEC, a vector of LANES doubles, built with TARGET. */

#define AT(p) (*(VEC *)(p))
/* Lane-wise a < b ? a : b and a > b ? a : b, so b where a is NaN, as x86's min and max. */
#if LANES == 4
#define LESSER __builtin_ia32_minpd256
#define GREATER __builtin_ia32_maxpd256
#elif defined(__SSE2__)
#define LESSER __builtin_ia32_minpd
#define GREATER __builtin_ia32_maxpd
#else
#define PICK(a, b, mask) \
    ((VEC)(((__typeof__(mask))(a) & (mask)) | ((__typeof__(mask))(b) & ~(mask))))
#define LESSER(a, b) PICK(a, b, (a) < (b))
#define GREATER(a, b) PICK(a, b, (a) > (b))
#endif

/* Adds (c - x)^2 to *acc lane by lane and, when `bound`, takes |c| into *lo and *hi. */
TARGET __attribute__((always_inline)) static inline void NAME(take)(VEC c, VEC x, int bound,
                                                                    VEC *acc, VEC *lo, VEC *hi)
{
    VEC e = c - x;
    *acc += e * e;
    if (bound) {
        c = GREATER(c, -c);
        *lo = LESSER(c, *lo);
        *hi = GREATER(c, *hi);
    }
}

/* The squared distance from c to x; when `bound`, *tau is also set to the
 * unit's tau, 2^-56 m / (M + size) (see the header), or to 0 when m < 2^-900
 * or a coordinate is NaN (the sum is NaN). */
TARGET __attribute__((always_inline)) static inline double NAME(sq_dist)(
    const double *c, const double *x, int64_t dim, int bound, double size, double *tau)
{
    VEC acc0 = {0.0}, acc1 = {0.0}, acc2 = {0.0}, acc3 = {0.0};
    VEC lo0 = (VEC){0.0} + INFINITY, lo1 = lo0, hi0 = {0.0}, hi1 = hi0;
    int64_t j = 0;
    for (; j + 4 * LANES <= dim; j += 4 * LANES) {
        NAME(take)(AT(c + j), AT(x + j), bound, &acc0, &lo0, &hi0);
        NAME(take)(AT(c + j + LANES), AT(x + j + LANES), bound, &acc1, &lo1, &hi1);
        NAME(take)(AT(c + j + 2 * LANES), AT(x + j + 2 * LANES), bound, &acc2, &lo0, &hi0);
        NAME(take)(AT(c + j + 3 * LANES), AT(x + j + 3 * LANES), bound, &acc3, &lo1, &hi1);
    }
    for (; j + LANES <= dim; j += LANES)
        NAME(take)(AT(c + j), AT(x + j), bound, &acc0, &lo0, &hi0);
    acc0 += acc1;
    acc2 += acc3;
    acc0 += acc2;
    lo0 = LESSER(lo1, lo0);
    hi0 = GREATER(hi1, hi0);
    double sum = acc0[0], m = lo0[0], top = hi0[0];
    for (int l = 1; l < LANES; ++l) {
        sum += acc0[l];
        m = lo0[l] < m ? lo0[l] : m;
        top = hi0[l] > top ? hi0[l] : top;
    }
    for (; j < dim; ++j) {
        double e = c[j] - x[j], a = fabs(c[j]);
        sum += e * e;
        m = a < m ? a : m;
        top = a > top ? a : top;
    }
    if (bound)
        *tau = m >= 0x1p-900 && sum == sum ? 0x1p-56 * m / (top + size) : 0.0;
    return sum;
}

/* Moves unit c toward x by h and returns its new squared distance to next.
 * Out of line: inlined into `block`'s unit loop, gcc 12 loads every second
 * vector of the unit twice, and steps take ~10% longer. */
TARGET __attribute__((noinline)) static double NAME(move_unit)(double *c, const double *x,
                                                               const double *next, double h,
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

/* Runs steps 0 .. steps-1 of a block on the (rows * cols, dim) codebook, as
 * thread t of block->threads.
 *
 * Step s visits samples[order[s]]; table has one row of `stride` weights per
 * step, the learning rate included. `index` is (2 rows - 1, 2 cols - 1):
 * entry [rows - 1 + dr][cols - 1 + dc] is the table column of the grid
 * offset (dr, dc). Returns `steps` when every step ran, else the index of
 * the first step whose winner is undecided; that step has not changed the
 * codebook, and the caller makes it with numpy.
 */
TARGET static int64_t NAME(block)(struct block *b, int t)
{
    double *codebook = b->codebook;
    const double *samples = b->samples, *table = b->table;
    const int64_t *order = b->order, *index = b->index;
    const int64_t rows = b->rows, cols = b->cols, dim = b->dim, steps = b->steps;
    const int64_t stride = b->stride, threads = b->threads;
    const double size = b->size;
    double *tau = b->tau;
    const int64_t units = rows * cols, split = threads > 1 ? units / 2 : units;
    const int64_t lo = t ? split : 0, hi = t ? units : split;
    struct lane *own = &b->lane[t], *other = &b->lane[1 - t];
    struct nearest near = NONE;
    double unknown = -1.0;
    for (int64_t u = lo; u < hi; ++u)
        see(&near, NAME(sq_dist)(codebook + u * dim, samples + order[0] * dim, dim, 1, size,
                                 tau ? tau + u : &unknown), u);
    publish(own, 1, &near);
    /* The table column of a unit half the map's longer side from the winner;
     * a step at which its weight is 2^-56 or more moves every unit and forgets
     * no tau, leaving them all stale. */
    const int64_t half = rows >= cols ? index[(rows - 1 + rows / 2) * (2 * cols - 1) + cols - 1]
                                      : index[(rows - 1) * (2 * cols - 1) + cols - 1 + cols / 2];
    int stale = 0;
    for (int64_t s = 0; s < steps; ++s) {
        if (threads > 1)
            wait_for(other, s + 1);
        int64_t winner = decide(&b->lane[0].nearest[s & 1], &b->lane[1].nearest[s & 1], units, dim);
        if (winner < 0)
            return s;
        const double *x = samples + order[s] * dim;
        /* The last step's distances are not used: the next call starts anew. */
        const double *next = s + 1 < steps ? samples + order[s + 1] * dim : x;
        const double *weights = table + s * stride;
        /* Unit u in grid cell (r, c) takes the weight of table column column[c]. */
        const int64_t *column = index + (rows - 1 + lo / cols - winner / cols) * (2 * cols - 1)
                                + cols - 1 - winner % cols;
        /* Every unit moves unless units may stay at this step. */
        const int settle = tau && fabs(weights[half]) < 0x1p-56;
        for (int64_t u = lo; settle && stale && u < hi; ++u)
            tau[u] = -fabs(tau[u]);
        stale = !settle;
        near = NONE;
        for (int64_t u = lo, c = lo % cols; u < hi && !settle; ++u) {
            see(&near, NAME(move_unit)(codebook + u * dim, x, next, weights[column[c]], dim), u);
            if (++c == cols) {
                c = 0;
                column += 2 * cols - 1;
            }
        }
        for (int64_t u = lo, c = lo % cols; u < hi && settle; ++u) {
            double *unit = codebook + u * dim, w = weights[column[c]], h = fabs(w);
            double d = -1.0; /* -1 while the unit is to move */
            if (h < 0x1p-56) {
                if (h < tau[u]) {
                    d = NAME(sq_dist)(unit, next, dim, 0, size, tau + u);
                } else if (tau[u] <= 0.0 && h < -tau[u]) {
                    double e = NAME(sq_dist)(unit, next, dim, 1, size, tau + u);
                    d = h < tau[u] ? e : -1.0;
                }
            }
            if (d < 0.0) {
                d = NAME(move_unit)(unit, x, next, w, dim);
                tau[u] = -fabs(tau[u]);
            }
            see(&near, d, u);
            if (++c == cols) {
                c = 0;
                column += 2 * cols - 1;
            }
        }
        publish(own, s + 2, &near);
    }
    return steps;
}

TARGET static void *NAME(helper)(void *block)
{
    NAME(block)(block, 1);
    return NULL;
}

#undef AT
#undef PICK
#undef LESSER
#undef GREATER

#endif
