/* A ThreadSanitizer driver for `src/dam/_som_kernel.c`: 600 online steps on a
 * 25x25 map of dimension 180, each kernel call on two threads.
 *
 * Unit 1 starts as a copy of unit 0, and the first sample is that vector, so
 * the kernel cannot decide step 0 and hands it back; the driver makes it
 * with the direct form, as `dam.som._numpy_block` does, and calls the kernel
 * again for the other 599. The weights collapse below 2^-56 for the second
 * half of the steps, so units stay there. The two threads thus meet at every
 * step, through the moving, the staying and the hand-back paths.
 *
 * Build and run it from the repository root:
 *
 *     gcc -O1 -g -fsanitize=thread -ffp-contract=off -o tsan_som_kernel \
 *         tests/tsan_som_kernel.c src/dam/_som_kernel.c -lm -lpthread
 *     TSAN_OPTIONS=halt_on_error=1 ./tsan_som_kernel
 *
 * It exits 0 after two kernel calls and one hand-back, 1 when the calls
 * went otherwise, and ThreadSanitizer's exit code (66) on a report.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>

int64_t dam_som_block(double *codebook, int64_t rows, int64_t cols, int64_t dim,
                      const double *samples, const int64_t *order, int64_t steps,
                      const double *table, int64_t stride, const int64_t *index,
                      int64_t threads, double size);

enum { ROWS = 25, COLS = 25, UNITS = ROWS * COLS, DIM = 180, STEPS = 600, SAMPLES = 64 };
/* Table column of a grid offset (dr, dc): its squared length. */
enum { STRIDE = (ROWS - 1) * (ROWS - 1) + (COLS - 1) * (COLS - 1) + 1 };

static double codebook[UNITS * DIM], samples[SAMPLES * DIM], table[STEPS * STRIDE];
static int64_t order[STEPS], grid_index[(2 * ROWS - 1) * (2 * COLS - 1)];

/* A uniform double in [-1, 1) from a fixed 64-bit LCG. */
static double uniform(void)
{
    static uint64_t state = 42;
    state = state * 6364136223846793005u + 1442695040888963407u;
    return (double)(state >> 11) * 0x1p-52 - 1.0;
}

/* Step s with the direct form: the winner is the first unit nearest to the
 * sample, and every unit moves toward it by its weight. */
static void direct_step(int64_t s)
{
    const double *x = samples + order[s] * DIM;
    int64_t winner = 0;
    double best = INFINITY;
    for (int64_t u = 0; u < UNITS; ++u) {
        double d = 0.0;
        for (int64_t j = 0; j < DIM; ++j)
            d += (codebook[u * DIM + j] - x[j]) * (codebook[u * DIM + j] - x[j]);
        if (d < best) {
            best = d;
            winner = u;
        }
    }
    for (int64_t u = 0; u < UNITS; ++u) {
        int64_t dr = u / COLS - winner / COLS, dc = u % COLS - winner % COLS;
        double h = table[s * STRIDE + dr * dr + dc * dc];
        for (int64_t j = 0; j < DIM; ++j)
            codebook[u * DIM + j] -= (codebook[u * DIM + j] - x[j]) * h;
    }
}

int main(void)
{
    for (int64_t i = 0; i < UNITS * DIM; ++i)
        codebook[i] = uniform();
    for (int64_t j = 0; j < DIM; ++j)
        codebook[DIM + j] = codebook[j];
    double size = 0.0;
    for (int64_t i = 0; i < SAMPLES * DIM; ++i) {
        samples[i] = i < DIM ? codebook[i] : uniform();
        size = fmax(size, fabs(samples[i]));
    }
    /* Sample 0 comes first and never again, so no later step is a tie. */
    for (int64_t s = 0; s < STEPS; ++s)
        order[s] = s ? 1 + (7 * s) % (SAMPLES - 1) : 0;
    for (int64_t dr = 1 - ROWS; dr < ROWS; ++dr)
        for (int64_t dc = 1 - COLS; dc < COLS; ++dc)
            grid_index[(ROWS - 1 + dr) * (2 * COLS - 1) + COLS - 1 + dc] = dr * dr + dc * dc;
    for (int64_t s = 0; s < STEPS; ++s) {
        double frac = (double)s / (STEPS - 1), alpha = 0.5 * pow(0.02, frac);
        double sigma = 12.0 * pow(0.05, frac), collapse = s < STEPS / 2 ? 1.0 : 0x1p-80;
        for (int64_t d2 = 0; d2 < STRIDE; ++d2)
            table[s * STRIDE + d2] = collapse * alpha * exp(-d2 / (2.0 * sigma * sigma));
    }

    int64_t calls = 0, handed_back = 0;
    for (int64_t start = 0; start < STEPS;) {
        start += dam_som_block(codebook, ROWS, COLS, DIM, samples, order + start,
                               STEPS - start, table + start * STRIDE, STRIDE, grid_index, 2,
                               size);
        ++calls;
        if (start < STEPS) {
            direct_step(start++);
            ++handed_back;
        }
    }
    printf("kernel calls: %lld, steps handed back: %lld\n", (long long)calls,
           (long long)handed_back);
    return calls == 2 && handed_back == 1 ? 0 : 1;
}
