/* A ThreadSanitizer driver for the pass of `src/dam/_preprocess.c`: its two
 * threads read, parse, preprocess and normalize a few canonical files in a
 * temporary directory, with an in-memory action and a missing file among
 * them, into the rows of two window tables.
 *
 * The frame values are integers, which the reader converts with the one
 * entry of its powers-of-five table (5^0) that this driver fills. The same
 * inputs then run on one thread, which must give the same rows and results.
 *
 * Build and run it from the repository root:
 *
 *     gcc -O1 -g -fsanitize=thread -ffp-contract=off -o tsan_preprocess \
 *         tests/tsan_preprocess.c src/dam/_preprocess.c -lm -lpthread
 *     TSAN_OPTIONS=halt_on_error=1 ./tsan_preprocess
 *
 * It exits 0 when every file but the missing one was read into its rows on
 * both runs, alike; 1 when not; and ThreadSanitizer's exit code (66) on a
 * report.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

void dam_windows(const uint64_t *powers, const char *const *paths, const double *const *frames,
                 int64_t inputs, int64_t joints, int64_t tables, const int64_t *settings,
                 const double *epsilons, const double *const *kernels, double *const *outs,
                 char *headers, int64_t slot, int64_t *results, int64_t threads);

enum { FILES = 7, INPUTS = FILES + 2, JOINTS = 4, WIDTH = 3 * JOINTS, STEPS = 40, COUNT = 12,
       SLOT = 512 };
/* Table t resamples to COUNT frames and takes windows of WINDOW[t] of them. */
static const int64_t WINDOW[2] = {1, 3};

static uint64_t powers[651 * 2];
static double frames[STEPS * WIDTH];
static double out[2][2][INPUTS * COUNT * WIDTH * 3]; /* [run][table] */
static char headers[2][INPUTS * SLOT];
static int64_t results[2][INPUTS * 2];

/* A fixed 64-bit LCG. */
static int64_t next_step(void)
{
    static uint64_t state = 7;
    state = state * 6364136223846793005u + 1442695040888963407u;
    return (int64_t)(state >> 61) - 3;
}

int main(void)
{
    /* 5^0 scaled into [2^127, 2^128): the entry of q = 0, at 0 - (-342). */
    powers[2 * 342] = (uint64_t)1 << 63;
    char directory[] = "/tmp/dam-tsan-XXXXXX";
    if (mkdtemp(directory) == NULL)
        return 1;
    char paths[INPUTS][64];
    const char *inputs[INPUTS];
    const double *in_memory[INPUTS] = {0};
    for (int i = 0; i < INPUTS; ++i) {
        snprintf(paths[i], sizeof paths[i], "%s/a%d.txt", directory, i);
        inputs[i] = paths[i];
    }
    /* Input FILES is a missing file, and input FILES + 1 the frames below. */
    inputs[FILES + 1] = NULL;
    int64_t position[WIDTH] = {0};
    for (int i = 0; i < FILES; ++i) {
        FILE *f = fopen(paths[i], "w");
        if (f == NULL)
            return 1;
        fprintf(f, "# file %d\na%d,%d,%d,%d,%d\n", i, i, i % 3, i % 2, STEPS, JOINTS);
        for (int s = 0; s < STEPS; ++s)
            for (int v = 0; v < WIDTH; ++v) {
                position[v] += next_step();
                frames[s * WIDTH + v] = (double)position[v];
                fprintf(f, "%lld%c", (long long)position[v], v + 1 < WIDTH ? ' ' : '\n');
            }
        fclose(f);
    }
    in_memory[FILES + 1] = frames;

    const int64_t settings[2 * 4] = {COUNT, WINDOW[0], 2, 2, COUNT, WINDOW[1], 0, 0};
    const double epsilons[2] = {1e-8, 1e-8};
    static const double kernel[2 * 5] = {0.6, 1.0, 0.6, 0, 0, 0.1, 0.6, 1.0, 0.6, 0.1};
    const double *kernels[2] = {kernel, kernel};
    for (int run = 0; run < 2; ++run) {
        double *outs[2] = {out[run][0], out[run][1]};
        results[run][2 * (FILES + 1) + 1] = STEPS;
        dam_windows(powers, inputs, in_memory, INPUTS, JOINTS, 2, settings, epsilons, kernels,
                    outs, headers[run], SLOT, results[run], run == 0 ? 2 : 1);
    }

    int failed = memcmp(out[0], out[1], sizeof out[0]) != 0
                 || memcmp(results[0], results[1], sizeof results[0]) != 0
                 || memcmp(headers[0], headers[1], sizeof headers[0]) != 0;
    for (int i = 0; i < INPUTS; ++i)
        failed |= (results[0][2 * i] != 0) != (i == FILES);
    failed |= strcmp(headers[0], "a0,0,0,40,4") != 0;
    for (int i = 0; i < FILES; ++i)
        unlink(paths[i]);
    rmdir(directory);
    printf("%s: %d files, an action and a missing file on two threads\n",
           failed ? "FAILED" : "ok", FILES);
    return failed;
}
