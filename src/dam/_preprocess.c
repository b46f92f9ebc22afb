/* The preprocessing chain of one action, compiled on first use by dam._native.
 *
 * Plain C with no Python headers; `dam.preprocess.preprocess_action` calls it
 * through ctypes, once per action, and normalizes the windows it returns.
 * It makes the float operations of the numpy path (`smooth_joint`,
 * `_resample_joint`, `direction_frames`, `windowed_direction_frames`) in
 * the same order, so both give the same bytes:
 *
 * - each joint is anchored at its first position, then smoothed by
 *   `smooth_joint`'s fixed-order shifted sums;
 * - each joint is then resampled on its own, as `_resample_joint` does it
 *   (`resample`): chord lengths are sqrt((dx*dx + dy*dy) + dz*dz), summed
 *   in time order, and coincident samples are collapsed; the natural-spline
 *   system is solved as LAPACK's dgtsv solves it, row interchanges included
 *   (`gtsv`); Hermite coefficients, then the polynomial at
 *   linspace(0, total, count), as scipy's CubicSpline evaluates it;
 * - frame differences, then windows.
 *
 * The build passes -ffp-contract=off, so no multiply and add fuse into one
 * rounding, and each lane of a vector rounds as a scalar would. A knot's
 * three coordinates are stored with a fourth, unused lane, so two pairs of
 * lanes hold them.
 *
 * What the numpy path rejects, a non-finite chord length, knots that do not
 * increase or a singular system, this code declines, and so does a failed
 * allocation: the caller then runs the numpy path, which raises or gives
 * the result. A non-finite coordinate makes its joint's chord length
 * non-finite, so an action with one is declined, and the caller rejects it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DIM 3
#define ROW 4 /* doubles per knot: DIM coordinates and an unused lane */

/* Two doubles, read and written in place with a double's alignment. */
typedef double pair __attribute__((vector_size(16), aligned(8), may_alias));
#define AT(p) (*(pair *)(p))

enum { DONE, NO_MEMORY, NOT_FINITE, NOT_INCREASING, SINGULAR };

/* `smooth_joint` of the (steps, width) series into out: sample t is
 * (((0.0 + w[lo] x[t+lo]) + ...) + w[hi] x[t+hi]) / (((0.0 + w[lo]) + ...) +
 * w[hi]) over the offsets lo..hi of -radius..radius that stay in the series. */
static void smooth(const double *restrict series, int64_t steps, int64_t width,
                   const double *kernel, int64_t radius, double *restrict out)
{
    for (int64_t t = 0; t < steps; t++) {
        int64_t lo = t < radius ? -t : -radius;
        int64_t hi = steps - 1 - t < radius ? steps - 1 - t : radius;
        const double *w = kernel + radius, *x = series + t * width;
        double wsum = 0.0;
        for (int64_t k = lo; k <= hi; k++)
            wsum += w[k];
        int64_t i = 0;
        for (; i + 2 <= width; i += 2) {
            pair acc = {0.0, 0.0};
            for (int64_t k = lo; k <= hi; k++)
                acc += w[k] * AT(x + k * width + i);
            AT(out + t * width + i) = acc / wsum;
        }
        for (; i < width; i++) {
            double acc = 0.0;
            for (int64_t k = lo; k <= hi; k++)
                acc += w[k] * x[k * width + i];
            out[t * width + i] = acc / wsum;
        }
    }
}

/* Row i's step of dgtsv's elimination with partial pivoting on a block whose
 * rows end before row end, b (rows, ROW); 0 when the pivot is zero. */
static int eliminate(int64_t i, int64_t end, double *dl, double *d, double *du, double *b)
{
    double *row = b + i * ROW, *next = row + ROW;
    if (fabs(d[i]) >= fabs(dl[i])) {
        if (d[i] == 0.0)
            return 0;
        double fact = dl[i] / d[i];
        d[i + 1] = d[i + 1] - fact * du[i];
        for (int h = 0; h < ROW; h += 2)
            AT(next + h) = AT(next + h) - fact * AT(row + h);
        if (i < end - 2)
            dl[i] = 0.0;
    } else {
        double fact = d[i] / dl[i];
        d[i] = dl[i];
        double temp = d[i + 1];
        d[i + 1] = du[i] - fact * temp;
        if (i < end - 2) {
            dl[i] = du[i + 1];
            du[i + 1] = -fact * dl[i];
        }
        du[i] = temp;
        for (int h = 0; h < ROW; h += 2) {
            pair top = AT(row + h);
            AT(row + h) = AT(next + h);
            AT(next + h) = top - fact * AT(next + h);
        }
    }
    return 1;
}

/* dgtsv on the n >= 2 rows of one system; the solution replaces b (n, ROW).
 * Returns DONE or SINGULAR. */
static int64_t gtsv(int64_t n, double *dl, double *d, double *du, double *b)
{
    for (int64_t i = 0; i + 1 < n; i++)
        if (!eliminate(i, n, dl, d, du, b))
            return SINGULAR;
    if (d[n - 1] == 0.0)
        return SINGULAR;

    /* Back solve, from the last row up: row i becomes
     * ((b[i] - du[i] b[i+1]) - dl[i] b[i+2]) / d[i], without terms past the end. */
    double *last = b + (n - 1) * ROW;
    for (int h = 0; h < ROW; h += 2) {
        AT(last + h) = AT(last + h) / d[n - 1];
        AT(last - ROW + h) = (AT(last - ROW + h) - du[n - 2] * AT(last + h)) / d[n - 2];
    }
    for (int64_t i = n - 3; i >= 0; i--) {
        double *row = b + i * ROW;
        for (int h = 0; h < ROW; h += 2)
            AT(row + h) = (AT(row + h) - du[i] * AT(row + ROW + h)
                           - dl[i] * AT(row + 2 * ROW + h)) / d[i];
    }
    return DONE;
}

/* `_resample_joint` of one joint: its steps points, width doubles apart from
 * `points`, resampled to count points, width doubles apart from out. scratch
 * holds (5 + 3 ROW) steps doubles. Returns DONE, or why it declined. */
static int64_t resample(const double *points, int64_t steps, int64_t width, int64_t count,
                        double epsilon, double *scratch, double *out)
{
    double *x = scratch, *dx = x + steps, *diag = dx + steps, *upper = diag + steps;
    double *lower = upper + steps, *y = lower + steps, *slope = y + ROW * steps;
    double *deriv = slope + ROW * steps;

    /* The running arc length at each sample, less the samples that do not move. */
    double total = 0.0;
    int64_t n = 0;
    for (int64_t t = 0; t < steps; t++) {
        const double *b = points + t * width;
        if (t > 0) {
            const double *a = b - width;
            double d0 = b[0] - a[0], d1 = b[1] - a[1], d2 = b[2] - a[2];
            double len = sqrt((d0 * d0 + d1 * d1) + d2 * d2);
            total += len;
            if (!(len > 0.0))
                continue;
        }
        x[n] = total;
        memcpy(y + n * ROW, b, DIM * sizeof(double));
        y[n * ROW + DIM] = 0.0;
        n++;
    }
    if (!isfinite(total))
        return NOT_FINITE;
    if (!(total >= epsilon)) {
        for (int64_t i = 0; i < count; i++)
            memcpy(out + i * width, points, DIM * sizeof(double));
        return DONE;
    }

    for (int64_t k = 0; k + 1 < n; k++) {
        dx[k] = x[k + 1] - x[k];
        if (!(dx[k] > 0.0))
            return NOT_INCREASING;
        for (int h = 0; h < ROW; h += 2)
            AT(slope + k * ROW + h) = (AT(y + (k + 1) * ROW + h) - AT(y + k * ROW + h)) / dx[k];
    }
    /* Row i: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
     * = 3 (dx[i] slope[i-1] + dx[i-1] slope[i]); the end rows set the
     * second derivative to zero. */
    int64_t l = n - 1;
    diag[0] = 2 * dx[0];
    upper[0] = dx[0];
    for (int h = 0; h < ROW; h += 2)
        AT(deriv + h) = 3.0 * (AT(y + ROW + h) - AT(y + h));
    for (int64_t i = 1; i < l; i++) {
        diag[i] = 2 * (dx[i - 1] + dx[i]);
        upper[i] = dx[i - 1];
        lower[i - 1] = dx[i];
        for (int h = 0; h < ROW; h += 2)
            AT(deriv + i * ROW + h) = 3.0 * (dx[i] * AT(slope + (i - 1) * ROW + h)
                                             + dx[i - 1] * AT(slope + i * ROW + h));
    }
    lower[l - 1] = dx[l - 1];
    diag[l] = 2 * dx[l - 1];
    for (int h = 0; h < ROW; h += 2)
        AT(deriv + l * ROW + h) = 3.0 * (AT(y + l * ROW + h) - AT(y + (l - 1) * ROW + h));
    if (gtsv(n, lower, diag, upper, deriv) != DONE)
        return SINGULAR;

    double step = total / (double)(count - 1);
    for (int64_t i = 0, p = 0; i < count; i++) {
        double q = i == count - 1 ? total : (double)i * step;
        /* The interval of q: its last knot <= q, clipped to the last one. */
        while (p > 0 && x[p] > q)
            p--;
        while (p + 1 < n && x[p + 1] <= q)
            p++;
        int64_t k = p < n - 2 ? p : n - 2;
        double h = dx[k], s = q - x[k];
        double v[ROW];
        for (int e = 0; e < ROW; e += 2) {
            pair d0 = AT(deriv + k * ROW + e), d1 = AT(deriv + (k + 1) * ROW + e);
            pair sl = AT(slope + k * ROW + e);
            pair t = (d0 + d1 - 2.0 * sl) / h;
            pair c0 = t / h, c1 = (sl - d0) / h - t;
            AT(v + e) = 0.0 + AT(y + k * ROW + e) + d0 * s + c1 * (s * s) + c0 * (s * s * s);
        }
        memcpy(out + i * width, v, DIM * sizeof(double));
    }
    return DONE;
}

/* The (count - window, joints * 3 * window) windowed direction frames of the
 * (steps, joints, 3) action `frames`, unnormalized, into out. kernel holds
 * the 2 radius + 1 smoothing weights; radius 0 smooths nothing. Returns DONE,
 * or why the first joint that declined did. */
int64_t dam_preprocess(const double *frames, int64_t steps, int64_t joints,
                       const double *kernel, int64_t radius, int64_t count,
                       int64_t window, double epsilon, double *out)
{
    const int64_t width = joints * DIM;
    double *work = malloc(sizeof(double) *
                          (size_t)(2 * steps * width + (5 + 3 * ROW) * steps + count * width));
    if (work == NULL)
        return NO_MEMORY;
    double *anchored = work, *smoothed = anchored + steps * width;
    double *scratch = smoothed + steps * width, *resampled = scratch + (5 + 3 * ROW) * steps;
    int64_t status = DONE;

    for (int64_t t = 0; t < steps; t++)
        for (int64_t i = 0; i < width; i++)
            anchored[t * width + i] = frames[t * width + i] - frames[i];
    if (radius > 0)
        smooth(anchored, steps, width, kernel, radius, smoothed);
    else
        smoothed = anchored;

    for (int64_t j = 0; j < joints && status == DONE; j++)
        status = resample(smoothed + j * DIM, steps, width, count, epsilon, scratch,
                          resampled + j * DIM);
    if (status == DONE)
        for (int64_t r = 0; r < count - window; r++)
            for (int64_t w = 0; w < window; w++) {
                const double *a = resampled + (r + w) * width, *b = a + width;
                double *dst = out + (r * window + w) * width;
                for (int64_t i = 0; i < width; i++)
                    dst[i] = b[i] - a[i];
            }
    free(work);
    return status;
}
