/* From file text to window rows, compiled on first use by dam._native.
 *
 * Plain C with no Python headers; `dam.dataset` and `dam.preprocess` call it
 * through ctypes. It holds the number-table reader and writer, the
 * preprocessing chain of one action, the normalization of its windows, and
 * the pass that runs them over a run of input files (or of in-memory
 * actions) on one or two threads. They share one file because `dam._native`
 * keys its cache on the bytes of one source.
 *
 * Reading. `dam_read_table` stores for each value the bytes Python's float()
 * gives the token. Whatever it cannot read that way it declines, and the
 * caller reads the whole table with the Python reader instead, which also
 * words every error. So the reader is strict:
 *
 * - a line ends at \n, \r\n or \r; a line that is blank or whose first
 *   byte other than ' ' and '\t' is '#' is skipped;
 * - values are separated by ' ' and '\t', and each one must match
 *   [+-]?digits[.digits][(e|E)[+-]?digits] with at least one mantissa digit,
 *   so '_', inf, nan and hex decline;
 * - a byte Python splits lines or strips at and this reader does not
 *   (\v, \f, \x1c-\x1f), or any byte outside ASCII, declines;
 * - so do a row with the wrong count of values, more rows than the caller
 *   has room for, and a value that is subnormal or overflows.
 *
 * Each value is converted by the Eisel-Lemire algorithm (Lemire, "Number
 * parsing at a gigabyte per second", SPE 2021), which with the table the
 * caller passes is exact for every value of at most 19 significant digits
 * (Mushtak and Lemire, "Fast number parsing without fallback", SPE 2022).
 * A value of more significant digits declines, as does an exponent of 10^5
 * or more, so the exponent is read whole and cannot overflow. No locale
 * setting changes what the reader accepts. Mantissa digits are read eight
 * bytes at a time where eight bytes remain (Lemire's SWAR digit parsing,
 * from the same paper), which gives the same digits, counts and values as
 * reading them one at a time.
 *
 * Writing. `dam_write_table` writes each value with the bytes of Python's
 * repr(float): the shortest digits that read back as the value, the one
 * nearest the value when several are as short (ties to an even last
 * digit); fixed notation for 1e-4 <= |x| < 1e16, with ".0" after an
 * integral value; otherwise d[.ddd]e+XX or e-XX, with at least two exponent
 * digits; "-0.0" for negative zero. The digits come from Ryu (Adams, "Ryu:
 * fast float-to-string conversion", PLDI 2018), which needs no fallback;
 * the layout is the one CPython's float_repr_style 'short' gives.
 *
 * The chain makes the float operations of the numpy path
 * (`preprocess.smooth_joint`, `_resample_joint`, `direction_frames`,
 * `windowed_direction_frames`, `_normalize_in_place`) in the same order, so
 * both give the same bytes:
 *
 * - each joint is anchored at its first position, then smoothed by
 *   `smooth_joint`'s fixed-order shifted sums;
 * - each joint is then resampled on its own, as `_resample_joint` does it
 *   (`resample`): chord lengths are sqrt((dx*dx + dy*dy) + dz*dz), summed
 *   in time order, and coincident samples are collapsed; the natural-spline
 *   system is solved as LAPACK's dgtsv solves it, row interchanges included
 *   (`gtsv`); Hermite coefficients, then the polynomial at
 *   linspace(0, total, count), as scipy's CubicSpline evaluates it;
 * - frame differences, then windows;
 * - each window is divided by its norm, the square root of numpy's pairwise
 *   sum of its squares (`square_sum`), unless the norm is below epsilon.
 *
 * The build passes -ffp-contract=off, so no multiply and add fuse into one
 * rounding, and each lane of a vector rounds as a scalar would. A knot's
 * three coordinates are stored with a fourth, unused lane, so two pairs of
 * lanes hold them.
 *
 * What the numpy path rejects, a non-finite chord length, knots that do not
 * increase, a singular system or a window norm that is not finite, this
 * code declines, and so does a failed allocation: the caller then runs the
 * numpy path, which raises or gives the result. A non-finite coordinate
 * makes its joint's chord length non-finite, so an action with one is
 * declined, and the caller rejects it.
 *
 * The pass (`dam_windows`) takes its inputs one at a time on each of its
 * threads: a file is opened and read whole into a buffer the thread reuses,
 * its header line is copied for the caller, and its frame table is read,
 * preprocessed and normalized into the input's rows of each window table.
 * The buffer, grown as a larger input needs, also holds the frame table and
 * the chain's workspace; it is the only heap memory a thread allocates, and
 * it is freed before the call returns. A file is declined when it cannot be
 * opened or read, when its header is not one the pass can use, or when the
 * reader or the chain declines it; the caller then reads it the Python way.
 */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

/* --- Reading ------------------------------------------------------------- */

/* The powers of five table covers 5^q for q in [MIN_Q, MAX_Q]. */
#define MIN_Q (-342)
#define MAX_Q 308
#define MAX_DIGITS 19

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int is_blank(char c)
{
    return c == ' ' || c == '\t';
}

static int is_line_end(char c)
{
    return c == '\n' || c == '\r';
}

/* Bytes Python may split lines or strip at and this reader does not: \v,
 * \f, \x1c-\x1f and, in UTF-8 text, every byte of a non-ASCII character. */
static int is_foreign(char c)
{
    unsigned char u = (unsigned char)c;
    return u == 0x0b || u == 0x0c || (u >= 0x1c && u <= 0x1f) || u >= 0x80;
}

/* w * 10^q rounded to nearest, ties to even, for 0 < w < 10^19, or 0 when
 * the result is subnormal, zero or infinite.
 *
 * `powers` holds, for each q, two words of 5^q scaled into [2^127, 2^128):
 * the high word first. Mantissa and exponent follow fast_float's
 * compute_float for binary64.
 */
static int eisel_lemire(uint64_t w, int64_t q, const uint64_t *powers, double *out)
{
    if (q < MIN_Q || q > MAX_Q)
        return 0;
    int zeros = __builtin_clzll(w);
    w <<= zeros;
    const uint64_t *power = powers + 2 * (q - MIN_Q);
    unsigned __int128 product = (unsigned __int128)w * power[0];
    uint64_t high = (uint64_t)(product >> 64), low = (uint64_t)product;
    /* 55 bits: 52 stored, the implicit one, one to round and one lost to a
     * product that starts with a 0 bit. */
    const uint64_t precision_mask = UINT64_MAX >> 55;
    if ((high & precision_mask) == precision_mask) {
        uint64_t second = (uint64_t)(((unsigned __int128)w * power[1]) >> 64);
        low += second;
        if (second > low)
            ++high;
    }
    int upper = (int)(high >> 63);
    int shift = upper + 64 - 55;
    uint64_t mantissa = high >> shift;
    /* floor(q * log2(10)) + 63, as an arithmetic shift of a signed product. */
    int64_t exponent = ((217706 * q) >> 16) + 63 + upper - zeros + 1023;
    if (exponent <= 0)
        return 0;
    /* Exactly halfway between two doubles: round to even, down. Only 5^q
     * for q in [-4, 23] can leave nothing but zeros below the cut. */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && (mantissa << shift) == high)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= (uint64_t)2 << 52) {
        mantissa = (uint64_t)1 << 52;
        ++exponent;
    }
    mantissa &= ~((uint64_t)1 << 52);
    if (exponent >= 0x7ff)
        return 0;
    uint64_t bits = mantissa | (uint64_t)exponent << 52;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* Digits are read eight at a time where eight bytes remain (SWAR: SIMD
 * within a register), as fast_float's is_made_of_eight_digits_fast and
 * parse_eight_digits_unrolled read them, on little-endian machines. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define EIGHT_DIGITS_AT_ONCE 1
#else
#define EIGHT_DIGITS_AT_ONCE 0
#endif

/* The top bit of each byte of `v` from the first that is not an ASCII
 * digit on, and maybe of later ones; 0 when all eight are digits. A byte
 * below '0' borrows into its top bit when '0' is subtracted, and one above
 * '9' sets it when 0x46 is added, or borrows when it is 0xba or above; the
 * first byte that is not a digit has no carry or borrow from below. */
static uint64_t not_digits(uint64_t v)
{
    return ((v + 0x4646464646464646) | (v - 0x3030303030303030)) & 0x8080808080808080;
}

/* The value of the eight decimal digits of `d`, one per byte, the first in
 * the low byte: pairs of digits, then fours, each in the low bytes of its
 * lane. */
static uint64_t eight_digit_value(uint64_t d)
{
    d = d * 10 + (d >> 8);
    const uint64_t mask = 0x000000ff000000ff;
    return (uint32_t)((((d & mask) * 0x000f424000000064) +
                       (((d >> 16) & mask) * 0x0000271000000001)) >> 32);
}

/* Adds the digits from p on to w, as many as there are, and returns the
 * byte after the last. Modulo 2^64, w * 10^k + (the value of k digits) is
 * k steps of w * 10 + digit, so w is the same whichever way it is read. */
static const char *read_digits(const char *p, const char *end, uint64_t *w)
{
    uint64_t value = *w;
#if EIGHT_DIGITS_AT_ONCE
    static const uint64_t pow10[8] = {1, 10, 100, 1000, 10000, 100000, 1000000, 10000000};
    for (uint64_t v; end - p >= 8;) {
        memcpy(&v, p, sizeof v);
        uint64_t other = not_digits(v);
        uint64_t d = v - 0x3030303030303030;
        if (other == 0) {
            value = value * 100000000 + eight_digit_value(d);
            p += 8;
            continue;
        }
        /* k < 8 digits, then a byte that is not one: shifted to the top
         * bytes, the k digits are led by zeros. */
        int k = __builtin_ctzll(other) / 8;
        if (k > 0) {
            value = value * pow10[k] + eight_digit_value(d << (64 - 8 * k));
            p += k;
        }
        *w = value;
        return p;
    }
#endif
    for (; p < end && is_digit(*p); ++p)
        value = 10 * value + (uint64_t)(*p - '0');
    *w = value;
    return p;
}

/* Reads the value at *cursor into *out and moves the cursor past it. The
 * byte after the value must be a blank, a line end or `end`. Returns 0 to
 * decline. */
static int read_value(const char **cursor, const char *end, const uint64_t *powers, double *out)
{
    const char *p = *cursor;
    int negative = 0;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    /* Every digit goes into w, which wraps; w is exact when at most 19 of
     * them are significant, since leading zeros add nothing to it. */
    uint64_t w = 0;
    const char *mantissa = p;
    p = read_digits(p, end, &w);
    int64_t digits = p - mantissa, fraction = 0;
    if (p < end && *p == '.') {
        const char *point = ++p;
        p = read_digits(p, end, &w);
        fraction = p - point;
        digits += fraction;
    }
    if (digits == 0)
        return 0;
    int64_t exp10 = 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int exp_negative = 0;
        if (++p < end && (*p == '+' || *p == '-'))
            exp_negative = *p++ == '-';
        if (p == end || !is_digit(*p))
            return 0;
        for (; p < end && is_digit(*p); ++p) {
            exp10 = 10 * exp10 + (*p - '0');
            if (exp10 >= 100000)
                return 0;
        }
        if (exp_negative)
            exp10 = -exp10;
    }
    if (p < end && !is_blank(*p) && !is_line_end(*p))
        return 0;
    *cursor = p;

    int64_t significant = digits;
    for (const char *d = mantissa; significant > MAX_DIGITS && (*d == '0' || *d == '.'); ++d)
        significant -= *d == '0';
    double value = 0.0;
    if (significant > MAX_DIGITS || (w != 0 && !eisel_lemire(w, exp10 - fraction, powers, &value)))
        return 0;
    *out = negative ? -value : value;
    return 1;
}

/* Reads the table of text[0 .. length).
 *
 * The first `skip` lines that are neither blank nor comments are passed
 * over unread; every later one is a row of `width` values, stored row after
 * row into `out`, which has room for `capacity` rows. `powers` is the
 * (MAX_Q - MIN_Q + 1, 2) table that `eisel_lemire` reads. Returns the
 * number of rows read, or -1 when the table is declined.
 */
int64_t dam_read_table(const uint64_t *powers, const char *text, int64_t length, int64_t skip,
                       int64_t width, int64_t capacity, double *out)
{
    const char *p = text, *end = text + length;
    int64_t rows = 0;
    while (p < end) {
        while (p < end && is_blank(*p))
            ++p;
        if (p == end)
            break;
        if (is_line_end(*p)) {
            /* The \n of a \r\n ends an empty line, which is skipped. */
            ++p;
            continue;
        }
        if (*p == '#' || skip > 0) {
            skip -= *p != '#';
            for (; p < end && !is_line_end(*p); ++p)
                if (is_foreign(*p))
                    return -1;
            continue;
        }
        if (rows == capacity)
            return -1;
        double *row = out + rows * width;
        for (int64_t count = 0;;) {
            if (count == width || !read_value(&p, end, powers, row + count))
                return -1;
            ++count;
            while (p < end && is_blank(*p))
                ++p;
            if (p == end || is_line_end(*p)) {
                if (count != width)
                    return -1;
                break;
            }
        }
        ++rows;
    }
    return rows;
}


/* --- Writing ------------------------------------------------------------- */

/* The Ryu tables cover 5^-q for q in [0, INVERSE_COUNT) and 5^i for i in
 * [0, POWER_COUNT), two words each, high word first. */
#define INVERSE_COUNT 342
#define POWER_COUNT 326
#define POWER_BITS 125

/* floor(e * log2(5)) + 1 for e in [0, 3528]. */
static int32_t pow5_bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(e * log10(2)) for e in [0, 1650]. */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913) >> 18);
}

/* floor(e * log10(5)) for e in [0, 2620]. */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923) >> 20);
}

static int multiple_of_pow5(uint64_t value, int32_t p)
{
    int32_t count = 0;
    for (; value % 5 == 0; value /= 5)
        ++count;
    return count >= p;
}

static int multiple_of_pow2(uint64_t value, int32_t p)
{
    return (value & (((uint64_t)1 << p) - 1)) == 0;
}

/* (m * mul) >> j for the two-word `mul`, 64 <= j < 192. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    unsigned __int128 high = (unsigned __int128)m * mul[0];
    unsigned __int128 low = (unsigned __int128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest decimal d * 10^e that reads back as the positive finite
 * double of `bits`, nearest the double among the shortest; Ryu's d2d. */
static uint64_t shortest(uint64_t bits, const uint64_t *tables, int32_t *e)
{
    const uint64_t *inverse = tables, *powers = tables + 2 * INVERSE_COUNT;
    uint64_t fraction = bits & (((uint64_t)1 << 52) - 1);
    int32_t biased = (int32_t)(bits >> 52);
    /* The double is m2 * 2^e2; two more bits make room for the halfway
     * points to its neighbours. */
    int32_t e2 = (biased == 0 ? 1 : biased) - 1075 - 2;
    uint64_t m2 = biased == 0 ? fraction : fraction | (uint64_t)1 << 52;
    int accept_bounds = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    /* The lower neighbour is nearer when m2 is a power of two. */
    uint32_t mm_shift = fraction != 0 || biased <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        e10 = q;
        int32_t i = -e2 + q + POWER_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = inverse + 2 * q;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* At most one of mv, mp and mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POWER_BITS);
        const uint64_t *mul = powers + 2 * i;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 * m2 has at least two trailing zero bits. */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* Drop digits while the interval (vm, vp) still holds a shorter number. */
    int32_t removed = 0;
    uint32_t last = 0;
    uint64_t output;
    if (vm_zeros || vr_zeros) {
        for (; vp / 10 > vm / 10; ++removed) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros) {
            for (; vm % 10 == 0; ++removed) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        }
        /* Exactly halfway between two candidates: the even one. */
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;
        output = vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    } else {
        for (; vp / 10 > vm / 10; ++removed) {
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        output = vr + (vr == vm || last >= 5);
    }
    *e = e10 + removed;
    return output;
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The number of decimal digits of 0 < v < 10^17. */
static int decimal_length(uint64_t v)
{
    int length = 1;
    for (uint64_t bound = 10; length < 17 && v >= bound; bound *= 10)
        ++length;
    return length;
}

/* Writes the digits of v > 0 so that the last one is just before `end`. */
static void write_digits(uint64_t v, char *end)
{
    for (; v >= 100; v /= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (v % 100), 2);
    }
    if (v >= 10)
        memcpy(end - 2, DIGIT_PAIRS + 2 * v, 2);
    else
        end[-1] = (char)('0' + v);
}

/* Writes the finite double `value` at `out` as repr() does; returns the
 * number of bytes written. */
static int write_value(double value, const uint64_t *tables, char *out)
{
    uint64_t bits;
    memcpy(&bits, &value, sizeof bits);
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    bits &= ~((uint64_t)1 << 63);
    if (bits == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p - out) + 3;
    }
    int32_t exp10;
    uint64_t digits = shortest(bits, tables, &exp10);
    int count = decimal_length(digits);
    /* value = 0.<digits> * 10^point */
    int point = count + exp10;
    if (point <= -4 || point > 16) {
        /* d[.ddd]e[+-]XX: the digits are written one byte on, and the
         * first is moved in front of the point. */
        write_digits(digits, p + 1 + count);
        p[0] = p[1];
        if (count > 1) {
            p[1] = '.';
            p += count + 1;
        } else {
            ++p;
        }
        int exponent = point - 1;
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        if (exponent < 0)
            exponent = -exponent;
        if (exponent >= 100)
            *p++ = (char)('0' + exponent / 100);
        memcpy(p, DIGIT_PAIRS + 2 * (exponent % 100), 2);
        p += 2;
    } else if (point <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (int i = point; i < 0; ++i)
            *p++ = '0';
        p += count;
        write_digits(digits, p);
    } else if (point < count) {
        /* The digits after the point are written one byte on. */
        write_digits(digits, p + count + 1);
        for (int i = 0; i < point; ++i)
            p[i] = p[i + 1];
        p[point] = '.';
        p += count + 1;
    } else {
        p += count;
        write_digits(digits, p);
        for (int i = count; i < point; ++i)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
    }
    return (int)(p - out);
}

/* Writes the C-contiguous (rows, width) table at `values` to `out`: each row
 * as its values, joined by ' ' and ended by '\n'. `out` has room for 25
 * bytes per value and one per row: the most bytes repr() gives a finite
 * double ("-2.2250738585072014e-308") and a separator. `tables` holds the
 * INVERSE_COUNT and then the POWER_COUNT two-word entries that `shortest`
 * reads. Returns the number of bytes written, or -1, with `out` partly
 * written, when a value is not finite.
 */
int64_t dam_write_table(const uint64_t *tables, const double *values, int64_t rows,
                        int64_t width, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < width; ++c) {
            double value = values[r * width + c];
            if (!isfinite(value))
                return -1;
            if (c > 0)
                *p++ = ' ';
            p += write_value(value, tables, p);
        }
        *p++ = '\n';
    }
    return p - out;
}


/* --- The chain ------------------------------------------------------------ */

#define DIM 3
#define ROW 4 /* doubles per knot: DIM coordinates and an unused lane */

/* Two doubles, read and written in place with a double's alignment. */
typedef double pair __attribute__((vector_size(16), aligned(8), may_alias));
#define AT(p) (*(pair *)(p))

/* Why an input is declined, or DONE. */
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

/* The doubles of workspace `chain` needs for `steps` frames of `width`
 * values resampled to `count`. */
static int64_t chain_work(int64_t steps, int64_t width, int64_t count)
{
    return 2 * steps * width + (5 + 3 * ROW) * steps + count * width;
}

/* The (count - window, joints * 3 * window) windowed direction frames of the
 * (steps, joints, 3) action `frames`, unnormalized, into out. kernel holds
 * the 2 radius + 1 smoothing weights; radius 0 smooths nothing. `work` holds
 * `chain_work` doubles. Returns DONE, or why the first joint that declined
 * did. */
static int64_t chain(const double *frames, int64_t steps, int64_t joints, const double *kernel,
                     int64_t radius, int64_t count, int64_t window, double epsilon, double *work,
                     double *out)
{
    const int64_t width = joints * DIM;
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
    return status;
}

/* --- Normalization --------------------------------------------------------- */

/* The sum of the squares of x[0 .. n), each product rounded on its own, in
 * the order of numpy's pairwise sum (`DOUBLE_pairwise_sum`), which
 * np.add.reduce runs along a contiguous row: below 8 values, one running sum
 * from 0.0; up to 128, eight running sums of every eighth value, added in
 * pairs, then the values past the last multiple of eight; above, the sums of
 * two halves, the first a multiple of eight values long. */
static double square_sum(const double *x, int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; ++i)
            sum += x[i] * x[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; ++j)
            r[j] = x[j] * x[j];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += x[i + j] * x[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            sum += x[i] * x[i];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return square_sum(x, half) + square_sum(x + half, n - half);
}

/* `_normalize_in_place` of the (rows, width) table: each row divided by its
 * norm, or by 1.0 when the norm is below epsilon. Returns 0, with rows
 * written, when some norm is not finite. */
static int normalize(double *table, int64_t rows, int64_t width, double epsilon)
{
    for (int64_t r = 0; r < rows; ++r) {
        double *row = table + r * width;
        double norm = sqrt(square_sum(row, width));
        if (!isfinite(norm))
            return 0;
        if (norm < epsilon)
            norm = 1.0;
        int64_t i = 0;
        for (; i + 2 <= width; i += 2)
            AT(row + i) = AT(row + i) / norm;
        for (; i < width; ++i)
            row[i] /= norm;
    }
    return 1;
}

/* `normalize` on its own, which tests hold to `_normalize_in_place`. */
int64_t dam_normalize(double *table, int64_t rows, int64_t width, double epsilon)
{
    return normalize(table, rows, width, epsilon);
}

/* --- The pass ---------------------------------------------------------------- */

/* One thread's reusable memory. */
struct buffer {
    char *data;
    size_t size;
};

/* Makes `buffer` hold at least `size` bytes, keeping its contents; 0 when it cannot. */
static int reserve(struct buffer *buffer, size_t size)
{
    if (size <= buffer->size)
        return 1;
    if (size < buffer->size + buffer->size / 2)
        size = buffer->size + buffer->size / 2;
    char *data = realloc(buffer->data, size);
    if (data == NULL)
        return 0;
    buffer->data = data;
    buffer->size = size;
    return 1;
}

/* Reads the regular file at `path` whole into `buffer`; its length, or -1. */
static int64_t read_file(const char *path, struct buffer *buffer)
{
    int fd = open(path, O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return -1;
    struct stat st;
    int64_t length = -1;
    /* One byte past the size the file reports, so that its end is seen by
     * one read when the file did not grow. */
    if (fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && reserve(buffer, (size_t)st.st_size + 1)) {
        length = 0;
        for (;;) {
            if ((size_t)length == buffer->size && !reserve(buffer, 2 * buffer->size)) {
                length = -1;
                break;
            }
            ssize_t got = read(fd, buffer->data + length, buffer->size - (size_t)length);
            if (got > 0) {
                length += got;
            } else if (got == 0) {
                break;
            } else if (errno != EINTR) {
                length = -1;
                break;
            }
        }
    }
    close(fd);
    return length;
}

/* The first line of text[0 .. length) that is neither blank nor a comment,
 * as `dam_read_table` finds it, less the blanks around it: [*start, *stop).
 * Returns 0 when there is none. */
static int find_header(const char *text, int64_t length, const char **start, const char **stop)
{
    const char *p = text, *end = text + length;
    while (p < end) {
        while (p < end && is_blank(*p))
            ++p;
        if (p == end)
            break;
        const char *q = p;
        while (q < end && !is_line_end(*q))
            ++q;
        if (q > p && *p != '#') {
            while (is_blank(q[-1]))
                --q;
            *start = p;
            *stop = q;
            return 1;
        }
        p = q == p ? q + 1 : q;
    }
    return 0;
}

/* The value of [p, end), less the blanks around it, when it is 1 to 18
 * ASCII digits; else returns 0. */
static int read_count(const char *p, const char *end, int64_t *value)
{
    while (p < end && is_blank(*p))
        ++p;
    while (end > p && is_blank(end[-1]))
        --end;
    if (p == end || end - p > 18)
        return 0;
    int64_t v = 0;
    for (; p < end; ++p) {
        if (!is_digit(*p))
            return 0;
        v = 10 * v + (*p - '0');
    }
    *value = v;
    return 1;
}

/* num_frames and num_joints of the header line [p, end): its last two of
 * exactly five comma-separated fields. Returns 0 when there are not five or
 * either is not plain digits. */
static int header_counts(const char *p, const char *end, int64_t *frames, int64_t *joints)
{
    const char *comma[4];
    int commas = 0;
    for (const char *q = p; q < end; ++q)
        if (*q == ',') {
            if (commas == 4)
                return 0;
            comma[commas++] = q;
        }
    return commas == 4 && read_count(comma[2] + 1, comma[3], frames)
           && read_count(comma[3] + 1, end, joints);
}

/* One call's arguments, which its threads share. */
struct pass {
    const uint64_t *powers;       /* the reader's table */
    const char *const *paths;     /* per input: a file, or NULL for frames */
    const double *const *frames;  /* per input without a file: (steps, joints, 3) */
    int64_t inputs, joints, tables;
    const int64_t *settings;      /* per table: count, window, radius, kernel rows */
    const double *epsilons;       /* per table */
    const double *const *kernels; /* per table: (rows, 2 rows + 1) weights */
    double *const *outs;          /* per table: input 0's first row */
    char *headers;                /* per input: `slot` bytes */
    int64_t slot;
    int64_t *results;             /* per input: status, steps */
    _Atomic int64_t next;         /* the next input to take */
};

enum { UNREADABLE = SINGULAR + 1, NO_HEADER, NOT_READ, NO_KERNEL, NOT_FINITE_NORM };

/* Preprocesses `steps` frames at `frames` into input i's rows of each table;
 * `scratch` holds the largest `chain_work` of the tables. */
static int64_t windows_of(const struct pass *p, int64_t i, const double *frames, int64_t steps,
                          double *scratch)
{
    const int64_t width = p->joints * DIM;
    for (int64_t t = 0; t < p->tables; ++t) {
        const int64_t *s = p->settings + 4 * t;
        int64_t count = s[0], window = s[1], rows = s[2] < steps - 1 ? s[2] : steps - 1;
        if (rows > s[3])
            return NO_KERNEL;
        const double *kernel = rows > 0 ? p->kernels[t] + (rows - 1) * (2 * s[3] + 1) : NULL;
        double *out = p->outs[t] + i * (count - window) * width * window;
        int64_t status = chain(frames, steps, p->joints, kernel, rows, count, window,
                               p->epsilons[t], scratch, out);
        if (status != DONE)
            return status;
        if (!normalize(out, count - window, width * window, p->epsilons[t]))
            return NOT_FINITE_NORM;
    }
    return DONE;
}

/* Reserves in `buffer`, past its first `used` bytes, room for `extra`
 * doubles and then the largest workspace the chain needs for an input of
 * `steps` frames; returns that room, or NULL. */
static double *room(const struct pass *p, struct buffer *buffer, size_t used, int64_t extra,
                    int64_t steps)
{
    int64_t work = 0;
    for (int64_t t = 0; t < p->tables; ++t) {
        int64_t w = chain_work(steps, p->joints * DIM, p->settings[4 * t]);
        work = w > work ? w : work;
    }
    used = (used + 7) & ~(size_t)7;
    if (!reserve(buffer, used + sizeof(double) * (size_t)(extra + work)))
        return NULL;
    return (double *)(buffer->data + used);
}

/* Input i's windows; returns DONE, or why it declined. */
static int64_t take(const struct pass *p, int64_t i, struct buffer *buffer)
{
    if (p->paths[i] == NULL) {
        int64_t steps = p->results[2 * i + 1];
        double *scratch = room(p, buffer, 0, 0, steps);
        return scratch ? windows_of(p, i, p->frames[i], steps, scratch) : NO_MEMORY;
    }
    int64_t length = read_file(p->paths[i], buffer);
    if (length < 0)
        return UNREADABLE;
    const char *start, *stop;
    int64_t steps, joints;
    if (!find_header(buffer->data, length, &start, &stop) || stop - start >= p->slot
        || !header_counts(start, stop, &steps, &joints))
        return NO_HEADER;
    char *header = p->headers + i * p->slot;
    memcpy(header, start, (size_t)(stop - start));
    header[stop - start] = '\0';
    p->results[2 * i + 1] = steps;
    /* A row takes at least 2 * width - 1 bytes and a line break. */
    const int64_t width = p->joints * DIM;
    if (joints != p->joints || steps < 2 || steps > (length + 1) / (2 * width))
        return NO_HEADER;
    double *frames = room(p, buffer, (size_t)length, steps * width, steps);
    if (frames == NULL)
        return NO_MEMORY;
    if (dam_read_table(p->powers, buffer->data, length, 1, width, steps, frames) != steps)
        return NOT_READ;
    return windows_of(p, i, frames, steps, frames + steps * width);
}

static void *take_inputs(void *pass)
{
    struct pass *p = pass;
    struct buffer buffer = {NULL, 0};
    for (int64_t i; (i = atomic_fetch_add(&p->next, 1)) < p->inputs;)
        p->results[2 * i] = take(p, i, &buffer);
    free(buffer.data);
    return NULL;
}

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

/* The normalized windows of `inputs` inputs, each into its rows of every
 * table: input i owns rows [i w, (i + 1) w), w = count - window, of table
 * t's rows from outs[t] on, each of joints * 3 * window values. Input i is
 * the file paths[i] or, where that is NULL, the (steps, joints, 3) frames
 * frames[i], whose steps (at least 2) results[2 i + 1] holds.
 *
 * Table t's settings[4 t ..] are its count (the resampled frames), window,
 * smoothing radius (0 for none) and kernel rows m: row r - 1 of kernels[t],
 * of 2 m + 1 weights, holds the 2 r + 1 weights of radius r in its first
 * entries. An input of `steps` frames is smoothed with radius min(radius,
 * steps - 1), and declined when that is above m.
 *
 * For a file, its header line, less the blanks around it, is copied to
 * headers[i slot ..], ended by '\0', and its num_frames to results[2 i + 1]
 * once it is read; it must have `joints` joints and as many frame lines
 * after it. results[2 i] is 0 when the input's rows are written, else the
 * reason it was declined, and its rows are then unspecified.
 *
 * The inputs are taken in turn by the caller's thread and, when `threads`
 * is 2 and there are two inputs or more, by one more; which thread takes an
 * input does not change its bytes. The helper thread starts with every
 * signal blocked and is joined before the call returns, so signals reach
 * the caller's thread and a fork never copies it; when it cannot start, the
 * caller's thread takes every input.
 */
void dam_windows(const uint64_t *powers, const char *const *paths, const double *const *frames,
                 int64_t inputs, int64_t joints, int64_t tables, const int64_t *settings,
                 const double *epsilons, const double *const *kernels, double *const *outs,
                 char *headers, int64_t slot, int64_t *results, int64_t threads)
{
    struct pass pass = {powers, paths,   frames,  inputs, joints, tables, settings,
                        epsilons, kernels, outs, headers, slot, results, 0};
    pthread_t thread;
    int helped = 0;
    if (threads > 1 && inputs > 1) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        place_helper(&attr);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        helped = pthread_create(&thread, &attr, take_inputs, &pass) == 0;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        pthread_attr_destroy(&attr);
    }
    take_inputs(&pass);
    if (helped)
        pthread_join(thread, NULL);
}
