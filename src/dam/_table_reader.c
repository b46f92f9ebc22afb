/* Number tables read straight from file text, compiled on first use by
 * dam._native.
 *
 * Plain C with no Python headers; `dam.dataset._read_table` calls it through
 * ctypes. Every value it stores has the bytes Python's float() gives the
 * token. Whatever it cannot read that way it declines, and the caller reads
 * the whole table with the Python reader instead, which also words every
 * error. So the reader is strict:
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
 * A value of at most 19 significant digits is converted by the Eisel-Lemire
 * algorithm (Lemire, "Number parsing at a gigabyte per second", SPE 2021;
 * with the table below it needs no fallback, Mushtak and Lemire, "Fast
 * number parsing without fallback", SPE 2022). The rest, and the few values
 * Eisel-Lemire leaves near the subnormal range, go to strtod, which must
 * stop at the token's end with errno 0 and a finite result: a locale whose
 * decimal point is not '.' makes it stop early, and the table is declined.
 * An exponent of 10^5 or more also declines, so the exponent is read whole
 * and cannot overflow.
 */

#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* Reads the value at *cursor into *out and moves the cursor past it. The
 * byte after the value must be a blank, a line end or `end`, which the
 * caller guarantees is followed by a NUL for strtod. Returns 0 to decline. */
static int read_value(const char **cursor, const char *end, const uint64_t *powers, double *out)
{
    const char *start = *cursor, *p = start;
    int negative = 0;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    /* Every digit goes into w, which wraps; w is exact when at most 19 of
     * them are significant, since leading zeros add nothing to it. */
    uint64_t w = 0;
    const char *mantissa = p;
    for (; p < end && is_digit(*p); ++p)
        w = 10 * w + (uint64_t)(*p - '0');
    int64_t digits = p - mantissa, fraction = 0;
    if (p < end && *p == '.') {
        const char *point = ++p;
        for (; p < end && is_digit(*p); ++p)
            w = 10 * w + (uint64_t)(*p - '0');
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
    double value;
    int64_t q = exp10 - fraction;
    if (significant <= MAX_DIGITS) {
        if (w == 0) {
            *out = negative ? -0.0 : 0.0;
            return 1;
        }
        if (eisel_lemire(w, q, powers, &value)) {
            *out = negative ? -value : value;
            return 1;
        }
    }
    char *stop;
    errno = 0;
    value = strtod(start, &stop);
    if (stop != p || errno != 0 || !isfinite(value) || fabs(value) < DBL_MIN)
        return 0;
    *out = value;
    return 1;
}

/* Reads the table of text[0 .. length), which must be followed by a NUL.
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
