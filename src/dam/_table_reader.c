/* Number tables read straight from file text and written as Python writes
 * them; compiled on first use by dam._native.
 *
 * Plain C with no Python headers; `dam.dataset` calls it through ctypes.
 *
 * `dam_read_table` stores for each value the bytes Python's float() gives
 * the token. Whatever it cannot read that way it declines, and the caller
 * reads the whole table with the Python reader instead, which also words
 * every error. So the reader is strict:
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
 * `dam_write_table` writes each value with the bytes of Python's
 * repr(float): the shortest digits that read back as the value, the one
 * nearest the value when several are as short (ties to an even last
 * digit); fixed notation for 1e-4 <= |x| < 1e16, with ".0" after an
 * integral value; otherwise d[.ddd]e+XX or e-XX, with at least two exponent
 * digits; "-0.0" for negative zero. The digits come from Ryu (Adams, "Ryu:
 * fast float-to-string conversion", PLDI 2018), which needs no fallback;
 * the layout is the one CPython's float_repr_style 'short' gives.
 */

#include <math.h>
#include <stdint.h>
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
