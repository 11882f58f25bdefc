#include "util/numformat.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iterator>

namespace rcache
{

namespace
{

/** printf's %.*g of @p v at @p precision (at most 24 bytes) into
 *  @p buf; @return the end of the text. */
char *
formatGeneral(char (&buf)[32], double v, int precision)
{
    return std::to_chars(buf, std::end(buf), v, std::chars_format::general,
                         precision)
        .ptr;
}

/**
 * Whether a decimal literal std::from_chars found out of range is too
 * large for a double (rather than too small): whether its value is at
 * least 1, judged by the place of its first nonzero digit and its
 * exponent. Out of range means beyond 1e308 or below 1e-323, so the
 * sign of that order of magnitude is never in doubt.
 */
bool
overflows(const char *first, const char *last)
{
    const auto is_exp = [](char c) { return c == 'e' || c == 'E'; };
    const char *mant = first + (*first == '-');
    const char *mant_end = std::find_if(mant, last, is_exp);
    const char *point = std::find(mant, mant_end, '.');
    const char *lead = std::find_if(
        mant, mant_end, [](char c) { return c >= '1' && c <= '9'; });
    // The mantissa is 0.d... x 10^order: the digits from the first
    // nonzero one up to the point, or minus the zeros leading the
    // fraction.
    long long order = lead < point ? point - lead : point + 1 - lead;
    if (mant_end != last) {
        const char *e = mant_end + 1;
        const bool negative = *e == '-';
        e += *e == '-' || *e == '+';
        long long exp = 0;
        if (std::from_chars(e, last, exp).ec != std::errc{})
            exp = LLONG_MAX / 4; // a longer exponent than any mantissa
        order += negative ? -exp : exp;
    }
    return order > 0;
}

} // namespace

std::string
shortestDouble(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::abs(v) < 1e15)
        return {buf,
                std::to_chars(buf, std::end(buf), static_cast<long long>(v))
                    .ptr};
    if (std::isfinite(v)) {
        for (int prec = 1; prec < 17; ++prec) {
            char *const end = formatGeneral(buf, v, prec);
            double back = 0;
            if (std::from_chars(buf, end, back).ec == std::errc{} &&
                back == v)
                return {buf, end};
        }
    }
    return {buf, formatGeneral(buf, v, 17)};
}

bool
parseDoubleStrict(const std::string &text, double &out)
{
    // The grammar of a classic-locale stream extraction: leading
    // whitespace, then one optional sign, then a decimal literal that
    // must reach the end. std::from_chars takes neither whitespace nor
    // '+', and it also reads inf and nan, which are refused here.
    const char *p = text.data();
    const char *const end = p + text.size();
    while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r')))
        ++p;
    const char *literal = p;
    if (p != end && *p == '+')
        literal = ++p;
    else if (p != end && *p == '-')
        ++p;
    if (p == end || !((*p >= '0' && *p <= '9') || *p == '.'))
        return false;
    double v = 0;
    const auto [ptr, ec] = std::from_chars(literal, end, v);
    if (ptr != end)
        return false;
    if (ec == std::errc::result_out_of_range) {
        // An underflow reads as a zero of the literal's sign, as
        // strtod rounds it; an overflow is refused.
        if (overflows(literal, end))
            return false;
        v = *literal == '-' ? -0.0 : 0.0;
    } else if (ec != std::errc{}) {
        return false;
    }
    out = v;
    return true;
}

bool
parseU64Strict(const std::string &text, unsigned long long &out)
{
    // strtoull skips leading whitespace and accepts a sign (negating
    // the value), so demand a digit up front.
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

void
appendKeyField(std::string &key, std::uint64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    key.append(buf, res.ptr);
    key += ',';
}

void
appendKeyField(std::string &key, double v)
{
    char buf[40];
    const auto res =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::hex);
    key.append(buf, res.ptr);
    key += ',';
}

void
appendKeyField(std::string &key, std::string_view v)
{
    appendKeyField(key, std::uint64_t{v.size()});
    key += v;
    key += ',';
}

} // namespace rcache
