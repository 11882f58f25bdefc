#include "util/numformat.hh"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
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
        // No %.*g shorter than the shortest round-trip form reads
        // back, so the search starts at that form's digit count. Its
        // scientific spelling counts significant digits only; the
        // plain one would count every integer digit of a value in
        // about [1e15, 1e22). On binade boundaries such as 2^-1017
        // the %.*g text at that count can still read back wrong, so
        // the search goes on from there.
        const char *const sci = buf;
        const char *const sci_end =
            std::to_chars(buf, std::end(buf), v,
                          std::chars_format::scientific)
                .ptr;
        const int digits = static_cast<int>(std::count_if(
            sci, std::find(sci, sci_end, 'e'),
            [](char c) { return c >= '0' && c <= '9'; }));
        for (int prec = digits; prec < 17; ++prec) {
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
parseDoubleStrict(std::string_view text, double &out)
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
parseU64Strict(std::string_view text, unsigned long long &out)
{
    // from_chars takes no whitespace and no sign for an unsigned
    // type, but reads a prefix: the digits must reach the end.
    unsigned long long v = 0;
    const char *const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end)
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
