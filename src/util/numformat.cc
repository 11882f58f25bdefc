#include "util/numformat.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <locale>
#include <sstream>

namespace rcache
{

std::string
shortestDouble(double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::ostringstream ss;
        ss.imbue(std::locale::classic());
        ss << static_cast<long long>(v);
        return ss.str();
    }
    std::ostringstream ss;
    ss.imbue(std::locale::classic());
    ss << std::setprecision(17) << v;
    std::string wide = ss.str();
    for (int prec = 1; prec < 17; ++prec) {
        std::ostringstream probe;
        probe.imbue(std::locale::classic());
        probe << std::setprecision(prec) << v;
        std::istringstream back(probe.str());
        back.imbue(std::locale::classic());
        double parsed = 0;
        back >> parsed;
        if (parsed == v)
            return probe.str();
    }
    return wide;
}

bool
parseDoubleStrict(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    // strtod is locale-sensitive for the decimal point; parse through
    // a classic-locale stream instead so "1.5" means 1.5 everywhere.
    std::istringstream ss(text);
    ss.imbue(std::locale::classic());
    double v = 0;
    ss >> v;
    if (ss.fail() || !ss.eof())
        return false;
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
