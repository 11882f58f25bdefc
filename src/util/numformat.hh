/**
 * @file
 * Deterministic, locale-independent number formatting shared by the
 * report writers and the scenario serializer. Equal values always
 * produce identical bytes, which is what makes sweep CSVs and
 * canonical scenario prints byte-stable across machines and locales.
 */

#ifndef RCACHE_UTIL_NUMFORMAT_HH
#define RCACHE_UTIL_NUMFORMAT_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace rcache
{

/**
 * Shortest decimal form that round-trips the double: an integral
 * value below 1e15 in magnitude prints as a plain integer ("50", not
 * "5e+01"; -0 as "0"), anything else as printf's %.*g at the smallest
 * precision 1..16 that reads back bit-identically, else at 17. The
 * search starts at the significant-digit count of the shortest
 * round-trip form (std::to_chars in scientific form), since no
 * shorter precision can read back; that is one precision or two per
 * value instead of up to 17. Uses only digits, '.', '-', '+', 'e'
 * (and "inf"/"nan") whatever the global locale, and no stream.
 * +-DBL_MAX prints in 17 digits: its one-digit form, 2e+308, reads
 * back as infinity.
 */
std::string shortestDouble(double v);

/**
 * Strict parse of shortestDouble() output (or any plain decimal /
 * scientific literal) with a classic-locale stream's grammar: leading
 * whitespace and one leading '+' are accepted, and an underflow reads
 * as 0; the literal must reach the end of @p text.
 * @return false (leaving @p out alone) on an empty string, trailing
 *         bytes, overflow, inf, nan or hex
 */
bool parseDoubleStrict(std::string_view text, double &out);

/** Strict non-negative decimal integer parse: the whole string must
 *  be digits (no sign, no whitespace) and fit in 64 bits. */
bool parseU64Strict(std::string_view text, unsigned long long &out);

/**
 * @name Identity keys
 * Append one field and a ',' to @p key: integers in decimal, doubles
 * in shortest hexadecimal (exact to the bit), strings length-prefixed
 * (so no two field lists run together into one key). Stream-free and
 * cheap, for the in-memory keys the job memo and the lane groups
 * compare; never for output.
 */
/// @{
void appendKeyField(std::string &key, std::uint64_t v);
void appendKeyField(std::string &key, double v);
void appendKeyField(std::string &key, std::string_view v);

template <std::integral T>
void
appendKeyField(std::string &key, T v)
{
    appendKeyField(key, static_cast<std::uint64_t>(v));
}
/// @}

} // namespace rcache

#endif // RCACHE_UTIL_NUMFORMAT_HH
