/**
 * @file
 * Deterministic, locale-independent number formatting shared by the
 * report writers and the scenario serializer. Equal values always
 * produce identical bytes, which is what makes sweep CSVs and
 * canonical scenario prints byte-stable across machines and locales.
 */

#ifndef RCACHE_UTIL_NUMFORMAT_HH
#define RCACHE_UTIL_NUMFORMAT_HH

#include <string>

namespace rcache
{

/**
 * Shortest decimal form that round-trips the double: integral values
 * print as plain integers ("50", not "5e+01"), everything else at the
 * smallest precision that parses back bit-identically. Uses only
 * digits, '.', '-', 'e' regardless of the global locale.
 */
std::string shortestDouble(double v);

/**
 * Strict parse of shortestDouble() output (or any plain decimal /
 * scientific literal): the whole string must be consumed.
 * @return false on garbage, overflow, or an empty string
 */
bool parseDoubleStrict(const std::string &text, double &out);

/** Strict non-negative decimal integer parse: the whole string must
 *  be digits (no sign, no whitespace) and fit in 64 bits. */
bool parseU64Strict(const std::string &text, unsigned long long &out);

} // namespace rcache

#endif // RCACHE_UTIL_NUMFORMAT_HH
