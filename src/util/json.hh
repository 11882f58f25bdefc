/**
 * @file
 * The one JSON string codec behind every flat JSON artifact the
 * simulator writes and reads back: telemetry timelines and resize
 * events, the tuner's decision log, `sweep --format json`, and Chrome
 * trace spans. Writers quote string values with writeJsonString;
 * readers parse a line with parseJsonFlatObject, which undoes exactly
 * those escapes. So any label — a trace path with a quote in it, a
 * scenario name with a tab — survives the round trip.
 *
 * No third-party JSON dependency: the artifacts are one flat object
 * per line (scalar values only), parsed strictly.
 */

#ifndef RCACHE_UTIL_JSON_HH
#define RCACHE_UTIL_JSON_HH

#include <map>
#include <ostream>
#include <string>

namespace rcache
{

/**
 * Write @p s as a quoted JSON string: '"' and '\' get a backslash,
 * newline and tab their short escapes, every other control byte a
 * \u00XX escape; all other bytes (UTF-8 included) pass through.
 */
void writeJsonString(std::ostream &os, const std::string &s);

/** The quoted text writeJsonString() writes, as a string. */
std::string jsonString(const std::string &s);

/**
 * Strict parse of one flat JSON object line ({"k":v,...}, scalar
 * values only, each key at most once). String values land unescaped
 * in @p out; numbers and booleans land as their literal text.
 * @return false (with @p err set) on malformed input
 */
bool parseJsonFlatObject(const std::string &line,
                         std::map<std::string, std::string> &out,
                         std::string *err = nullptr);

} // namespace rcache

#endif // RCACHE_UTIL_JSON_HH
