/**
 * @file
 * Native trace format I/O: record a workload's stream to a portable
 * text format (`rcache-sim record`), which the streaming reader
 * (workload/streaming_trace.hh) replays anywhere an app name goes as
 * trace:PATH. This file holds the writer and the strict line parser
 * both sides share; readTraceStrict is the materializing reference
 * the streaming reader is tested against.
 *
 * Format: one instruction per line,
 *   <op> <pc-hex> <eff-addr-hex> <latency> <dep1> <dep2> <taken>
 * with op one of I F L S B; taken branches append a hex target;
 * '#' starts a comment line.
 *
 * Parsing is strict: every field must be consumed exactly (no
 * trailing junk after a valid numeric prefix), out-of-range values
 * (latency/deps above 255, hex wider than 64 bits) are rejected
 * instead of silently wrapped, and negative values never parse (the
 * numeric fields are unsigned). Errors carry `file:line:` prefixes so
 * the CLI can report them one-line and exit 2.
 */

#ifndef RCACHE_WORKLOAD_TRACE_IO_HH
#define RCACHE_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace rcache
{

/** Record @p count instructions of @p source into @p os. */
void writeTrace(std::ostream &os, Workload &source,
                std::uint64_t count);

/** Serialize one instruction as a native-format trace line. */
void writeTraceLine(std::ostream &os, const MicroInst &m);

/**
 * Parse one native-format trace line (comments/blank lines are the
 * caller's business). Strict: the whole line must be consumed.
 * @return false with @p why set (no line/file prefix) on a malformed
 *         line
 */
bool parseTraceLine(const std::string &line, MicroInst &m,
                    std::string *why);

/**
 * Parse a trace stream strictly. On a malformed line stops and
 * returns false with @p err set to "<file>:<line>: <why>"; @p file is
 * only used for the diagnostic.
 */
bool readTraceStrict(std::istream &is, const std::string &file,
                     std::vector<MicroInst> &out, std::string *err);

/** Single-character opcode used in the trace format. */
char opClassCode(OpClass op);
/** Inverse of opClassCode; fatal on an unknown code. */
OpClass opClassFromCode(char code);

} // namespace rcache

#endif // RCACHE_WORKLOAD_TRACE_IO_HH
