#include "workload/trace_io.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <string_view>

#include "util/logging.hh"

namespace rcache
{

char
opClassCode(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
        return 'I';
      case OpClass::FpAlu:
        return 'F';
      case OpClass::Load:
        return 'L';
      case OpClass::Store:
        return 'S';
      case OpClass::Branch:
        return 'B';
    }
    rc_panic("bad op class");
}

OpClass
opClassFromCode(char code)
{
    switch (code) {
      case 'I':
        return OpClass::IntAlu;
      case 'F':
        return OpClass::FpAlu;
      case 'L':
        return OpClass::Load;
      case 'S':
        return OpClass::Store;
      case 'B':
        return OpClass::Branch;
      default:
        rc_fatal(std::string("bad opcode in trace: '") + code + "'");
    }
}

void
writeTraceLine(std::ostream &os, const MicroInst &m)
{
    os << opClassCode(m.op) << ' ' << std::hex << m.pc << ' '
       << m.effAddr << std::dec << ' '
       << static_cast<unsigned>(m.latency) << ' '
       << static_cast<unsigned>(m.dep1) << ' '
       << static_cast<unsigned>(m.dep2) << ' ' << (m.taken ? 1 : 0);
    if (m.op == OpClass::Branch && m.taken)
        os << ' ' << std::hex << m.target << std::dec;
    os << '\n';
}

void
writeTrace(std::ostream &os, Workload &source, std::uint64_t count)
{
    os << "# rcache trace v1: op pc eff latency dep1 dep2 taken"
       << " [target]\n";
    for (std::uint64_t i = 0; i < count; ++i) {
        const MicroInst m = source.next();
        writeTraceLine(os, m);
    }
}

namespace
{

/** Split @p line into whitespace-separated fields (no allocation). */
std::size_t
splitFields(std::string_view line, std::string_view *fields,
            std::size_t max_fields)
{
    std::size_t n = 0;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
        if (i >= line.size())
            break;
        const std::size_t begin = i;
        while (i < line.size() && line[i] != ' ' &&
               line[i] != '\t' && line[i] != '\r')
            ++i;
        if (n == max_fields)
            return max_fields + 1; // too many fields
        fields[n++] = line.substr(begin, i - begin);
    }
    return n;
}

/**
 * Strict unsigned parse of a whole field. from_chars rejects signs
 * and junk prefixes; consuming the full field rejects trailing junk;
 * std::errc::result_out_of_range rejects silent wraps.
 */
bool
parseFieldU64(std::string_view f, int base, std::uint64_t &out,
              const char *what, std::string *why)
{
    const auto [end, ec] =
        std::from_chars(f.data(), f.data() + f.size(), out, base);
    if (ec == std::errc::result_out_of_range) {
        if (why)
            *why = std::string(what) + " out of range: '" +
                   std::string(f) + "'";
        return false;
    }
    if (ec != std::errc() || end != f.data() + f.size()) {
        if (why)
            *why = std::string("bad ") + what + ": '" +
                   std::string(f) + "'";
        return false;
    }
    return true;
}

/** Strict decimal parse into a uint8-ranged field. */
bool
parseFieldU8(std::string_view f, std::uint8_t &out, const char *what,
             std::string *why)
{
    std::uint64_t v = 0;
    if (!parseFieldU64(f, 10, v, what, why))
        return false;
    if (v > 255) {
        if (why)
            *why = std::string(what) + " out of range (max 255): '" +
                   std::string(f) + "'";
        return false;
    }
    out = static_cast<std::uint8_t>(v);
    return true;
}

} // namespace

bool
parseTraceLine(const std::string &line, MicroInst &m,
               std::string *why)
{
    constexpr std::size_t max_fields = 8;
    std::string_view fields[max_fields];
    const std::size_t n = splitFields(line, fields, max_fields);
    if (n > max_fields) {
        if (why)
            *why = "too many fields";
        return false;
    }
    if (n < 7) {
        if (why)
            *why = "expected at least 7 fields "
                   "(op pc eff latency dep1 dep2 taken), got " +
                   std::to_string(n);
        return false;
    }

    if (fields[0].size() != 1) {
        if (why)
            *why = "bad opcode: '" + std::string(fields[0]) + "'";
        return false;
    }
    switch (fields[0][0]) {
      case 'I':
        m.op = OpClass::IntAlu;
        break;
      case 'F':
        m.op = OpClass::FpAlu;
        break;
      case 'L':
        m.op = OpClass::Load;
        break;
      case 'S':
        m.op = OpClass::Store;
        break;
      case 'B':
        m.op = OpClass::Branch;
        break;
      default:
        if (why)
            *why = "bad opcode: '" + std::string(fields[0]) + "'";
        return false;
    }

    if (!parseFieldU64(fields[1], 16, m.pc, "pc", why) ||
        !parseFieldU64(fields[2], 16, m.effAddr, "eff-addr", why) ||
        !parseFieldU8(fields[3], m.latency, "latency", why) ||
        !parseFieldU8(fields[4], m.dep1, "dep1", why) ||
        !parseFieldU8(fields[5], m.dep2, "dep2", why)) {
        return false;
    }
    if (fields[6] != "0" && fields[6] != "1") {
        if (why)
            *why = "bad taken flag (want 0 or 1): '" +
                   std::string(fields[6]) + "'";
        return false;
    }
    m.taken = fields[6] == "1";

    const bool wants_target = m.op == OpClass::Branch && m.taken;
    if (wants_target) {
        if (n != 8) {
            if (why)
                *why = "taken branch is missing its target field";
            return false;
        }
        if (!parseFieldU64(fields[7], 16, m.target, "target", why))
            return false;
    } else {
        m.target = 0;
        if (n != 7) {
            if (why)
                *why = "trailing junk after field 7: '" +
                       std::string(fields[7]) + "'";
            return false;
        }
    }
    return true;
}

bool
readTraceStrict(std::istream &is, const std::string &file,
                std::vector<MicroInst> &out, std::string *err)
{
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        MicroInst m;
        std::string why;
        if (!parseTraceLine(line, m, &why)) {
            if (err)
                *err = file + ":" + std::to_string(lineno) + ": " +
                       why;
            return false;
        }
        out.push_back(m);
    }
    return true;
}

} // namespace rcache
