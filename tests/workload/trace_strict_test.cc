/**
 * @file
 * Malformed-line corpus for the strict native trace parser: every
 * class of garbage the old lenient istringstream parser accepted —
 * trailing junk after valid numeric prefixes, out-of-range values
 * silently wrapped into uint8 casts, negative latencies — must now be
 * rejected with a one-line explanation, and errors surfaced through
 * readTraceStrict carry a file:line prefix the CLI reports verbatim.
 * The one-pass parser the streaming reader uses (parseTraceLine) must
 * agree with the strict one on every line, mutated ones included.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/random.hh"
#include "workload/profiles.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace rcache
{

namespace
{

struct BadLine
{
    const char *line;
    /** Substring the diagnostic must contain. */
    const char *expect;
};

/** The lines of @p in, without their newlines. */
std::vector<std::string>
linesOf(std::istream &in)
{
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

/** @p line with one seeded mutation of kind @p kind (mod 10). */
std::string
mutate(std::string line, unsigned kind, Rng &rng)
{
    // Field boundaries: fields[k] = {begin, end} of field k.
    std::vector<std::pair<std::size_t, std::size_t>> fields;
    for (std::size_t i = 0; i < line.size();) {
        const std::size_t b = line.find_first_not_of(' ', i);
        if (b == std::string::npos)
            break;
        const std::size_t e = std::min(line.find(' ', b), line.size());
        fields.emplace_back(b, e);
        i = e;
    }
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.nextBelow(n));
    };
    const auto hexDigits = [&](std::size_t n) {
        std::string d;
        for (std::size_t i = 0; i < n; ++i)
            d += "0123456789abcdef"[pick(16)];
        return d;
    };
    switch (kind % 10) {
      case 0: // a tab for a space
        if (const std::size_t sp = line.find(' ', pick(line.size()));
            sp != std::string::npos)
            line[sp] = '\t';
        break;
      case 1: // upper-case hex
        for (char &c : line)
            if (c >= 'a' && c <= 'f')
                c = static_cast<char>(c - 'a' + 'A');
        break;
      case 2: // leading zeros, up to 17-digit fields and beyond
        if (fields.size() > 1)
            line.insert(fields[1 + pick(fields.size() - 1)].first,
                        std::string(1 + pick(20), '0'));
        break;
      case 3: { // a 17-digit hex field, in range or not
        const std::size_t f = std::vector<std::size_t>{1, 2, 7}[pick(3)];
        if (f < fields.size())
            line.replace(fields[f].first,
                         fields[f].second - fields[f].first,
                         (pick(2) ? "0" : "1") + hexDigits(16));
        break;
      }
      case 4: // the last field dropped: a missing target
        if (fields.size() > 1)
            line.erase(fields.back().first - 1);
        break;
      case 5: // an extra target
        line += " " + hexDigits(1 + pick(16));
        break;
      case 6: { // padding: doubled, leading or trailing space, or \r
        const char *pads[] = {" ", "\r", "\t"};
        const std::size_t at =
            pick(2) ? 0 : pick(2) ? line.size() : line.find(' ');
        line.insert(std::min(at, line.size()), pads[pick(3)]);
        break;
      }
      case 7: { // one byte replaced
        const char alphabet[] = " \t0123456789abcdefABCDEFxILSBF-+#";
        if (!line.empty())
            line[pick(line.size())] = alphabet[pick(sizeof(alphabet) - 1)];
        break;
      }
      case 8: // truncated
        line.resize(pick(line.size() + 1));
        break;
      case 9: // a decimal field of up to 3 digits, maybe too big
        if (fields.size() > 5) {
            const auto [b, e] = fields[3 + pick(3)];
            line.replace(b, e - b, std::to_string(pick(1000)));
        }
        break;
    }
    return line;
}

} // namespace

TEST(TraceStrictTest, MalformedLineCorpusRejected)
{
    const BadLine corpus[] = {
        // Wrong shape.
        {"", "expected at least 7 fields"},
        {"L", "expected at least 7 fields"},
        {"L 400000 10000 1 0 0", "expected at least 7 fields"},
        {"L 400000 10000 1 0 0 0 0 0", "too many fields"},
        // Bad opcodes (single char enforced, unknown letters too).
        {"X 400000 10000 1 0 0 0", "bad opcode"},
        {"LL 400000 10000 1 0 0 0", "bad opcode"},
        {"l 400000 10000 1 0 0 0", "bad opcode"},
        // Trailing junk after a valid numeric prefix: the old parser
        // stopped at the junk and accepted the line.
        {"L 400000zz 10000 1 0 0 0", "bad pc"},
        {"L 400000 10000qq 1 0 0 0", "bad eff-addr"},
        {"L 400000 10000 1x 0 0 0", "bad latency"},
        {"L 400000 10000 1 0x 0 0", "bad dep1"},
        {"L 400000 10000 1 0 0x 0", "bad dep2"},
        // Out of range: 300 used to wrap to 44 in the uint8 cast, and
        // 17-hex-digit addresses wrapped modulo 2^64.
        {"L 400000 10000 300 0 0 0", "latency out of range"},
        {"L 400000 10000 1 256 0 0", "dep1 out of range"},
        {"L 400000 10000 1 0 999 0", "dep2 out of range"},
        {"L 10000000000000000 10000 1 0 0 0", "pc out of range"},
        {"L 400000 fffffffffffffffff 1 0 0 0",
         "eff-addr out of range"},
        // Negative values: istringstream >> unsigned wrapped these.
        {"L 400000 10000 -1 0 0 0", "bad latency"},
        {"L 400000 10000 1 -2 0 0", "bad dep1"},
        // Taken flag must be exactly 0 or 1.
        {"B 400000 0 1 0 0 2 400040", "bad taken flag"},
        {"B 400000 0 1 0 0 yes", "bad taken flag"},
        // Branch target rules.
        {"B 400000 0 1 0 0 1", "missing its target"},
        {"B 400000 0 1 0 0 1 40zz40", "bad target"},
        {"L 400000 10000 1 0 0 0 400040", "trailing junk"},
        // Hex fields reject 0x prefixes and decimal-only junk alike.
        {"L 0x400000 10000 1 0 0 0", "bad pc"},
        {"L not-a-number 10000 1 0 0 0", "bad pc"},
    };

    for (const BadLine &c : corpus) {
        MicroInst m;
        std::string why;
        EXPECT_FALSE(parseTraceLine(c.line, m, &why))
            << "accepted: " << c.line;
        EXPECT_NE(why.find(c.expect), std::string::npos)
            << "line '" << c.line << "' diagnostic '" << why
            << "' lacks '" << c.expect << "'";
    }
}

TEST(TraceStrictTest, GoodLinesStillParse)
{
    MicroInst m;
    std::string why;

    ASSERT_TRUE(parseTraceLine("L 400000 dead0 4 1 2 0", m, &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Load);
    EXPECT_EQ(m.pc, 0x400000u);
    EXPECT_EQ(m.effAddr, 0xdead0u);
    EXPECT_EQ(m.latency, 4);
    EXPECT_EQ(m.dep1, 1);
    EXPECT_EQ(m.dep2, 2);
    EXPECT_FALSE(m.taken);
    EXPECT_EQ(m.target, 0u);

    ASSERT_TRUE(parseTraceLine("B 400000 0 1 0 0 1 400040", m, &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Branch);
    EXPECT_TRUE(m.taken);
    EXPECT_EQ(m.target, 0x400040u);

    // Boundary values are in range, not junk.
    ASSERT_TRUE(
        parseTraceLine("I ffffffffffffffff 0 255 255 255 0", m, &why))
        << why;
    EXPECT_EQ(m.pc, ~std::uint64_t{0});
    EXPECT_EQ(m.latency, 255);

    // Extra whitespace between fields is fine.
    ASSERT_TRUE(parseTraceLine("  S  400000\t10000  1 0 0 0 ", m,
                               &why))
        << why;
    EXPECT_EQ(m.op, OpClass::Store);
}

TEST(TraceStrictTest, StrictReaderReportsFileAndLine)
{
    std::stringstream buf;
    buf << "# header\n"
        << "L 400000 10000 1 0 0 0\n"
        << "L 400000 10000 300 0 0 0\n";
    std::vector<MicroInst> out;
    std::string err;
    EXPECT_FALSE(readTraceStrict(buf, "demo.txt", out, &err));
    EXPECT_NE(err.find("demo.txt:3: "), std::string::npos) << err;
    EXPECT_NE(err.find("latency out of range"), std::string::npos)
        << err;
}

TEST(TraceStrictTest, StrictReaderAcceptsCleanStream)
{
    std::stringstream buf;
    buf << "# rcache trace v1\n"
        << "\n"
        << "I 400000 0 1 0 0 0\n"
        << "B 400004 0 1 0 0 1 400000\n";
    std::vector<MicroInst> out;
    std::string err;
    ASSERT_TRUE(readTraceStrict(buf, "demo.txt", out, &err)) << err;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].target, 0x400000u);
}

TEST(TraceStrictTest, OnePassParserAgreesWithStrictParser)
{
    // Canonical lines: the checked-in fixtures and a recording of gcc
    // (taken branches with targets, stores, multi-digit latencies).
    std::vector<std::string> lines;
    for (const char *name : {"mini.trace", "skewed_scan.trace"}) {
        std::ifstream in(std::string(RCACHE_TEST_DATA_DIR) + "/" + name);
        ASSERT_TRUE(in) << name;
        for (const std::string &l : linesOf(in))
            if (!l.empty() && l[0] != '#')
                lines.push_back(l);
    }
    SyntheticWorkload gcc(profileByName("gcc"));
    std::stringstream recorded;
    writeTrace(recorded, gcc, 3000);
    for (const std::string &l : linesOf(recorded))
        if (l[0] != '#')
            lines.push_back(l);

    const auto agree = [](const std::string &line) {
        MicroInst fast, strict;
        fast.latency = 7; // stale values the parsers must overwrite
        strict.latency = 9;
        std::string fast_why, strict_why;
        const bool ok = parseTraceLine(line, fast, &fast_why);
        EXPECT_EQ(ok, parseTraceLineStrict(line, strict, &strict_why))
            << "'" << line << "'";
        EXPECT_EQ(fast_why, strict_why) << "'" << line << "'";
        if (ok)
            EXPECT_EQ(fast, strict) << "'" << line << "'";
        return ok;
    };
    Rng rng(20);
    std::size_t accepted = 0, mutants = 0, mutants_accepted = 0;
    for (const std::string &line : lines) {
        accepted += agree(line);
        for (unsigned kind = 0; kind < 10; ++kind) {
            const std::string m = mutate(line, kind, rng);
            ++mutants;
            mutants_accepted += agree(m);
        }
    }
    EXPECT_EQ(accepted, lines.size());
    // The mutations exercise both verdicts.
    EXPECT_GT(mutants_accepted, mutants / 10);
    EXPECT_LT(mutants_accepted, mutants * 9 / 10);
}

} // namespace rcache
