#include "util/json.hh"

#include <cstddef>

namespace rcache
{

namespace
{

bool failParse(std::string *err, const std::string &message)
{
    if (err)
        *err = message;
    return false;
}

/** Skip ASCII whitespace from @p pos. */
void skipSpace(const std::string &s, std::size_t &pos)
{
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\r'))
        ++pos;
}

/** Parse a JSON string literal at @p pos (expects the opening '"'). */
bool parseString(const std::string &s, std::size_t &pos,
                 std::string &out, std::string *err)
{
    if (pos >= s.size() || s[pos] != '"')
        return failParse(err, "expected '\"'");
    ++pos;
    out.clear();
    while (pos < s.size() && s[pos] != '"') {
        char c = s[pos++];
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        if (pos >= s.size())
            return failParse(err, "dangling escape");
        const char esc = s[pos++];
        switch (esc) {
        case '"':
        case '\\':
        case '/':
            out.push_back(esc);
            break;
        case 'n':
            out.push_back('\n');
            break;
        case 't':
            out.push_back('\t');
            break;
        case 'r':
            out.push_back('\r');
            break;
        case 'u': {
            // writeJsonString only emits \u00XX control escapes.
            if (pos + 4 > s.size())
                return failParse(err, "short \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
                const char h = s[pos++];
                v <<= 4;
                if (h >= '0' && h <= '9')
                    v |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    v |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return failParse(err, "bad \\u escape");
            }
            if (v > 0x7f)
                return failParse(err, "non-ASCII \\u escape");
            out.push_back(static_cast<char>(v));
            break;
        }
        default:
            return failParse(err, "unknown escape");
        }
    }
    if (pos >= s.size())
        return failParse(err, "unterminated string");
    ++pos; // closing quote
    return true;
}

/** Parse a number / true / false / null literal as raw text. */
bool parseLiteral(const std::string &s, std::size_t &pos,
                  std::string &out, std::string *err)
{
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
           s[pos] != ' ' && s[pos] != '\t')
        ++pos;
    if (pos == start)
        return failParse(err, "expected a value");
    out = s.substr(start, pos - start);
    return true;
}

} // namespace

void writeJsonString(std::ostream &os, const std::string &s)
{
    os << jsonString(s);
}

std::string jsonString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

bool parseJsonFlatObject(const std::string &line,
                         std::map<std::string, std::string> &out,
                         std::string *err)
{
    out.clear();
    std::size_t pos = 0;
    skipSpace(line, pos);
    if (pos >= line.size() || line[pos] != '{')
        return failParse(err, "expected '{'");
    ++pos;
    skipSpace(line, pos);
    if (pos < line.size() && line[pos] == '}') {
        ++pos;
    } else {
        for (;;) {
            skipSpace(line, pos);
            std::string key;
            if (!parseString(line, pos, key, err))
                return false;
            skipSpace(line, pos);
            if (pos >= line.size() || line[pos] != ':')
                return failParse(err, "expected ':'");
            ++pos;
            skipSpace(line, pos);
            std::string value;
            if (pos < line.size() && line[pos] == '"') {
                if (!parseString(line, pos, value, err))
                    return false;
            } else if (pos < line.size() &&
                       (line[pos] == '{' || line[pos] == '[')) {
                return failParse(err, "nested values not supported");
            } else if (!parseLiteral(line, pos, value, err)) {
                return false;
            }
            if (!out.emplace(key, std::move(value)).second)
                return failParse(err, "duplicate key '" + key + "'");
            skipSpace(line, pos);
            if (pos < line.size() && line[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < line.size() && line[pos] == '}') {
                ++pos;
                break;
            }
            return failParse(err, "expected ',' or '}'");
        }
    }
    skipSpace(line, pos);
    if (pos != line.size())
        return failParse(err, "trailing garbage after object");
    return true;
}

} // namespace rcache
