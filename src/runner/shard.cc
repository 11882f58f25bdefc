#include "runner/shard.hh"

#include "util/numformat.hh"

namespace rcache
{

std::pair<std::size_t, std::size_t>
ShardSpec::range(std::size_t n) const
{
    // index < count, so (index + 1) * n <= count * n < 2^128.
    const auto bound = [&](std::size_t i) {
        const unsigned __int128 product =
            static_cast<unsigned __int128>(i) * n;
        return static_cast<std::size_t>(product / count +
                                        (product % count != 0));
    };
    return {bound(index), bound(index + 1)};
}

std::vector<std::size_t>
ShardSpec::take(const std::vector<std::size_t> &cells) const
{
    const auto [first, last] = range(cells.size());
    return {cells.begin() + first, cells.begin() + last};
}

std::optional<ShardSpec>
ShardSpec::parse(const std::string &text, std::string *err)
{
    const auto failWith = [&](const std::string &why) {
        if (err)
            *err = "shard wants i/N with 0 <= i < N, got '" + text +
                   "'" + (why.empty() ? "" : " (" + why + ")");
        return std::nullopt;
    };

    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return failWith("");
    unsigned long long i = 0, n = 0;
    if (!parseU64Strict(text.substr(0, slash), i) ||
        !parseU64Strict(text.substr(slash + 1), n))
        return failWith("");
    if (n == 0)
        return failWith("N must be >= 1");
    if (i >= n)
        return failWith("index out of range");
    ShardSpec spec;
    spec.index = static_cast<std::size_t>(i);
    spec.count = static_cast<std::size_t>(n);
    return spec;
}

} // namespace rcache
