/**
 * @file
 * The one partition rule of a sweep's cells: "--shard i/N", the units
 * of a claim sweep and those of a claim tune round (unit u of N is
 * shard u/N) all deal an ascending cell list by it.
 *
 * Shard i of N takes the contiguous range [ceil(i*n/N),
 * ceil((i+1)*n/N)) of n cells: the ranges are disjoint, ascending and
 * cover every cell, their sizes differ by at most one, and a shard
 * past the last cell owns none. Cells are app-major, so a shard
 * streams each of its few apps once, and since every cell's result is
 * a pure function of its spec, `sweep --shard u/N` writes the bytes
 * claim unit shard_u.csv commits.
 */

#ifndef RCACHE_RUNNER_SHARD_HH
#define RCACHE_RUNNER_SHARD_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rcache
{

/** One shard of a range-partitioned cell list. */
struct ShardSpec
{
    /** This shard's index, in [0, count). */
    std::size_t index = 0;
    /** Total number of shards (>= 1). 1 means unsharded. */
    std::size_t count = 1;

    /** The positions [first, last) this shard takes of @p n cells,
     *  computed in 128 bits, so every i/N that parses is safe. */
    std::pair<std::size_t, std::size_t> range(std::size_t n) const;

    /** The cells this shard takes of the ascending @p cells. */
    std::vector<std::size_t> take(const std::vector<std::size_t> &cells) const;

    bool sharded() const { return count > 1; }

    /** Canonical "i/N" form. */
    std::string str() const
    {
        return std::to_string(index) + "/" + std::to_string(count);
    }

    /**
     * Parse "i/N" with 0 <= i < N. On failure returns nullopt and
     * fills @p err with a one-line explanation.
     */
    static std::optional<ShardSpec> parse(const std::string &text,
                                          std::string *err);
};

} // namespace rcache

#endif // RCACHE_RUNNER_SHARD_HH
