/** @file Tests for ShardSpec parsing and its one partition rule. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "runner/shard.hh"

namespace rcache
{

TEST(ShardTest, ParsesValidSpecs)
{
    std::string err;
    auto s = ShardSpec::parse("0/1", &err);
    ASSERT_TRUE(s) << err;
    EXPECT_EQ(s->index, 0u);
    EXPECT_EQ(s->count, 1u);
    EXPECT_FALSE(s->sharded());

    s = ShardSpec::parse("3/8", &err);
    ASSERT_TRUE(s) << err;
    EXPECT_EQ(s->index, 3u);
    EXPECT_EQ(s->count, 8u);
    EXPECT_TRUE(s->sharded());
    EXPECT_EQ(s->str(), "3/8");
}

TEST(ShardTest, RejectsMalformedSpecs)
{
    std::string err;
    for (const char *bad : {"", "1", "1/", "/2", "2/2", "5/2", "a/2",
                            "1/b", "-1/2", "1/0", "1/2/3"}) {
        EXPECT_FALSE(ShardSpec::parse(bad, &err)) << bad;
        EXPECT_NE(err.find("shard wants i/N"), std::string::npos);
    }
}

TEST(ShardTest, ShardsPartitionTheIndexSpace)
{
    // Each shard's range starts where the one before ends, so the N
    // ranges are disjoint and ascending; the last ends at n, so they
    // cover every cell; and their sizes differ by at most one.
    for (const std::size_t n : {0u, 1u, 2u, 7u, 8u, 100u, 264u}) {
        for (const std::size_t count : {1u, 2u, 3u, 4u, 7u, 11u, 300u}) {
            SCOPED_TRACE(std::to_string(n) + " cells, " +
                         std::to_string(count) + " shards");
            std::size_t next = 0;
            std::size_t smallest = n, largest = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const auto [first, last] = ShardSpec{i, count}.range(n);
                EXPECT_EQ(first, next) << "shard " << i;
                ASSERT_LE(first, last) << "shard " << i;
                smallest = std::min(smallest, last - first);
                largest = std::max(largest, last - first);
                next = last;
            }
            EXPECT_EQ(next, n);
            EXPECT_LE(largest - smallest, 1u);
            // Bounds round up, so the trailing shard past the last
            // cell is empty exactly when there are more shards than
            // cells, and the first holds a cell whenever there is one.
            const auto [tail_first, tail_last] =
                ShardSpec{count - 1, count}.range(n);
            EXPECT_EQ(tail_first == tail_last, count > n);
            EXPECT_EQ(ShardSpec({0, count}).range(n).second > 0, n > 0);
        }
    }

    // take() hands out a shard's range of an ascending cell list.
    const std::vector<std::size_t> cells{3, 5, 8, 13, 21};
    EXPECT_EQ(ShardSpec({0, 2}).take(cells),
              (std::vector<std::size_t>{3, 5, 8}));
    EXPECT_EQ(ShardSpec({1, 2}).take(cells),
              (std::vector<std::size_t>{13, 21}));
    EXPECT_TRUE(ShardSpec({6, 7}).take(cells).empty());

    // perfbench's set-up launches: the last of 2^20 shards of
    // fig9.scn's 36 cells owns no cell.
    using Range = std::pair<std::size_t, std::size_t>;
    EXPECT_EQ(ShardSpec({1048575, 1048576}).range(36), (Range{36, 36}));

    // The products are taken in 128 bits: nothing overflows at the
    // largest N that parses, however many cells there are.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    std::string err;
    const auto last = ShardSpec::parse(
        std::to_string(kMax - 1) + "/" + std::to_string(kMax), &err);
    ASSERT_TRUE(last) << err;
    EXPECT_EQ(last->range(kMax), (Range{kMax - 1, kMax}));
    EXPECT_EQ(last->range(kMax - 1), (Range{kMax - 1, kMax - 1}));
    EXPECT_EQ(last->range(264), (Range{264, 264}));
    EXPECT_EQ(ShardSpec({0, kMax}).range(kMax), (Range{0, 1}));
    EXPECT_EQ(ShardSpec({0, kMax}).range(264), (Range{0, 1}));
    EXPECT_EQ(ShardSpec({kMax / 2, kMax}).range(kMax),
              (Range{kMax / 2, kMax / 2 + 1}));
    EXPECT_EQ(ShardSpec({1, 2}).range(kMax), (Range{kMax / 2 + 1, kMax}));
}

} // namespace rcache
