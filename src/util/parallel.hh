/**
 * @file
 * parallelFor: how the simulator spreads a fixed set of independent
 * items over threads (the analytic engine's shared passes). A sweep's
 * lane groups run on SweepRunner::drain instead, whose queue grows as
 * jobs are released.
 */

#ifndef RCACHE_UTIL_PARALLEL_HH
#define RCACHE_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace rcache
{

/**
 * Call @p fn(i) once for every i in [0, @p n) on min(@p workers, n)
 * threads started for this call and joined before it returns (on the
 * calling thread alone when that is one). Each thread takes the next
 * unstarted index, so items start in index order.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned workers, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    const std::size_t threads =
        std::min<std::size_t>(std::max(1u, workers), n);
    if (threads <= 1) {
        work();
        return;
    }
    // Joined at the end of this scope, after the last item.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(work);
}

} // namespace rcache

#endif // RCACHE_UTIL_PARALLEL_HH
