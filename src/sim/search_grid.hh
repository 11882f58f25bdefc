/**
 * @file
 * The dynamic controller's offline-profiling grid: the cross product
 * of interval lengths, miss-bound fractions of the interval, and
 * size-bound fractions of the full cache size (0 = unbounded).
 *
 * The defaults reproduce the grid the pre-scenario searches
 * hardcoded. This is the single source of those defaults: Experiment
 * lays the grid out as jobs and ScenarioSpec's [search] section
 * overrides it, so the two layers cannot drift.
 */

#ifndef RCACHE_SIM_SEARCH_GRID_HH
#define RCACHE_SIM_SEARCH_GRID_HH

#include <cstdint>
#include <vector>

namespace rcache
{

/** See file comment. */
struct SearchGrid
{
    std::vector<std::uint64_t> intervals{1024, 8192};
    std::vector<double> missFractions{0.002, 0.008, 0.025, 0.07};
    std::vector<double> sizeFractions{0, 0.25, 0.5, 1.0};

    bool operator==(const SearchGrid &o) const = default;
};

} // namespace rcache

#endif // RCACHE_SIM_SEARCH_GRID_HH
