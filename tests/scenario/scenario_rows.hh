/**
 * @file
 * Test helper: evaluate an inline scenario through the one
 * cell-evaluation path (evaluateScenario) and return its rows, so
 * tests assert on the same SweepRecord columns a sweep reports.
 */

#ifndef RCACHE_TESTS_SCENARIO_ROWS_HH
#define RCACHE_TESTS_SCENARIO_ROWS_HH

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "scenario/cell_eval.hh"

namespace rcache
{

/** Parse @p text and evaluate every cell on @p jobs workers. A spec
 *  that does not parse or build fails the calling test and yields no
 *  rows. */
inline ScenarioRows
scenarioRows(const std::string &text, unsigned jobs = 1)
{
    std::string err;
    const auto spec = ScenarioSpec::parseText(text, "inline.scn", &err);
    std::optional<ScenarioRows> rows;
    if (spec)
        rows = evaluateScenario(*spec, jobs, &err);
    if (!rows) {
        ADD_FAILURE() << err;
        return {};
    }
    return std::move(*rows);
}

} // namespace rcache

#endif // RCACHE_TESTS_SCENARIO_ROWS_HH
