/**
 * @file
 * Experiment: the job-layout and reduction vocabulary of the paper's
 * offline profiling methodology.
 *
 * Static resizing requires "profiling an application's execution with
 * different static cache sizes to determine the cache size with
 * minimal energy dissipation"; the dynamic controller's miss-bound and
 * size-bound "are extracted offline through profiling". A profiling
 * search is a batch of independent RunJobs (runner/sweep_runner.hh):
 * the non-resizable baseline, one job per candidate (each offered
 * static level, or each dynamic grid point), and for side=both one
 * combined run at the two per-side levels. Experiment lays those jobs
 * out for one base configuration and reduces their results to the
 * minimum-E.D point; it runs nothing and keeps no state beyond its
 * configuration. CellBatch (scenario/cell_eval.hh) is the one
 * procedure that executes the jobs, memoizes baselines, and turns the
 * outcomes into rows; clients that need a raw RunResult lay out jobs
 * here and run them on a SweepRunner.
 *
 * Tie-break contract: reductions use a strict `<` comparison, so when
 * two candidates dissipate exactly equal energy-delay the FIRST one
 * in job order wins. Candidate grids are enumerated largest cache
 * first (offered-size schedules are sorted by decreasing size), so
 * ties resolve deterministically to the larger cache / lower
 * candidate index, independent of thread count or platform.
 */

#ifndef RCACHE_SIM_EXPERIMENT_HH
#define RCACHE_SIM_EXPERIMENT_HH

#include <string>

#include "runner/sweep_runner.hh"
#include "sim/search_grid.hh"
#include "sim/system.hh"
#include "util/logging.hh"
#include "workload/profiles.hh"

namespace rcache
{

/** Which L1 a search resizes. */
enum class CacheSide
{
    ICache,
    DCache,
};

/** Printable side name ("icache" / "dcache"). */
std::string cacheSideName(CacheSide side);

/** Outcome of a profiling search for one (app, org, strategy). */
struct SearchOutcome
{
    RunResult baseline;
    RunResult best;
    /** Static: chosen schedule level. */
    unsigned bestLevel = 0;
    /** Dynamic: chosen controller parameters. */
    DynamicParams bestParams;

    /**
     * Paper metric: best E.D normalized to the baseline. A zero
     * baseline E.D (a degenerate run, e.g. a zero-instruction
     * baseline) has no meaningful normalization;
     * it returns 0 with a logged warning instead of dividing by
     * zero, and edReductionPct() follows suit.
     */
    double relativeED() const
    {
        if (baseline.edp() == 0) {
            RC_LOG(warn,
                   "relativeED: zero baseline energy-delay for '" +
                       baseline.workload + "'; returning 0");
            return 0;
        }
        return best.edp() / baseline.edp();
    }
    /** Reduction (%) in processor energy-delay (0 when the baseline
     *  is degenerate; see relativeED). */
    double edReductionPct() const
    {
        if (baseline.edp() == 0)
            return 0;
        return 100.0 * (1.0 - relativeED());
    }
    /** Performance degradation (%) of the best point (0 with a
     *  logged warning when the baseline ran zero cycles — an inf/nan
     *  here would make the sweep CSV unreadable to --resume). */
    double perfDegradationPct() const
    {
        if (baseline.cycles == 0) {
            RC_LOG(warn,
                   "perfDegradationPct: zero baseline cycles for '" +
                       baseline.workload + "'; returning 0");
            return 0;
        }
        return 100.0 * (static_cast<double>(best.cycles) /
                            static_cast<double>(baseline.cycles) -
                        1.0);
    }
    /** Reduction (%) in average enabled size of @p side (0 with a
     *  logged warning when the baseline size is zero). */
    double sizeReductionPct(CacheSide side) const
    {
        const double full = side == CacheSide::DCache
                                ? baseline.avgDl1Bytes
                                : baseline.avgIl1Bytes;
        const double got = side == CacheSide::DCache
                               ? best.avgDl1Bytes
                               : best.avgIl1Bytes;
        if (full == 0) {
            RC_LOG(warn, "sizeReductionPct: zero baseline " +
                             cacheSideName(side) + " size for '" +
                             baseline.workload + "'; returning 0");
            return 0;
        }
        return 100.0 * (1.0 - got / full);
    }
};

/**
 * One candidate resize configuration within a search cell: the setup
 * applied to the searched side plus a stable label suffix
 * ("static/L2", "dynamic/G7").
 */
struct SearchCandidate
{
    ResizeSetup setup;
    std::string tag;
};


/** See file comment. */
class Experiment
{
  public:
    /**
     * @param cfg base configuration; the org fields are overridden
     *            per job
     * @param num_insts instructions simulated per run
     */
    Experiment(const SystemConfig &cfg, std::uint64_t num_insts);

    /**
     * Apply @p engine to every job this experiment lays out from now
     * on (baselines included, so normalizations compare like with
     * like). Defaults to full detail.
     */
    void setEngine(const EngineSpec &engine);
    const EngineSpec &engine() const { return engine_; }

    /** Override the dynamic-controller profiling grid (defaults
     *  reproduce the paper's). */
    void setSearchGrid(const SearchGrid &grid) { grid_ = grid; }

    const SystemConfig &config() const { return cfg_; }

    /** @name Job layout
     * Jobs are returned in the deterministic order the reductions
     * expect.
     */
    /// @{

    /** The non-resizable baseline point of @p profile as a job. */
    RunJob baselineJob(const BenchmarkProfile &profile) const;

    /** The candidate ResizeSetups a (side, org, strat) cell searches,
     *  in job order (largest cache first for Static; dynamicGrid()
     *  order for Dynamic). */
    std::vector<SearchCandidate>
    searchCandidates(CacheSide side, Organization org,
                     Strategy strat) const;

    /** One job per candidate of the (side, org, strat) cell. */
    std::vector<RunJob> searchJobs(const BenchmarkProfile &profile,
                                   CacheSide side, Organization org,
                                   Strategy strat) const;

    /** One job per offered level of @p org on @p side (level == job
     *  index). */
    std::vector<RunJob>
    staticSearchJobs(const BenchmarkProfile &profile, CacheSide side,
                     Organization org) const;

    /** The (interval, miss-bound, size-bound) grid a dynamic cell
     *  searches for @p side under @p org, in job order. */
    std::vector<DynamicParams> dynamicGrid(CacheSide side,
                                           Organization org) const;

    /** Both caches resized together under @p org at each side's
     *  profiled static level (the Fig 9 combined point). */
    RunJob bothStaticJob(const BenchmarkProfile &profile,
                         Organization org, unsigned il1_level,
                         unsigned dl1_level) const;
    /// @}

    /** @name Reduction */
    /// @{

    /**
     * Pick the minimum-E.D candidate. Strict `<`: the first minimum
     * in candidate order wins, so equal-E.D ties resolve to the
     * larger cache / lower index (see the file comment).
     * @p candidates must parallel @p results.
     */
    static SearchOutcome
    reduceSearch(const RunResult &baseline,
                 const std::vector<SearchCandidate> &candidates,
                 const std::vector<RunResult> &results);

    /** Pick the minimum-E.D static point (reduceSearch with level ==
     *  index candidates; same tie-break). */
    static SearchOutcome
    reduceStatic(const RunResult &baseline,
                 const std::vector<RunResult> &results);

    /**
     * Assemble a side=both outcome (the Fig 9 methodology): the
     * combined run at the two per-side profiled levels is the best
     * point, and the reported level is the dcache side's (matching
     * the per-side CSV convention).
     */
    static SearchOutcome reduceBoth(const RunResult &baseline,
                                    const SearchOutcome &dcacheOut,
                                    const RunResult &combined);
    /// @}

    /** Default controller interval, in cache accesses. */
    static constexpr std::uint64_t dynIntervalAccesses = 8192;

  private:
    SystemConfig configFor(CacheSide side, Organization org) const;

    SystemConfig cfg_;
    std::uint64_t numInsts_;
    EngineSpec engine_;
    SearchGrid grid_;
};

} // namespace rcache

#endif // RCACHE_SIM_EXPERIMENT_HH
