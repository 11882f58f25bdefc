#include "workload/workload_factory.hh"

#include "util/numformat.hh"

#include "util/logging.hh"
#include "workload/profiles.hh"
#include "workload/streaming_trace.hh"
#include "workload/trace_format.hh"

namespace rcache
{

bool
isTraceProfile(const BenchmarkProfile &p)
{
    return !p.traceSpec.empty();
}

bool
traceProfileFromSpec(const std::string &spec, BenchmarkProfile *out,
                     std::string *err)
{
    TraceSpec ts;
    if (!parseTraceSpec(spec, &ts, err))
        return false;
    BenchmarkProfile p;
    p.name = spec;
    p.traceSpec = spec;
    // regions stays empty: SyntheticWorkload's constructor rejects
    // trace profiles that bypass this factory.
    *out = p;
    return true;
}

bool
preflightTraceSpecs(const std::vector<std::string> &names,
                    std::string *err)
{
    for (const std::string &name : names)
        for (const std::string &item : splitPlusList(name)) {
            TraceSpec spec;
            if (isTraceSpec(item) &&
                (!parseTraceSpec(item, &spec, err) ||
                 !StreamingTraceWorkload::open(spec, item, err)))
                return false;
        }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const BenchmarkProfile &p)
{
    if (!isTraceProfile(p))
        return std::make_unique<SyntheticWorkload>(p);

    TraceSpec ts;
    std::string err;
    if (!parseTraceSpec(p.traceSpec, &ts, &err))
        rc_fatal(err);
    auto wl = StreamingTraceWorkload::open(ts, p.traceSpec, &err);
    if (!wl)
        rc_fatal(err);
    return wl;
}

namespace
{

void
appendPhase(std::string &key, const PhaseSpec &ph)
{
    appendKeyField(key, static_cast<int>(ph.kind));
    for (double v : {ph.lo, ph.hi, ph.dutyHi})
        appendKeyField(key, v);
    appendKeyField(key, ph.periodInsts);
}

} // namespace

std::string
profileKey(const BenchmarkProfile &p)
{
    std::string key;
    appendKeyField(key, p.name);
    appendKeyField(key, p.traceSpec);
    for (double v : {p.loadFrac, p.storeFrac, p.branchFrac, p.fpFrac,
                     p.dataConflictFrac, p.codeHotFrac, p.codeHotWeight,
                     p.codeConflictFrac, p.takenBias, p.depChance,
                     p.loadUseChance})
        appendKeyField(key, v);
    for (std::uint64_t v :
         {std::uint64_t{p.dataConflictBlocks}, p.codeFootprint,
          std::uint64_t{p.codeConflictBlocks}, std::uint64_t{p.maxDepDist},
          std::uint64_t{p.fpLatency}, p.seed})
        appendKeyField(key, v);
    appendPhase(key, p.dataPhase);
    appendPhase(key, p.codePhase);
    appendKeyField(key, p.regions.size());
    for (const DataRegion &r : p.regions) {
        appendKeyField(key, r.bytes);
        appendKeyField(key, r.stride);
        appendKeyField(key, r.phased);
        for (double v : {r.weight, r.hotFrac, r.hotWeight})
            appendKeyField(key, v);
    }
    return key;
}

} // namespace rcache
