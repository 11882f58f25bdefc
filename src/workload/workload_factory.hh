/**
 * @file
 * The one seam that turns a BenchmarkProfile into a runnable Workload.
 *
 * A profile is either synthetic (the generator parameterization in
 * synthetic.hh) or a trace replay (traceSpec set, everything else
 * unused). Every consumer of profiles — the sweep runner, the
 * analytic engine's reference pass, the multi-core address-space
 * wrapper, the CLI — builds its stream through makeWorkload so trace
 * specs work anywhere an app name does.
 */

#ifndef RCACHE_WORKLOAD_WORKLOAD_FACTORY_HH
#define RCACHE_WORKLOAD_WORKLOAD_FACTORY_HH

#include <memory>
#include <string>

#include "workload/synthetic.hh"

namespace rcache
{

/** Does @p p replay a trace (vs. generate synthetically)? */
bool isTraceProfile(const BenchmarkProfile &p);

/**
 * Build the profile representing one "trace:PATH[:FORMAT]" spec.
 * Validates the spec syntax only; the file is opened by makeWorkload.
 * @return false with @p err set on a malformed spec
 */
bool traceProfileFromSpec(const std::string &spec,
                          BenchmarkProfile *out, std::string *err);

/**
 * Instantiate the workload @p p describes. Synthetic profiles build a
 * SyntheticWorkload; trace profiles open a StreamingTraceWorkload.
 * A trace that fails to open or starts malformed is a user error
 * (fatal with the file diagnostic) — spec syntax was validated when
 * the profile was resolved.
 */
std::unique_ptr<Workload> makeWorkload(const BenchmarkProfile &p);

/**
 * Identity of the stream @p p describes, as a string: equal keys give
 * equal streams and equal names. It spells out every profile field
 * (doubles exactly), so the job memo and the runner's lane groups
 * never confuse two profiles that differ in any of them.
 */
std::string profileKey(const BenchmarkProfile &p);

} // namespace rcache

#endif // RCACHE_WORKLOAD_WORKLOAD_FACTORY_HH
