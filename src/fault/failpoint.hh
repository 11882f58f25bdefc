/**
 * @file
 * Deterministic fault injection: named failpoint *sites* threaded
 * through every durability seam (lease protocol, unit-by-unit CSV commit,
 * decision-log append, tmp+rename publishes, telemetry sidecars).
 *
 * A site is a string constant evaluated with RC_FAILPOINT("name").
 * Disarmed — the normal case — the macro is a single relaxed atomic
 * load and the site costs nothing. Armed via the RC_FAILPOINT
 * environment variable or the --failpoint CLI option with a spec like
 *
 *   claim.lease.after_create=crash@2,csv.chunk.flush=io_error
 *
 * each named site counts its hits and fires exactly on the Nth
 * (@N, default 1) with one of four actions:
 *
 *   crash     _exit(137) on the spot — an abrupt kill, nothing
 *             buffered gets flushed (the interesting durability case)
 *   io_error  the macro returns Fire::IoError; the call site models a
 *             write the filesystem refused (ENOSPC, dead device)
 *   torn      the macro returns Fire::Torn; a checked writer commits
 *             half the payload and then crashes — a torn write
 *   delay     sleep delayMs (default 100, "delay:MS") and continue —
 *             for widening race windows in takeover tests
 *
 * The registry of known sites is closed: arming an unknown site is a
 * spec error, so a test driver can enumerate knownFailpoints() (or
 * `rcache-sim list-failpoints`) and prove every site is covered by a
 * crash-recovery flow.
 */

#ifndef RCACHE_FAULT_FAILPOINT_HH
#define RCACHE_FAULT_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rcache::fault
{

/** What an evaluated site tells its caller to simulate. (crash and
 *  delay never return: they are handled inside the evaluation.) */
enum class Fire
{
    None,
    IoError,
    Torn,
};

/** One registered site. */
struct SiteInfo
{
    const char *name;
    const char *description;
};

/** Every site the codebase evaluates, with a one-line description
 *  (the `rcache-sim list-failpoints` output). */
const std::vector<SiteInfo> &knownFailpoints();

/**
 * Arm sites from @p spec ("site=action[@N][,site=action[@N]]...",
 * actions crash|io_error|torn|delay[:MS]). Unknown sites, malformed
 * entries, and zero hit indices are errors. Arming is cumulative
 * until disarmFailpoints().
 * @return false with @p err set on a bad spec (nothing is armed).
 */
bool armFailpoints(const std::string &spec, std::string *err);

/** Arm from the RC_FAILPOINT environment variable; an unset or empty
 *  variable arms nothing and succeeds. */
bool armFailpointsFromEnv(std::string *err);

/** Drop every armed site and reset hit counters (tests). */
void disarmFailpoints();

/** How often an *armed* @p site has been evaluated (0 when not
 *  armed; disarmed sites never reach the counting slow path). */
std::uint64_t failpointHits(const std::string &site);

/** @cond internal — the macro's fast-path gate. */
extern std::atomic<bool> g_failpointsArmed;
inline bool
anyFailpointArmed()
{
    return g_failpointsArmed.load(std::memory_order_relaxed);
}
/** @endcond */

/** Slow path: count a hit on @p site and act. Crash exits here;
 *  delay sleeps here; io_error/torn are returned for the call site
 *  to model. */
Fire failpointHit(const char *site);

/** Print the one-line "failpoint fired" note for @p site and
 *  _exit(137) without flushing anything — the simulated crash used
 *  by the crash and torn actions. */
[[noreturn]] void failpointCrash(const char *site, const char *what);

} // namespace rcache::fault

/**
 * Evaluate failpoint @p site. Compiles to a relaxed atomic load when
 * nothing is armed; define RCACHE_NO_FAILPOINTS to compile every
 * site out entirely.
 */
#ifdef RCACHE_NO_FAILPOINTS
#define RC_FAILPOINT(site) (::rcache::fault::Fire::None)
#else
#define RC_FAILPOINT(site)                                                 \
    (::rcache::fault::anyFailpointArmed()                                  \
         ? ::rcache::fault::failpointHit(site)                             \
         : ::rcache::fault::Fire::None)
#endif

#endif // RCACHE_FAULT_FAILPOINT_HH
