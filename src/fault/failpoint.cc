#include "fault/failpoint.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "util/numformat.hh"

namespace rcache::fault
{

std::atomic<bool> g_failpointsArmed{false};

namespace
{

enum class Action
{
    Crash,
    IoError,
    Torn,
    Delay,
};

struct SiteState
{
    Action action = Action::Crash;
    /** 1-based hit index the action fires on (exactly once). */
    std::uint64_t fireAt = 1;
    std::uint64_t delayMs = 0;
    std::uint64_t hits = 0;
};

std::mutex g_mutex;
std::map<std::string, SiteState> &
sites()
{
    static std::map<std::string, SiteState> s;
    return s;
}

bool
isKnownSite(const std::string &name)
{
    for (const SiteInfo &s : knownFailpoints())
        if (name == s.name)
            return true;
    return false;
}

/** Parse one "site=action[@N]" entry into (name, state). */
bool
parseEntry(const std::string &item, std::string &name,
           SiteState &state, std::string *why)
{
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
        *why = "'" + item + "' wants SITE=ACTION[@N]";
        return false;
    }
    name = item.substr(0, eq);
    if (!isKnownSite(name)) {
        *why = "unknown site '" + name +
               "' (see 'rcache-sim list-failpoints')";
        return false;
    }
    std::string action = item.substr(eq + 1);
    const std::size_t at = action.find('@');
    if (at != std::string::npos) {
        unsigned long long n = 0;
        if (!parseU64Strict(action.substr(at + 1), n) || n == 0) {
            *why = "'" + item + "': '@N' wants a positive hit index";
            return false;
        }
        state.fireAt = n;
        action = action.substr(0, at);
    }
    std::string arg;
    const std::size_t colon = action.find(':');
    if (colon != std::string::npos) {
        arg = action.substr(colon + 1);
        action = action.substr(0, colon);
    }
    if (action == "crash") {
        state.action = Action::Crash;
    } else if (action == "io_error") {
        state.action = Action::IoError;
    } else if (action == "torn") {
        state.action = Action::Torn;
    } else if (action == "delay") {
        state.action = Action::Delay;
        state.delayMs = 100;
        if (!arg.empty()) {
            unsigned long long ms = 0;
            if (!parseU64Strict(arg, ms)) {
                *why = "'" + item +
                       "': 'delay:MS' wants a millisecond count";
                return false;
            }
            state.delayMs = ms;
        }
        arg.clear();
    } else {
        *why = "'" + item + "': unknown action '" + action +
               "' (crash|io_error|torn|delay[:MS])";
        return false;
    }
    if (!arg.empty()) {
        *why = "'" + item + "': only delay takes a ':MS' argument";
        return false;
    }
    return true;
}

} // namespace

const std::vector<SiteInfo> &
knownFailpoints()
{
    static const std::vector<SiteInfo> registry = {
        {"claim.manifest.scn.after",
         "after MANIFEST.scn publishes, before the MANIFEST.meta "
         "commit"},
        {"claim.manifest.meta.write",
         "while writing MANIFEST.meta (the manifest commit point; "
         "torn leaves a partial meta)"},
        {"claim.lease.after_create",
         "after a unit lease file is created"},
        {"claim.heartbeat",
         "at a lease heartbeat, after each lane group (io_error "
         "simulates a failed mtime bump)"},
        {"claim.takeover.aside",
         "after a stale lease is renamed aside, before the fresh "
         "claim"},
        {"claim.unit.publish",
         "after a claim unit's CSV (sweep or tune) is written to its "
         "tmp file, before the rename into place"},
        {"claim.done.before",
         "before a unit's done marker is written"},
        {"atomic.publish",
         "inside atomicWriteFile, after the tmp write, before the "
         "rename (the manifest scenario text)"},
        {"csv.chunk.flush",
         "at a sweep CSV commit unit's append+flush"},
        {"log.append",
         "at a tune decision-log line append+flush"},
        {"tune.winner.write",
         "while writing the tune winner CSV"},
        {"telemetry.timeline.append",
         "at a timeline JSONL append"},
        {"telemetry.events.append",
         "at a resize-events JSONL append"},
        {"telemetry.trace.write",
         "while writing the Chrome trace-event file"},
        {"merge.out.flush",
         "at the merged report's final write+flush"},
    };
    return registry;
}

bool
armFailpoints(const std::string &spec, std::string *err)
{
    const auto failWith = [&](const std::string &why) {
        if (err)
            *err = "failpoint spec '" + spec + "': " + why;
        return false;
    };
    std::map<std::string, SiteState> parsed;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            return failWith("empty entry");
        std::string name, why;
        SiteState state;
        if (!parseEntry(item, name, state, &why))
            return failWith(why);
        parsed[name] = state;
        if (comma == std::string::npos)
            break;
    }
    if (parsed.empty())
        return failWith("no sites");
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto &[name, state] : parsed)
        sites()[name] = state;
    g_failpointsArmed.store(true, std::memory_order_relaxed);
    return true;
}

bool
armFailpointsFromEnv(std::string *err)
{
    const char *spec = std::getenv("RC_FAILPOINT");
    if (spec == nullptr || *spec == '\0')
        return true;
    return armFailpoints(spec, err);
}

void
disarmFailpoints()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    sites().clear();
    g_failpointsArmed.store(false, std::memory_order_relaxed);
}

std::uint64_t
failpointHits(const std::string &site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    const auto it = sites().find(site);
    return it == sites().end() ? 0 : it->second.hits;
}

Fire
failpointHit(const char *site)
{
    Action action;
    std::uint64_t delay_ms = 0;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        const auto it = sites().find(site);
        if (it == sites().end())
            return Fire::None;
        SiteState &state = it->second;
        if (++state.hits != state.fireAt)
            return Fire::None;
        action = state.action;
        delay_ms = state.delayMs;
    }
    switch (action) {
    case Action::Crash:
        failpointCrash(site, "crash");
    case Action::Delay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay_ms));
        return Fire::None;
    case Action::IoError:
        std::fprintf(stderr,
                     "rcache-sim: failpoint '%s' fired: io_error\n",
                     site);
        return Fire::IoError;
    case Action::Torn:
        std::fprintf(stderr,
                     "rcache-sim: failpoint '%s' fired: torn\n",
                     site);
        return Fire::Torn;
    }
    return Fire::None;
}

void
failpointCrash(const char *site, const char *what)
{
    // stderr is unbuffered, so the note survives the abrupt exit;
    // _exit skips every flush and atexit hook — the whole point is
    // that nothing buffered reaches disk.
    std::fprintf(stderr,
                 "rcache-sim: failpoint '%s' fired: %s (_exit 137)\n",
                 site, what);
    ::_exit(137);
}

} // namespace rcache::fault
