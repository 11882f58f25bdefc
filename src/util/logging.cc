#include "util/logging.hh"

#include <atomic>

namespace rcache
{

namespace
{

/** Threshold seeded from RCACHE_LOG exactly once (thread-safe local
 *  static init); an unreadable value falls back to the default so a
 *  typo can never silence warnings below it. */
std::atomic<int> &
levelFlag()
{
    static std::atomic<int> level{[] {
        LogLevel l = LogLevel::info;
        if (const char *env = std::getenv("RCACHE_LOG")) {
            if (!parseLogLevel(env, l) && *env)
                std::fprintf(stderr,
                             "warn: RCACHE_LOG wants "
                             "error|warn|info|debug, got '%s'\n",
                             env);
        }
        return static_cast<int>(l);
    }()};
    return level;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::error:
        return "error";
      case LogLevel::warn:
        return "warn";
      case LogLevel::info:
        return "info";
      case LogLevel::debug:
        return "debug";
    }
    return "?";
}

bool
parseLogLevel(const std::string &text, LogLevel &out)
{
    for (LogLevel l : {LogLevel::error, LogLevel::warn, LogLevel::info,
                       LogLevel::debug}) {
        if (text == logLevelName(l)) {
            out = l;
            return true;
        }
    }
    return false;
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        levelFlag().load(std::memory_order_relaxed));
}

void
setLogLevel(LogLevel level)
{
    levelFlag().store(static_cast<int>(level),
                      std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
           levelFlag().load(std::memory_order_relaxed);
}

void
logMessage(const char *prefix, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
}

int
refuse(const std::string &msg)
{
    std::fprintf(stderr, "rcache-sim: %s\n", msg.c_str());
    return 2;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

} // namespace rcache
