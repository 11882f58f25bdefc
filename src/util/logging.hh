/**
 * @file
 * Logging and error-reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits cleanly;
 * RC_LOG reports conditions without stopping the run.
 *
 * Non-terminating output is leveled: every message carries a LogLevel
 * and only prints when at or below the global threshold. The
 * threshold starts from the RCACHE_LOG environment variable
 * (error|warn|info|debug, read once at first use; default info) and
 * can be moved at runtime with setLogLevel(). RC_LOG(level, msg) is
 * the one leveled entry point.
 */

#ifndef RCACHE_UTIL_LOGGING_HH
#define RCACHE_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace rcache
{

/**
 * Message severities, most to least severe. Enumerators are lowercase
 * so RC_LOG(warn, ...) reads like a level name at the call site.
 */
enum class LogLevel
{
    error = 0,
    warn = 1,
    info = 2,
    debug = 3,
};

/** Printable level name ("error"/"warn"/"info"/"debug"). */
const char *logLevelName(LogLevel level);

/** Parse a level name; returns false and leaves @p out alone on an
 *  unknown name. */
bool parseLogLevel(const std::string &text, LogLevel &out);

/** The current global threshold (messages above it are dropped). */
LogLevel logLevel();

/** Move the global threshold. */
void setLogLevel(LogLevel level);

/** @return whether a message at @p level would print right now. */
bool logEnabled(LogLevel level);

/** Print a formatted message with a severity prefix to stderr. */
void logMessage(const char *prefix, const std::string &msg);

/** Report a simulator bug and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Report a user/configuration error and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace rcache

#define rc_panic(msg) ::rcache::panicImpl(__FILE__, __LINE__, (msg))
#define rc_fatal(msg) ::rcache::fatalImpl(__FILE__, __LINE__, (msg))

/**
 * Leveled logging: RC_LOG(warn, "...") / RC_LOG(debug, "...").
 * @p level is a bare LogLevel enumerator name; the message argument
 * is not evaluated when the level is disabled.
 */
#define RC_LOG(level, msg)                                                 \
    do {                                                                   \
        if (::rcache::logEnabled(::rcache::LogLevel::level))               \
            ::rcache::logMessage(#level, (msg));                           \
    } while (0)

/**
 * Internal invariant check. Unlike assert(), stays on in release builds;
 * resizing mask/geometry bugs silently corrupt results otherwise.
 */
#define rc_assert(cond)                                                    \
    do {                                                                   \
        if (!(cond))                                                       \
            rc_panic(std::string("assertion failed: ") + #cond);           \
    } while (0)

#endif // RCACHE_UTIL_LOGGING_HH
