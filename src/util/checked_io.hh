/**
 * @file
 * Checked stream writes for the durability seams. Every writer whose
 * output must survive a crash (sweep CSVs, decision logs, telemetry
 * sidecars, merge reports) appends through checkedAppend() /
 * checkedFlush(): the stream state is verified after every write and
 * an unacknowledged byte is an *environment* failure — full disk,
 * dead device — reported with a one-line diagnostic and exit 3,
 * never a silently truncated file.
 *
 * Both helpers take an optional failpoint site (fault/failpoint.hh):
 * io_error poisons the stream so the exit-3 path is exercised, torn
 * commits half the payload and crashes — the deterministic inputs of
 * the crash-recovery suite.
 *
 * The read side of the same contract: a resumable file (a sweep CSV,
 * a decision log) is read back through readCompleteLines(), and one
 * that is damaged is moved aside by quarantineAndStartFresh().
 */

#ifndef RCACHE_UTIL_CHECKED_IO_HH
#define RCACHE_UTIL_CHECKED_IO_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace rcache
{

/** Exit code for unacknowledged writes (distinct from 1 = internal
 *  fatal and 2 = usage/input error; see README "Fault tolerance"). */
constexpr int kIoErrorExit = 3;

/** Print the standard one-line I/O diagnostic naming @p path and
 *  exit 3. */
[[noreturn]] void ioFatal(const std::string &path);

/**
 * Append @p text to @p os and flush, verifying the stream accepted
 * every byte; exits 3 with a one-line diagnostic naming @p path on
 * failure. @p site, when non-null, is the RC_FAILPOINT evaluated
 * before the write.
 */
void checkedAppend(std::ostream &os, std::string_view text,
                   const std::string &path,
                   const char *site = nullptr);

/** Flush @p os and verify; exits 3 naming @p path on failure. */
void checkedFlush(std::ostream &os, const std::string &path,
                  const char *site = nullptr);

/**
 * Move a damaged input aside to "<path>.corrupt.<unix-ts>" so a
 * fresh start never destroys the evidence. @return the aside path,
 * or nullopt when the rename failed (callers proceed by overwriting
 * in place).
 */
std::optional<std::string>
quarantineCorruptFile(const std::string &path);

/**
 * The complete lines of the resumable file @p path: everything up to
 * and including its last newline. A final line without one is a
 * crashed writer's torn tail, not damage: it is dropped, and @p torn,
 * when non-null, says so. @return nullopt when the file cannot be
 * opened (nothing to resume).
 */
std::optional<std::string> readCompleteLines(const std::string &path,
                                             bool *torn = nullptr);

/**
 * Move the damaged resume file @p path aside (quarantineCorruptFile)
 * and warn in one line, naming @p why and the aside, that the run
 * starts fresh.
 */
void quarantineAndStartFresh(const std::string &path,
                             const std::string &why);

} // namespace rcache

#endif // RCACHE_UTIL_CHECKED_IO_HH
