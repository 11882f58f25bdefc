/** @file Unit tests for logging helpers. */

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace rcache
{

/** Restores the entry threshold so level tests can't leak state. */
class LogLevelGuard
{
  public:
    LogLevelGuard() : saved_(logLevel()) {}
    ~LogLevelGuard() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

TEST(LoggingTest, LevelThresholdGatesEachSeverity)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::error);
    EXPECT_TRUE(logEnabled(LogLevel::error));
    EXPECT_FALSE(logEnabled(LogLevel::warn));
    EXPECT_FALSE(logEnabled(LogLevel::info));
    EXPECT_FALSE(logEnabled(LogLevel::debug));

    setLogLevel(LogLevel::warn);
    EXPECT_TRUE(logEnabled(LogLevel::warn));
    EXPECT_FALSE(logEnabled(LogLevel::info));

    setLogLevel(LogLevel::debug);
    EXPECT_TRUE(logEnabled(LogLevel::error));
    EXPECT_TRUE(logEnabled(LogLevel::debug));
}

TEST(LoggingTest, LevelNamesRoundTrip)
{
    for (LogLevel l : {LogLevel::error, LogLevel::warn, LogLevel::info,
                       LogLevel::debug}) {
        LogLevel parsed = LogLevel::error;
        EXPECT_TRUE(parseLogLevel(logLevelName(l), parsed));
        EXPECT_EQ(parsed, l);
    }
    LogLevel out = LogLevel::info;
    EXPECT_FALSE(parseLogLevel("loud", out));
    EXPECT_EQ(out, LogLevel::info) << "failed parse must not write";
    EXPECT_FALSE(parseLogLevel("", out));
}

TEST(LoggingTest, RcLogMacroRespectsThreshold)
{
    LogLevelGuard guard;
    setLogLevel(LogLevel::warn);
    // The message expression must not be evaluated when disabled.
    bool touched = false;
    const auto make = [&] {
        touched = true;
        return std::string("dbg");
    };
    RC_LOG(debug, make());
    EXPECT_FALSE(touched);
    testing::internal::CaptureStderr();
    RC_LOG(warn, "visible");
    RC_LOG(info, "hidden");
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: visible"), std::string::npos);
    EXPECT_EQ(err.find("hidden"), std::string::npos);
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(rc_panic("boom"), "panic: boom");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(rc_fatal("bad config"),
                testing::ExitedWithCode(1), "fatal: bad config");
}

TEST(LoggingDeathTest, AssertFiresOnFalse)
{
    EXPECT_DEATH(rc_assert(1 == 2), "assertion failed");
}

TEST(LoggingTest, AssertPassesOnTrue)
{
    rc_assert(1 == 1); // must not abort
    SUCCEED();
}

} // namespace rcache
