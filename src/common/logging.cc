#include "common/logging.hh"

#include <cstdio>
#include <cstring>

namespace dee
{

namespace
{

LogLevel
levelFromEnv()
{
    const char *env = std::getenv("DEE_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Info;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "error") == 0 ||
        std::strcmp(env, "quiet") == 0) {
        return LogLevel::Error;
    }
    // "info", "", and anything unrecognized: print everything.
    return LogLevel::Info;
}

} // namespace

LogLevel
logLevel()
{
    static const LogLevel level = levelFromEnv();
    return level;
}

namespace detail
{

void
logMessage(const char *prefix, const std::string &msg, const char *file,
           int line)
{
    std::fprintf(stderr, "%s: %s (at %s:%d)\n", prefix, msg.c_str(), file,
                 line);
    std::fflush(stderr);
}

void
panicImpl(const std::string &msg, const char *file, int line)
{
    logMessage("panic", msg, file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    logMessage("fatal", msg, file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg, const char *file, int line)
{
    if (logLevel() > LogLevel::Warn)
        return;
    logMessage("warn", msg, file, line);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() > LogLevel::Info)
        return;
    std::fprintf(stderr, "info: %s\n", msg.c_str());
    std::fflush(stderr);
}

} // namespace detail
} // namespace dee
