/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic convention.
 *
 * panic(): a condition that should never happen regardless of user input,
 *          i.e. an internal bug. Calls std::abort().
 * fatal(): the run cannot continue because of a user-level problem (bad
 *          configuration, invalid arguments). Calls std::exit(1).
 * warn()/inform(): non-fatal status messages to stderr.
 *
 * Verbosity is controlled by the DEE_LOG_LEVEL environment variable so
 * binaries that emit machine-readable streams (--json / --trace-out
 * runs) can keep stderr clean:
 *   DEE_LOG_LEVEL=info   (default) everything prints
 *   DEE_LOG_LEVEL=warn   inform() suppressed
 *   DEE_LOG_LEVEL=error  inform() and warn() suppressed
 * panic() and fatal() always print. Unknown values fall back to info.
 */

#ifndef DEE_COMMON_LOGGING_HH
#define DEE_COMMON_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace dee
{

/** Minimum severity that still prints; see file comment. */
enum class LogLevel
{
    Info = 0,
    Warn = 1,
    Error = 2,
};

/** Current level (reads DEE_LOG_LEVEL once, on first use). */
LogLevel logLevel();

namespace detail
{

/** Formats "<prefix>: <msg> (at <file>:<line>)" and writes it to stderr. */
void logMessage(const char *prefix, const std::string &msg,
                const char *file, int line);

/** Appends each argument to an ostringstream; the printf-free formatter. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg, const char *file, int line);
void informImpl(const std::string &msg);

} // namespace detail

} // namespace dee

/** Internal invariant violated: report and abort. */
#define dee_panic(...) \
    ::dee::detail::panicImpl(::dee::detail::concat(__VA_ARGS__), __FILE__, \
                             __LINE__)

/** Unrecoverable user-level error: report and exit(1). */
#define dee_fatal(...) \
    ::dee::detail::fatalImpl(::dee::detail::concat(__VA_ARGS__), __FILE__, \
                             __LINE__)

/** Suspicious but survivable condition. */
#define dee_warn(...) \
    ::dee::detail::warnImpl(::dee::detail::concat(__VA_ARGS__), __FILE__, \
                            __LINE__)

/** Plain status message. */
#define dee_inform(...) \
    ::dee::detail::informImpl(::dee::detail::concat(__VA_ARGS__))

/** Panic unless an internal invariant holds. */
#define dee_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            dee_panic("assertion '", #cond, "' failed. ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // DEE_COMMON_LOGGING_HH
