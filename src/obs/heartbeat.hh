/**
 * @file
 * Progress heartbeat for long bench runs.
 *
 * fig5_speedups at scale > 1 (and headline_claims) can run for
 * minutes with no output, which reads as a hang in CI logs. Heartbeat
 * prints a one-line rate/ETA progress report to stderr, rate-limited
 * to one line every few seconds of wall clock, and is silenced under
 * --json (machine consumers must see only the manifest on stdout, and
 * quiet CI logs stay diffable).
 *
 * Heartbeat is the run's only progress instrument, with its own
 * clock. Nothing records its line: the totals behind it (simulated
 * instructions, host time per run, cells) are reported once at the
 * end of the run under stats.perf and stats.runner.
 */

#ifndef DEE_OBS_HEARTBEAT_HH
#define DEE_OBS_HEARTBEAT_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace dee::obs
{

/** Rate/ETA progress line, emitted to stderr at most every few
 *  seconds. Unit-agnostic: callers tick() whatever they count
 *  (instances, models, million cycles). Thread-safe: one Heartbeat
 *  can aggregate progress from every worker of a parallel sweep
 *  (src/runner), ticks serialized by an internal mutex. */
class Heartbeat
{
  public:
    /**
     * @param label prefix of every line, e.g. "fig5_speedups".
     * @param enabled when false, tick() never prints (the --json
     *        case); the counters stay live.
     * @param min_interval_s minimum seconds between emitted lines.
     */
    explicit Heartbeat(std::string label, bool enabled = true,
                       double min_interval_s = 2.0);

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Declares the expected total unit count (enables ETA). */
    void setTotal(std::uint64_t total) { total_ = total; }

    /** Advances progress; emits a line when due. */
    void tick(std::uint64_t units = 1);

    /**
     * tick(units) that also accounts @p instructions simulated
     * instructions, so the status line carries current simulated-KIPS
     * (thousand instructions per wall second) next to the unit rate.
     */
    void tick(std::uint64_t units, std::uint64_t instructions);

    /** Emits a final summary line regardless of rate limiting. */
    void finish();

    std::uint64_t
    done() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return done_;
    }

    /** The line tick() would print now (without the trailing newline);
     *  exposed so tests need not capture stderr. */
    std::string statusLine() const;

  private:
    /** statusLine() body; caller holds mutex_. */
    std::string statusLineLocked() const;

    std::string label_;
    bool enabled_;
    double minIntervalS_;
    std::uint64_t total_ = 0;
    std::uint64_t done_ = 0;
    std::uint64_t instructions_ = 0;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastEmit_;
    mutable std::mutex mutex_;
};

} // namespace dee::obs

#endif // DEE_OBS_HEARTBEAT_HH
