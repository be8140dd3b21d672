/**
 * @file
 * Streaming telemetry: a background sampler over the running process.
 *
 * The manifest is end-of-run output; telemetry records how a run got
 * there. A sampler thread wakes every --telemetry-interval
 * milliseconds (default 250) and takes one sample of every live
 * metric:
 *
 *   cells.done / cells.total    sweep progress (runner::runCells)
 *   cells.eta_s                 remaining-time estimate from the rate
 *   sim.instructions            simulated instructions (Heartbeat fed)
 *   sim.kips                    instantaneous simulated KIPS
 *   host.rss_kb                 live resident set (/proc/self/status)
 *   hot.<scope>.<phase>         host hot-phase self shares (--hotspots)
 *   runner.worker.<i>.util      live per-worker busy fraction
 *   runner.worker.<i>.tasks/.steals  cumulative pool tallies
 *
 * Each sample lands in two places:
 *   --telemetry-out PATH    append-only JSONL event stream (schema
 *                           dee.telemetry.v1: one "start" record, one
 *                           "sample" per tick, one "finish" summary),
 *                           rendered after the run by
 *                           `dee_top --replay`
 *   the manifest            per-series count/min/max/last
 *                           (summaryJson(), the "telemetry" section)
 *
 * Threading / determinism contract. Simulators never talk to the Hub;
 * they keep publishing into their (possibly cell-local) Registry. The
 * sampler reads no registry. It reads four things, each safe from any
 * thread: the hook atomics (runner::runCells reports cell starts and
 * completions, Heartbeat adds instruction progress), /proc/self/status,
 * the hotspot sampler's lock-free live table, and the sources
 * registered with addSource() (runCells' per-worker pool tallies).
 * Sampling therefore never blocks or perturbs a sweep, and simulated
 * results stay a pure function of the cell.
 *
 * The Hub is off until a Session --telemetry* flag starts it; while
 * off, every producer hook is one relaxed atomic load.
 */

#ifndef DEE_OBS_TELEMETRY_TELEMETRY_HH
#define DEE_OBS_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace dee::obs::telemetry
{

/**
 * One series: the running count/min/max/last of every value added.
 * Each point is written to the JSONL stream when it is taken, so the
 * summary is all the Hub keeps. Not internally synchronized: the Hub
 * serializes access.
 */
struct SeriesSummary
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;

    void add(double value);
    /** {"count", "min", "max", "last"}: the stream's "finish" record,
     *  the manifest section and dee_top --once all use this form. */
    Json toJson() const;
};

/** Hub configuration (Session fills it from the --telemetry* flags). */
struct Options
{
    double intervalMs = 250.0; ///< sampler period
    std::string jsonlPath;     ///< empty: no JSONL stream
    std::string tool;          ///< emitting binary, for headers
};

/**
 * The process-wide telemetry hub: owns the sampler thread, the series
 * summaries and the optional JSONL stream. One per process (like
 * Tracer::process()); tools start it through Session.
 */
class Hub
{
  public:
    static Hub &process();

    Hub();
    ~Hub();
    Hub(const Hub &) = delete;
    Hub &operator=(const Hub &) = delete;

    /**
     * Spawns the sampler. Returns false — with a warning, without side
     * effects — when the hub is already running or the interval is not
     * a finite number > 0.
     */
    bool start(const Options &options);

    /** Takes a final sample, writes the JSONL "finish" record and
     *  joins the sampler. Idempotent. */
    void stop();

    /** One relaxed atomic load; every producer hook guards on this. */
    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    // ---- producer hooks (all no-ops unless active()) ----------------

    /** A sweep of @p n cells is starting (runner::runCells). */
    void addCells(std::uint64_t n);
    /** One cell finished (merge side, any --jobs). */
    void cellDone();
    /** @p n more simulated instructions retired (Heartbeat::tick). */
    void addInstructions(std::uint64_t n);

    /**
     * Registers a per-tick source: @p fn is called by the sampler each
     * tick and fills (series name -> value) into the map it is handed.
     * Returns an id for removeSource(). The callback must be
     * internally thread-safe; it runs on the sampler thread.
     */
    std::uint64_t addSource(
        std::function<void(std::map<std::string, double> &)> fn);
    void removeSource(std::uint64_t id);

    // ---- consumer surface -------------------------------------------

    /** Sampler ticks taken so far. */
    std::uint64_t samples() const;

    /** Milliseconds since start() (0 when never started). */
    double elapsedMs() const;

    /**
     * The manifest "telemetry" section: {"enabled", "interval_ms",
     * "samples", "series": {name: {count,min,max,last}}}. When the hub
     * never ran, just {"enabled": false}.
     */
    Json summaryJson() const;

  private:
    void samplerLoop();
    /** One sampler tick (sampler thread, then stop()'s final tick). */
    void tick();
    void writeJsonlLine(const std::string &line);
    /** {name: {count,min,max,last}}; caller holds dataMutex_. */
    Json seriesJsonLocked() const;

    Options options_;
    std::atomic<bool> active_{false};
    bool everStarted_ = false;

    std::thread sampler_;
    std::mutex wakeMutex_;
    std::condition_variable wake_;
    bool stopRequested_ = false;

    // Progress atomics fed by the hooks.
    std::atomic<std::uint64_t> cellsTotal_{0};
    std::atomic<std::uint64_t> cellsDone_{0};
    std::atomic<std::uint64_t> instructions_{0};

    /** Last tick's clock/instruction readings for instantaneous KIPS;
     *  touched only by the sampler thread and the post-join final
     *  tick, never concurrently. */
    double prevTickMs_ = 0.0;
    std::uint64_t prevInstructions_ = 0;

    mutable std::mutex dataMutex_;
    std::map<std::string, SeriesSummary> series_;
    std::uint64_t ticks_ = 0;

    std::mutex sourceMutex_;
    std::uint64_t nextSourceId_ = 1;
    std::vector<std::pair<
        std::uint64_t,
        std::function<void(std::map<std::string, double> &)>>>
        sources_;

    std::mutex jsonlMutex_;
    /** FILE* kept as void* so <cstdio> stays out of the header. */
    void *jsonl_ = nullptr;

    std::chrono::steady_clock::time_point start_;
};

/** Live VmRSS of this process in KiB (0 when /proc is unavailable). */
std::uint64_t currentRssKb();

} // namespace dee::obs::telemetry

#endif // DEE_OBS_TELEMETRY_TELEMETRY_HH
