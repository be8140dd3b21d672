/**
 * @file
 * Live streaming telemetry: a background sampler over the running
 * process.
 *
 * Everything the observability stack produced before this layer is
 * end-of-run snapshot output — a multi-hour sweep is a black box until
 * it finishes. The telemetry Hub makes an in-flight run inspectable:
 * a sampler thread wakes every --telemetry-interval milliseconds
 * (default 250) and records one time-series sample per live metric
 * into per-metric ring buffers (Series):
 *
 *   cells.done / cells.total    sweep progress (runner::runCells)
 *   cells.eta_s                 remaining-time estimate from the rate
 *   sim.instructions            simulated instructions (Heartbeat fed)
 *   sim.kips                    instantaneous simulated KIPS
 *   host.rss_kb                 live resident set (/proc/self/status)
 *   acct.<class>                merged issue-slot class totals
 *   runner.worker.<i>.util      live per-worker busy fraction
 *   runner.worker.<i>.tasks/.steals  cumulative pool tallies
 *
 * Two consumers ride the sampler:
 *   --telemetry-out PATH    append-only JSONL event stream (schema
 *                           dee.telemetry.v1: one "start" record, one
 *                           "sample" per tick, one "finish" summary)
 *                           for offline plotting and CI artifacts
 *   --telemetry-socket PATH unix-domain-socket endpoint serving JSON
 *                           snapshots and series tails to concurrent
 *                           clients (stats_server.hh) — the live-stats
 *                           surface a dee_serve daemon will mount
 * plus tools/dee_top, a terminal dashboard over either.
 *
 * Threading / determinism contract. Simulators never talk to the Hub;
 * they keep publishing into their (possibly cell-local) Registry.
 * Producers feed the Hub only at well-defined synchronization points:
 * runner::runCells reports cell starts/completions and holds the Hub's
 * registry mutex while it mutates the *process* registry (per-cell
 * merges, and the whole serial run(i) when --jobs 1), and Heartbeat
 * adds instruction progress under its own mutex (it never touches the
 * registry). The sampler snapshots the acct subtree of the process
 * registry only under try_lock — when a producer holds the lock the
 * tick simply skips the registry-derived series — so sampling never
 * blocks or perturbs the sweep and never races the single-threaded
 * Registry. Simulated results are a pure function of the cell;
 * telemetry observes, it cannot steer.
 *
 * Overhead discipline (the tracer's, applied again): compile out with
 * -DDEE_OBS_TELEMETRY_ENABLED=0 and every hook folds to nothing; at
 * run time the Hub is off until a Session --telemetry-* flag starts
 * it, and every hook guards on one relaxed atomic load.
 */

#ifndef DEE_OBS_TELEMETRY_TELEMETRY_HH
#define DEE_OBS_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"

/** Compile-time master switch; on by default. */
#ifndef DEE_OBS_TELEMETRY_ENABLED
#define DEE_OBS_TELEMETRY_ENABLED 1
#endif

namespace dee::obs::telemetry
{

/** True when the layer is compiled in (DEE_OBS_TELEMETRY_ENABLED). */
constexpr bool
compiledIn()
{
    return DEE_OBS_TELEMETRY_ENABLED != 0;
}

/** One time-series point: milliseconds since Hub start, value. */
struct Sample
{
    double tMs = 0.0;
    double value = 0.0;
};

/** Running summary of one series (manifest + snapshot form). */
struct SeriesSummary
{
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
};

/**
 * Ring-buffered time series for one metric. Keeps the most recent
 * `capacity` samples plus an exact running count/min/max/last over
 * everything ever added (summaries never lose history to the ring).
 * Not internally synchronized: the Hub serializes access.
 */
class Series
{
  public:
    explicit Series(std::size_t capacity);

    void add(double t_ms, double value);

    /** Samples ever added (>= buffered()). */
    std::uint64_t count() const { return summary_.count; }
    /** Samples still in the ring. */
    std::size_t buffered() const { return size_; }
    const SeriesSummary &summary() const { return summary_; }

    /** The most recent min(n, buffered()) samples, oldest first. */
    std::vector<Sample> tail(std::size_t n) const;

  private:
    std::vector<Sample> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    SeriesSummary summary_;
};

/** Hub configuration (Session fills it from the --telemetry-* flags). */
struct Options
{
    double intervalMs = 250.0;      ///< sampler period
    std::size_t seriesCapacity = 4096; ///< ring slots per series
    std::string jsonlPath;          ///< empty: no JSONL stream
    std::string socketPath;         ///< empty: no socket endpoint
    std::string tool;               ///< emitting binary, for headers
};

class StatsServer;

/**
 * The process-wide telemetry hub: owns the sampler thread, the series
 * map, and the optional JSONL stream / socket endpoint. One per
 * process (like Tracer::process()); tools start it through Session.
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
     * Spawns the sampler (and socket server when configured). Returns
     * false — with a warning, without side effects — when telemetry is
     * compiled out or the hub is already running.
     */
    bool start(const Options &options);

    /** Takes a final sample, writes the JSONL "finish" record, joins
     *  the sampler and the server. Idempotent. */
    void stop();

    /** One relaxed atomic load; every producer hook guards on this. */
    bool
    active() const
    {
#if DEE_OBS_TELEMETRY_ENABLED
        return active_.load(std::memory_order_relaxed);
#else
        return false;
#endif
    }

    // ---- producer hooks (all no-ops unless active()) ----------------

    /** A sweep of @p n cells is starting (runner::runCells). */
    void addCells(std::uint64_t n);
    /** One cell finished (merge side, any --jobs). */
    void cellDone();
    /** @p n more simulated instructions retired (Heartbeat::tick). */
    void addInstructions(std::uint64_t n);

    /**
     * Serializes process-Registry/ProfileStore mutation against
     * sampler snapshots: runner::runCells holds it while merging cell
     * sinks (parallel) or running a cell in-place (serial); the
     * sampler only try_locks it.
     */
    std::mutex &registryMutex() { return registryMutex_; }

    /**
     * Registers a per-tick source: @p fn is called by the sampler each
     * tick and fills (series name -> value) into the map it is handed.
     * Returns an id for removeSource(). The callback must be
     * internally thread-safe; it runs on the sampler thread.
     */
    std::uint64_t addSource(
        std::function<void(std::map<std::string, double> &)> fn);
    void removeSource(std::uint64_t id);

    /**
     * Registers an emitter the sampler clock fires every tick —
     * Heartbeat progress lines ride this so stderr lines and telemetry
     * samples share one clock. Returns an id for removeEmitter().
     */
    std::uint64_t addEmitter(std::function<void()> fn);
    void removeEmitter(std::uint64_t id);

    /** Records one sample directly (tests, ad-hoc probes); dropped
     *  when inactive. */
    void record(const std::string &name, double value);

    // ---- consumer surface -------------------------------------------

    /** Sampler ticks taken so far. */
    std::uint64_t samples() const;

    /** Milliseconds since start() (0 when never started). */
    double elapsedMs() const;

    /**
     * Full live snapshot — the socket "snapshot" reply and dee_top's
     * input: schema/tool/progress, per-series summaries, top squashed
     * branch sites. Callable from any thread.
     */
    Json snapshotJson() const;

    /** The last min(n, buffered) samples of @p name (empty when the
     *  series does not exist). */
    std::vector<Sample> seriesTail(const std::string &name,
                                   std::size_t n) const;

    /**
     * The manifest "telemetry" section: {"enabled", "interval_ms",
     * "samples", "series": {name: {count,min,max,last}}}. When the hub
     * never ran, just {"enabled": false}.
     */
    Json summaryJson() const;

    const Options &options() const { return options_; }

  private:
    void samplerLoop();
    /** One sampler tick; @p final forces the registry snapshot lock. */
    void tick(bool final);
    void writeJsonlLine(const std::string &line);
    Json snapshotJsonLocked(double t_ms) const;

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

    std::mutex registryMutex_;

    /** Last tick's clock/instruction readings for instantaneous KIPS;
     *  touched only by the sampler thread and the post-join final
     *  tick, never concurrently. */
    double prevTickMs_ = 0.0;
    std::uint64_t prevInstructions_ = 0;

    // Series map + everything derived from it.
    mutable std::mutex dataMutex_;
    std::map<std::string, Series> series_;
    std::uint64_t ticks_ = 0;
    /** Top squashed-slot branch sites ("0x<pc>" -> slots), refreshed
     *  on ticks that win the registry try_lock. */
    std::vector<std::pair<std::string, std::uint64_t>> topSquashSites_;

    std::mutex sourceMutex_;
    std::uint64_t nextSourceId_ = 1;
    std::vector<std::pair<
        std::uint64_t,
        std::function<void(std::map<std::string, double> &)>>>
        sources_;
    std::vector<std::pair<std::uint64_t, std::function<void()>>>
        emitters_;

    std::mutex jsonlMutex_;
    /** FILE* kept as void* so <cstdio> stays out of the header. */
    void *jsonl_ = nullptr;

    std::unique_ptr<StatsServer> server_;
    std::chrono::steady_clock::time_point start_;
};

/** Live VmRSS of this process in KiB (0 when /proc is unavailable). */
std::uint64_t currentRssKb();

} // namespace dee::obs::telemetry

#endif // DEE_OBS_TELEMETRY_TELEMETRY_HH
