/**
 * @file
 * Host hot-path sampling profiler with simulator-phase attribution.
 *
 * Everything the perf layer (obs/perf) measures is *aggregate* host
 * cost — host ms and simulated KIPS per run — and everything the
 * speculation profiler (obs/profile) attributes is *simulated* cost.
 * Neither says which host code burns the cycles, which is exactly what
 * a hot-path rewrite needs to aim and to prove itself.
 * This layer closes that gap with a self-contained, dependency-free
 * sampling profiler over the simulator's own execution:
 *
 *   - a per-thread POSIX interval timer
 *     (timer_create(CLOCK_THREAD_CPUTIME_ID) + SIGEV_THREAD_ID +
 *     SIGPROF) fires every --hotspot-interval milliseconds of *CPU
 *     time* the thread actually consumes — blocked threads cost no
 *     samples and add no noise;
 *   - the async-signal-safe handler captures backtrace(3) frames plus
 *     the thread's current HotspotPhase stack into a bounded
 *     per-thread sample buffer (lock-free slot claim, drop-counted
 *     when full — the tracer's ring discipline);
 *   - symbolization (dladdr + __cxa_demangle, /proc/self/maps
 *     fallback) happens offline in buildReport(), never in the
 *     handler.
 *
 * Because inlined hot loops defeat symbol-only attribution, the RAII
 * HotspotPhase marker annotates the simulator's phases directly:
 * fetch, tree_move, issue, resolve, copy_back, merge (+ other as the
 * explicit catch-all). The handler snapshots the marker stack, so
 * phase attribution is exact regardless of what the optimizer did to
 * the symbols, and nested markers give self-vs-total semantics:
 * a sample's *self* cost lands on the innermost open phase, its
 * *total* cost on every phase open at capture time, hence the
 * invariant  sum(self over all phases) + unattributed == samples  and
 * sum(child self) <= parent total for every nesting.
 *
 * Overhead discipline (the tracer's, applied again): the sampler is
 * off until a Session --hotspot* flag starts it and every marker
 * guards on one relaxed atomic load (hot loops may hoist even that
 * into a bool and use the pre-checked constructor). With the sampler
 * on, the marker cost is a couple of relaxed stores and the handler
 * costs ~1-2us per sample at the default 2ms CPU-time interval — well
 * under the documented <=3% wall-clock budget.
 *
 * Signal-safety rules the implementation must keep (tested under
 * ASan/TSan in tests/test_hotspot.cc):
 *   - the handler touches only the ThreadState it is handed via
 *     sigev_value (lock-free atomics + its preallocated buffer) — no
 *     locks, no allocation, no streams;
 *   - backtrace(3) is primed once at start() (its first call may
 *     dlopen libgcc, which allocates);
 *   - phase-stack entries are lock-free atomics, so even a stale
 *     in-flight signal racing thread teardown reads are well-defined;
 *   - ThreadStates are pooled and never freed while the process
 *     lives: timer_delete() leaves pending-signal disposition
 *     unspecified, so a late signal must still find valid memory (it
 *     sees armed == false and leaves).
 *
 * Exposure: the run manifest's "hotspots" section is the one home of
 * the per-phase counts and shares (the stats registry mirrors none of
 * them), and foldedStacks() emits "host;<scope>.<phase>;sym;..;sym
 * count" lines dee_prof renders as a host-CPU flamegraph next to the
 * speculation one. Both are read once the sampler has stopped: no
 * count is kept while it runs beyond each thread's sample buffer.
 */

#ifndef DEE_OBS_HOTSPOT_HOTSPOT_HH
#define DEE_OBS_HOTSPOT_HOTSPOT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace dee::obs::hotspot
{

/**
 * The simulator-phase taxonomy. Scopes (the machine: "window",
 * "levo", "tree", "runner", "bench") are free-form interned strings;
 * phases are this closed enum so manifests and diffs line up across
 * machines.
 */
enum class Phase : std::uint8_t
{
    Fetch,    ///< fetch / coverage walk / window refill
    TreeMove, ///< DEE tree allocate + root move (SpecTree::deeGreedy)
    Issue,    ///< instruction timing + functional execution
    Resolve,  ///< branch resolution + squash
    CopyBack, ///< DEE copy-back of alternate state
    Merge,    ///< runner result merge into the process registry
    Other,    ///< explicit catch-all wrapper (run() glue)
};

constexpr std::size_t kNumPhases = 7;

/** Stable lower-case name ("fetch", "tree_move", ...). */
const char *phaseName(Phase phase);

/** Host frames kept per sample (deeper stacks are truncated). */
constexpr std::size_t kMaxFrames = 24;
/** Maximum live HotspotPhase nesting captured per sample. */
constexpr std::size_t kMaxPhaseDepth = 8;
/** Interned scope-name table size (overflow shares the last slot). */
constexpr std::size_t kMaxScopes = 16;

/** Packs one phase-stack entry: interned scope index + phase. */
constexpr std::uint16_t
packEntry(std::uint8_t scope_idx, Phase phase)
{
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(scope_idx) << 8) |
        static_cast<std::uint16_t>(phase));
}

constexpr std::uint8_t
entryScope(std::uint16_t entry)
{
    return static_cast<std::uint8_t>(entry >> 8);
}

constexpr Phase
entryPhase(std::uint16_t entry)
{
    return static_cast<Phase>(entry & 0xff);
}

/**
 * Interns @p scope (compared by content, cached by pointer) into the
 * global scope table and returns its index. When the table is full
 * the last slot is shared — a documented, bounded misattribution in
 * preference to any allocation on the marker path.
 */
std::uint8_t internScope(const char *scope);

/** Name of interned scope @p idx ("?" when never claimed). */
const char *scopeName(std::uint8_t idx);

/**
 * One captured sample, exactly as the signal handler wrote it.
 * Public so tests can synthesize workloads for buildReport().
 */
struct RawSample
{
    void *frames[kMaxFrames] = {}; ///< innermost first; may be empty
    std::uint16_t phaseStack[kMaxPhaseDepth] = {}; ///< packEntry()s
    std::uint8_t depth = 0;     ///< live phase nesting (0: unattributed)
    std::uint8_t numFrames = 0; ///< valid frames[] prefix
};

/** Per-"scope.phase" share of the captured samples. */
struct PhaseStat
{
    std::uint64_t self = 0;  ///< samples with this phase innermost
    std::uint64_t total = 0; ///< samples with it anywhere on the stack
    double pct = 0.0;        ///< total / report samples * 100
    double selfPct = 0.0;    ///< self / report samples * 100
};

/** Folded sample analysis — what manifests and gates consume. */
struct Report
{
    std::uint64_t totalSamples = 0; ///< samples captured in buffers
    std::uint64_t attributed = 0;   ///< samples with depth > 0
    std::uint64_t dropped = 0;      ///< samples lost to full buffers
    std::uint64_t threads = 0;      ///< per-thread timers that sampled
    double intervalMs = 0.0;        ///< configured CPU-time period

    /** "scope.phase" -> shares; self obeys the sum identity. */
    std::map<std::string, PhaseStat> phases;

    /** Folded host stacks ("host;scope.phase;sym;..;sym", count),
     *  heaviest first, truncated to the builder's maxStacks. */
    std::vector<std::pair<std::string, std::uint64_t>> topStacks;

    /** attributed / totalSamples * 100 (0 when no samples). */
    double attributedPct() const;

    /** The manifest "hotspots" payload for this report. */
    Json toJson() const;

    /** Aligned per-phase share table (stats dumps, perf_microbench). */
    std::string renderTable() const;

    /** The topStacks as flamegraph folded-stack lines. */
    std::string foldedStacks() const;
};

/**
 * Folds raw samples into a Report: per-phase self/total shares, the
 * attribution identity, and (when @p symbolize) folded host stacks
 * via dladdr/demangle with a /proc/self/maps module fallback. Pure
 * aside from symbol lookup, so tests drive it with synthetic samples
 * and assert exact counts.
 */
Report buildReport(const std::vector<RawSample> &samples,
                   std::uint64_t dropped, std::uint64_t threads,
                   double intervalMs, bool symbolize,
                   std::size_t maxStacks = 50);

/** Sampler configuration (Session fills it from --hotspot* flags). */
struct Options
{
    double intervalMs = 2.0;      ///< CPU-time sampling period
    std::size_t ringCapacity = 16384; ///< samples kept per thread
};

/**
 * The process-wide sampling profiler. One per process (like
 * Tracer::process()); tools start it through Session, threads
 * self-register the first time they open a HotspotPhase while it is
 * active, stop() folds every thread's samples into a cached Report.
 */
class Sampler
{
  public:
    static Sampler &process();

    /** True when the platform can sample (Linux/glibc timers). */
    static bool supported();

    Sampler() = default;
    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Installs the SIGPROF handler, primes backtrace, registers the
     * calling thread and arms its timer. Returns false — with a
     * warning, without side effects — when the interval is not a
     * finite number > 0, or when unsupported or already running.
     */
    bool start(const Options &options);

    /**
     * Disarms every thread timer, waits out in-flight handlers, folds
     * all per-thread buffers into the collected sample set and
     * refreshes the cached report. Idempotent.
     */
    void stop();

    /** One relaxed atomic load; every marker guards on this. */
    bool active() const;

    /** True if start() ever succeeded in this process. */
    bool everStarted() const;

    /**
     * The folded report of the most recent start()/stop() cycle.
     * Empty (all zeros) before the first stop().
     */
    const Report &report() const;

    /**
     * The manifest "hotspots" section: the last stopped report's
     * Report::toJson(), or {"enabled": false} when the sampler never
     * ran. Written after stop(), like report().
     */
    Json sectionJson() const;

    const Options &options() const { return options_; }

  private:
    Options options_;
};

namespace detail
{

/** The marker gate: set by start(), cleared by stop(). */
extern std::atomic<bool> g_active;

/** Out-of-line slow paths; only called while the sampler is on. */
void pushPhase(const char *scope, Phase phase);
void popPhase();

} // namespace detail

/**
 * RAII phase marker. Construction while the sampler is active pushes
 * (scope, phase) onto the thread's marker stack (and lazily registers
 * the thread's timer); destruction pops. While the sampler is off the
 * cost is one relaxed atomic load — or literally nothing with the
 * pre-checked-bool constructor, for per-iteration hot loops that
 * hoist the active() check the way they already hoist the tracing and
 * accounting flags. @p scope must outlive the sampler (pass string
 * literals).
 */
class HotspotPhase
{
  public:
    HotspotPhase(const char *scope, Phase phase)
    {
        if (detail::g_active.load(std::memory_order_relaxed)) {
            detail::pushPhase(scope, phase);
            pushed_ = true;
        }
    }

    /** Hot-loop variant: @p enabled is the caller's hoisted
     *  Sampler::process().active() snapshot. */
    HotspotPhase(bool enabled, const char *scope, Phase phase)
    {
        if (enabled &&
            detail::g_active.load(std::memory_order_relaxed)) {
            detail::pushPhase(scope, phase);
            pushed_ = true;
        }
    }

    HotspotPhase(const HotspotPhase &) = delete;
    HotspotPhase &operator=(const HotspotPhase &) = delete;

    ~HotspotPhase()
    {
        if (pushed_)
            detail::popPhase();
    }

  private:
    bool pushed_ = false;
};

} // namespace dee::obs::hotspot

#endif // DEE_OBS_HOTSPOT_HOTSPOT_HH
