/**
 * @file
 * Cycle-level event tracer with a bounded ring buffer.
 *
 * Simulators emit instant ('i'), counter ('C') and complete ('X')
 * events keyed by *simulated cycle* timestamps; the buffer is dumped as
 * JSON-Lines where each line is one Chrome trace_event object, so the
 * stream loads directly in chrome://tracing or Perfetto (wrap the lines
 * in "[...]"/commas, or use `--trace-out` which emits the array form's
 * newline-delimited equivalent accepted by Perfetto's JSON importer).
 *
 * Overhead discipline: tracing must cost nothing when off. The
 * dee_trace_event() macro guards on Tracer::enabled(), a single
 * predictable branch on a bool; no arguments are evaluated when
 * disabled. Hoist `obs::Tracer &tr = obs::Tracer::global();` out of
 * hot loops.
 *
 * Event name and argument-name strings are NOT copied: pass string
 * literals (or strings that outlive the tracer).
 *
 * The ring keeps the most recent `capacity` events; older ones are
 * counted in dropped() and discarded.
 */

#ifndef DEE_OBS_TRACE_EVENT_HH
#define DEE_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dee::obs
{

/** One trace_event record; see file comment for lifetime rules. */
struct TraceEvent
{
    const char *name = "";
    char phase = 'i';       ///< 'i' instant, 'C' counter, 'X' complete
    std::int64_t ts = 0;    ///< simulated cycle (trace "microseconds")
    std::int64_t dur = 0;   ///< 'X' only
    std::uint32_t tid = 0;  ///< lane (e.g. DEE path index)
    const char *arg1Name = nullptr;
    std::int64_t arg1 = 0;
    const char *arg2Name = nullptr;
    std::int64_t arg2 = 0;
};

/** Bounded-ring event sink, normally used via global(). */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    /** The calling thread's tracer: the thread-local override when a
     *  parallel-runner cell installed one (setCurrent()), else the
     *  process-wide instance. */
    static Tracer &global();

    /** The process-wide instance, ignoring thread-local overrides
     *  (what Session writes at exit; the cell-merge target). */
    static Tracer &process();

    /** Installs @p tracer (null to clear) as the calling thread's
     *  global() override; returns the previous override. Prefer the
     *  RAII obs::IsolationScope. */
    static Tracer *setCurrent(Tracer *tracer);

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    /** Starts recording (reserves the ring; it is filled on use). */
    void enable();
    void disable();
    bool enabled() const { return enabled_; }

    /** Resizes the ring; discards buffered events. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    void
    record(const char *name, char phase, std::int64_t ts,
           const char *arg1_name = nullptr, std::int64_t arg1 = 0,
           const char *arg2_name = nullptr, std::int64_t arg2 = 0,
           std::uint32_t tid = 0, std::int64_t dur = 0)
    {
        // The ring grows as it fills (enable() reserved its capacity),
        // so a tracer that records little touches little memory.
        if (head_ == ring_.size())
            ring_.emplace_back();
        TraceEvent &e = ring_[head_];
        e.name = name;
        e.phase = phase;
        e.ts = ts;
        e.dur = dur;
        e.tid = tid;
        e.arg1Name = arg1_name;
        e.arg1 = arg1;
        e.arg2Name = arg2_name;
        e.arg2 = arg2;
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
        if (count_ < capacity_)
            ++count_;
        else
            ++dropped_;
        ++recorded_;
    }

    /** Events currently buffered (<= capacity). */
    std::size_t size() const { return count_; }
    /** Events ever recorded, including dropped ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events pushed out of the ring (or discarded by clear()). */
    std::uint64_t dropped() const { return dropped_; }

    /** i-th buffered event, oldest first. */
    const TraceEvent &event(std::size_t i) const;

    /** Forgets buffered events (capacity and enablement unchanged). */
    void clear();

    /**
     * Stitches @p other's ring onto this one: replays @p other's
     * buffered events oldest-first (they are already in timestamp
     * order within a run — simulators emit monotonically), then folds
     * its drop count in, so recorded()/dropped() equal what one shared
     * ring would have seen. Merging per-cell rings in grid order is
     * therefore byte-equivalent to the serial single-ring run, as long
     * as per-cell capacity >= this capacity (each ring then still
     * holds a long-enough suffix of its own stream).
     */
    void mergeFrom(const Tracer &other);

    /** One JSON object per line, oldest first. */
    void writeJsonLines(std::ostream &os) const;

    /** writeJsonLines() to a file; fatal if unwritable. */
    void writeFile(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<TraceEvent> ring_;
};

} // namespace dee::obs

/**
 * Records an event iff @p tracer is enabled; arguments after the tracer
 * are forwarded to Tracer::record and not evaluated when disabled.
 */
#define dee_trace_event(tracer, ...) \
    do { \
        if ((tracer).enabled()) \
            (tracer).record(__VA_ARGS__); \
    } while (0)
/**
 * Like dee_trace_event() but guarded by a caller-supplied boolean —
 * hoist `const bool tracing = tracer.enabled();` once per run and use
 * this in hot loops so unoptimized builds pay a local test, not a
 * member call, per site. (Enablement cannot change mid-run: the
 * Session enables tracing before the simulators start.)
 */
#define dee_trace_event_if(flag, tracer, ...) \
    do { \
        if (flag) \
            (tracer).record(__VA_ARGS__); \
    } while (0)

#endif // DEE_OBS_TRACE_EVENT_HH
