/**
 * @file
 * Hierarchical statistics registry (gem5-stats flavored).
 *
 * Simulators and benches register named quantities under dotted paths
 * ("sim.window.peak_issue", "levo.copybacks", "bpred.2bit.mispredicts")
 * and the whole tree can be dumped as an aligned text table or as a
 * nested JSON document for run manifests.
 *
 * Two kinds of entry are supported, both of which merge exactly:
 *   - counter: a std::uint64_t (merges by addition)
 *   - stat:    a RunningStat (count/mean/min/max/stddev; merges by
 *              replaying its logged samples)
 *
 * A ratio of two entries (a waste fraction, a throughput) is not an
 * entry: whatever displays it computes it from the entries it divides.
 *
 * The first access at a path creates the entry; later accesses return
 * the same object. Accessing a path as a different kind, or creating a
 * path that is a dotted prefix of an existing leaf (or vice versa), is
 * a fatal naming error — the hierarchy must stay a tree.
 *
 * Each registry instance is intentionally single-threaded, like the
 * simulators that feed it. Parallel sweeps (src/runner) give every
 * worker its own private Registry by redirecting global() through a
 * thread-local override (see setCurrent()/obs/isolate.hh) and merge
 * the per-cell registries back into the process instance in a
 * deterministic grid order once the cells have finished.
 */

#ifndef DEE_OBS_REGISTRY_HH
#define DEE_OBS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/json.hh"

namespace dee::obs
{

/** Named-stat tree; see file comment for the path rules. */
class Registry
{
  public:
    /**
     * The registry the calling thread should publish into: the
     * thread-local override installed by setCurrent() when one is
     * active (a parallel-runner cell), else the process-wide
     * instance. Simulators always publish through here, so they need
     * no knowledge of whether they run serially or as a cell.
     */
    static Registry &global();

    /** The process-wide instance, ignoring any thread-local override
     *  (merge target; what Sessions snapshot at exit). */
    static Registry &process();

    /**
     * Installs @p registry (may be null to clear) as the calling
     * thread's global() override and returns the previous override.
     * Prefer the RAII obs::IsolationScope over calling this directly.
     */
    static Registry *setCurrent(Registry *registry);

    /** Returns the counter at @p path, creating it at zero. */
    std::uint64_t &counter(const std::string &path);

    /** Returns the RunningStat at @p path, creating it empty. */
    RunningStat &stat(const std::string &path);

    bool contains(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** Drops every entry (references become dangling). */
    void clear() { entries_.clear(); }

    /**
     * Every stat created after this call keeps a per-sample replay log
     * (RunningStat::enableSampleLog()), making merge() of this
     * registry into another bit-exact. Cell registries turn this on;
     * the process registry never does.
     */
    void logStatSamples() { logStatSamples_ = true; }

    /**
     * Folds @p other into this registry: counters add, and stats
     * merge (exact replay when @p other logs samples). Kind or
     * tree-shape conflicts are fatal.
     */
    void merge(const Registry &other);

    /** All leaf paths in sorted order. */
    std::vector<std::string> paths() const;

    /** Read-only typed lookups; null when absent or of another kind. */
    const std::uint64_t *findCounter(const std::string &path) const;
    const RunningStat *findStat(const std::string &path) const;

    /** Aligned "path  value" table. */
    std::string renderText() const;

    /** Nested-object dump: "a.b.c" becomes {"a":{"b":{"c":...}}}. */
    Json toJson() const;

  private:
    struct Entry
    {
        enum class Kind
        {
            Counter,
            Stat,
        };

        Kind kind;
        std::uint64_t counter = 0;
        RunningStat stat;
    };

    static const char *kindName(Entry::Kind kind);

    /** Validates the path, checks tree-shape and kind conflicts, and
     *  returns the (possibly new) entry. */
    Entry &resolve(const std::string &path, Entry::Kind kind);

    const Entry *findEntry(const std::string &path,
                           Entry::Kind kind) const;

    std::map<std::string, Entry> entries_;
    bool logStatSamples_ = false;
};

} // namespace dee::obs

#endif // DEE_OBS_REGISTRY_HH
