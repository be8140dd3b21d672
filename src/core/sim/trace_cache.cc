/**
 * @file
 * SimTraceCache and runKey() (declared in forward_pass.hh): what the
 * window simulator keeps per trace, and the key that decides when two
 * runs on a trace's 2-bit outcomes are the same run.
 *
 * Exactness of the memo. A window run is a function of the trace, the
 * predictor outcomes, the tree, the SimConfig, the route-B join table,
 * the kernel, and three switches that only add outputs: tracing,
 * profiling and the hotspot sampler. A run the memo serves reads the
 * trace's own 2-bit outcomes (one per trace) on the fast kernel, with
 * tracing and profiling off; the sampler records host samples only.
 * runKey() covers the rest. The kernel reads the tree through its
 * child links (cumulative probabilities and ranks only when
 * profiling), and the Cfg only through its join table, which the view
 * keeps for as long as the memo lives. So equal keys mean equal
 * SimResults, and publishWindowRun() makes equal registry writes of
 * them. The static DEE tree at or below log_p(1-p) is SP's chain, so
 * such a DEE cell takes the SP cell's run (or the other way round).
 */

#include "core/sim/forward_pass.hh"

#include <type_traits>

#include "common/logging.hh"

namespace dee::sim_detail
{

namespace
{

/** Appends the bytes of each of @p values to @p key. */
template <typename... T>
void
appendBytes(std::string &key, const T &...values)
{
    static_assert((std::is_trivially_copyable_v<T> && ...));
    (key.append(reinterpret_cast<const char *>(&values), sizeof values),
     ...);
}

} // namespace

SimTraceCache &
SimTraceCache::of(const Trace &trace, const TwoBitPredictor &twobit)
{
    PreparedTrace::Attachment &attached = trace.prepared().attachment(
        [&] { return std::make_unique<SimTraceCache>(trace, twobit); });
    auto *const cache = dynamic_cast<SimTraceCache *>(&attached);
    dee_assert(cache != nullptr,
               "the trace's attachment is not a SimTraceCache");
    return *cache;
}

SimTraceCache::SimTraceCache(const Trace &trace,
                             const TwoBitPredictor &twobit)
    : confidence_(trace.numStatic)
{
    const std::unique_ptr<BranchPredictor> probe = twobit.clone();
    twoBit_ = predictPaths(trace, *probe);
    const PreparedTrace &prep = trace.prepared();
    for (std::uint64_t k = 0; k < prep.numBranches(); ++k)
        confidence_.record(prep.exit(k).sid, !twoBit_.mispredicts.test(k));
}

std::optional<SimResult>
SimTraceCache::find(const std::string &key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = runs_.find(key);
    if (it == runs_.end())
        return std::nullopt;
    ++hits_;
    return it->second;
}

void
SimTraceCache::remember(std::string key, const SimResult &result)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    runs_.try_emplace(std::move(key), result);
}

std::uint64_t
SimTraceCache::hits() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::string
runKey(const SpecTree &tree, const SimConfig &config,
       const std::vector<DynIndex> &join_idx)
{
    // Each field is named, so a field added to SimConfig, LatencyModel
    // or ConfidenceDee stops this from compiling until the key takes
    // it. The profile names only label what a profiled run records.
    const auto &[cd, penalty, latency, resolve_stats, issue_stats,
                 accounting, profile, profile_scope, profile_workload,
                 profile_model, pe_limit, reach_override, load_latencies,
                 confidence] = config;
    (void)profile_scope;
    (void)profile_workload;
    (void)profile_model;
    const auto &[int_alu, load, store, branch, other] = latency;
    const auto &[accuracy, threshold, side_len] = confidence;

    std::string key;
    appendBytes(key, cd, penalty, int_alu, load, store, branch, other,
                resolve_stats, issue_stats, accounting, profile,
                pe_limit, reach_override, load_latencies, accuracy,
                threshold, side_len, &join_idx);
    for (int id = SpecTree::kOrigin; id <= tree.numPaths(); ++id) {
        const TreeNode &node = tree.node(id);
        appendBytes(key, node.predChild, node.npredChild);
    }
    return key;
}

} // namespace dee::sim_detail
