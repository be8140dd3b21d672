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
 *
 * Long chains without route B. Let G be the trace's longest walk: the
 * most paths a walk from any root r can step across, max over r of
 * min(u(r), numPaths - 1) - r, u(r) the first path at or after r that
 * no walk crosses (a mispredicted branch, or the branchless last path).
 * A chain of length L covers from root r the paths up to
 * min(u(r), r + L, numPaths - 1), so every chain with L >= G fetches
 * each path when the chain of length G does. A plain (non-CD) run
 * reads the tree only through those fetch times, through the E_T reach
 * of route B, which it does not take, and through the resolve-depth
 * histogram, which is maxDepth + 1 long. So without resolve stats a
 * plain run on such a chain is the run on the chain of length G, and
 * runKey() keys it as that chain. The CD models' route B reads E_T
 * itself, and a confidence-gated walk crosses mispredicts, so their
 * chains keep their own length.
 */

#include "core/sim/forward_pass.hh"

#include <algorithm>
#include <type_traits>
#include <typeinfo>

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

const TwoBitPredictor *
cacheableTwoBit(const BranchPredictor &predictor, const Trace &trace)
{
    if (typeid(predictor) != typeid(TwoBitPredictor))
        return nullptr;
    const auto &twobit = static_cast<const TwoBitPredictor &>(predictor);
    return twobit.numStatic() >= trace.numStatic ? &twobit : nullptr;
}

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
    // Walks from the roots between two uncrossable paths all stop at
    // the second one, so the one after the first goes furthest.
    const std::uint64_t num_paths = prep.numPaths();
    for (std::uint64_t r = 0; r < num_paths;) {
        const std::uint64_t stop = std::min<std::uint64_t>(
            twoBit_.mispredicts.nextSet(r), prep.numBranches());
        longestWalk_ =
            std::max(longestWalk_, std::min(stop, num_paths - 1) - r);
        r = stop + 1;
    }
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
       const std::vector<std::uint32_t> &join_idx,
       std::uint64_t longest_walk)
{
    // Each field is named, so a field added to SimConfig, LatencyModel
    // or ConfidenceDee stops this from compiling until the key takes
    // it. The profile names only label what a profiled run records.
    const auto &[cd, penalty, latency, resolve_stats, issue_stats,
                 accounting, profile_scope, profile_workload,
                 profile_model, pe_limit, reach_override, load_latencies,
                 confidence] = config;
    (void)profile_scope;
    (void)profile_workload;
    (void)profile_model;
    const auto &[int_alu, load, store, branch, other] = latency;
    const auto &[accuracy, threshold, side_len] = confidence;

    std::string key;
    appendBytes(key, cd, penalty, int_alu, load, store, branch, other,
                resolve_stats, issue_stats, accounting, pe_limit,
                reach_override, load_latencies, accuracy, threshold,
                side_len, &join_idx);
    // A chain (predicted edges only, from the origin through every
    // node) is keyed by its length; a plain run without resolve stats
    // or confidence gating (whose walks cross mispredicts) on one
    // longer than the longest walk, as the longest walk's chain.
    const auto num_paths = static_cast<std::uint64_t>(tree.numPaths());
    std::uint64_t length = 0;
    bool chain = true;
    for (int id = SpecTree::kOrigin; length <= num_paths;) {
        const TreeNode &node = tree.node(id);
        chain = chain && node.npredChild == kNoNode;
        if (node.predChild == kNoNode)
            break;
        id = node.predChild;
        ++length;
    }
    if (chain && length == num_paths) {
        if (cd == CdModel::Restrictive && !resolve_stats &&
            accuracy == nullptr)
            length = std::min(length, longest_walk);
        key += 'c';
        appendBytes(key, length);
        return key;
    }
    key += 'n';
    for (int id = SpecTree::kOrigin; id <= tree.numPaths(); ++id) {
        const TreeNode &node = tree.node(id);
        appendBytes(key, node.predChild, node.npredChild);
    }
    return key;
}

} // namespace dee::sim_detail
