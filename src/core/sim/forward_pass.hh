/**
 * @file
 * Internal seam between the simulators and their kernels.
 *
 * WindowSim::run(), oracleSim() and runModel() are thin wrappers over
 * the entry points declared below. The first two also hold the run's
 * one host clock (obs/perf/perf.hh); runModelWith() holds its own and
 * calls runWindowWith() / oracleSimWith(), so no run is timed twice.
 * The entry points take the kernel as a plain function argument: a
 * window forward pass (ForwardKernel) and an oracle sweep
 * (OracleKernel). The library always passes the
 * data-oriented kernels of fast_engine.cc. The seed kernels they
 * replaced live in tests/reference_engine.cc, where the differential
 * suite passes them instead; nothing else picks a kernel.
 *
 * Inputs split by lifetime. Per trace, shared read-only by every cell:
 * the PreparedTrace (trace/prepared.hh) — branch-path bounds, exit
 * branches, the decode of each record-store entry, the dense memory ids
 * of loads and stores, and the route-B join points cached per Cfg —
 * and the SimTraceCache attached to it: a power-on 2-bit predictor's
 * outcomes (PathPredictions' mispredict bits, one per path), the
 * branch confidence replayed over them, and the memo of the runs made
 * on them. Per cell: the window tree, the SimConfig (latencies
 * included), the outcomes of any other predictor, and what the cell
 * writes: the slot ledger, the speculation profile and the
 * resolve-depth histogram (and, when profiling, its own confidence
 * replay). A kernel keeps a path's fetch, root and resolve times only
 * while the path is inside the window, and no state that grows with
 * the trace.
 *
 * runWindowWith() owns the shared prologue (the memo lookup, confidence
 * replay of the predictor outcomes) and epilogue (totals, issue stats,
 * starved-cycle marks, cycle accounting, profile loop headers,
 * registry publishing). A
 * forward kernel owns the per-path forward loop: coverage walks,
 * instruction issue, branch resolution and tree movement, after which
 * it hands the path to PathRetirer::retire() for its per-path
 * accounting. Every kernel makes ledger/profiler/tracer calls at the
 * same program points in the same order, which is what makes two
 * kernels bit-exact — the property tests/test_engine_differential.cc
 * enforces.
 */

#ifndef DEE_CORE_SIM_FORWARD_PASS_HH
#define DEE_CORE_SIM_FORWARD_PASS_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "obs/accounting.hh"
#include "obs/profile/profile.hh"
#include "obs/trace_event.hh"
#include "trace/prepared.hh"

namespace dee::sim_detail
{

/**
 * Per-cycle issue-slot accounting for the limited-PE extension: finds
 * the earliest cycle >= ready with a free slot and claims it. Shared
 * verbatim between kernels so starvation evidence is identical.
 */
class IssueSlots
{
  public:
    /** @param starved when non-null, every fully-occupied cycle an
     *  instruction probed while waiting for a slot is appended —
     *  the resource-starvation evidence for cycle accounting. */
    explicit IssueSlots(int width,
                        std::vector<std::int64_t> *starved = nullptr)
        : width_(width), starved_(starved)
    {
    }

    std::int64_t
    claim(std::int64_t ready)
    {
        if (width_ == 0)
            return ready;
        std::int64_t t = ready;
        while (true) {
            auto &used = used_[t];
            if (used < width_) {
                ++used;
                return t;
            }
            if (starved_)
                starved_->push_back(t);
            ++t;
        }
    }

  private:
    int width_;
    std::unordered_map<std::int64_t, int> used_;
    std::vector<std::int64_t> *starved_;
};

/** A mispredicted branch still inside the static window's reach. */
struct PendingMispredict
{
    std::uint64_t pathIdx;
    DynIndex joinIdx; ///< End of its dynamic control scope.
    std::int64_t resolveTime;
    /**
     * Backward (loop) branches diverge: the wrong-path fetch stream does
     * not reconverge with the actual path before resolution, so code
     * after the branch is simply absent from the machine unless a
     * not-predicted-edge tree path (EE subtree / DEE side path) holds
     * it. Forward mispredicts reconverge at the join, so only their
     * dynamic control scope stalls.
     */
    bool divergent;
};

/**
 * A window run's per-path accounting, done as the root leaves each
 * path: a kernel calls retire() once per path, in path order, right
 * after the tree moves past it, and only once the path's instructions
 * have issued (a ledger mark may grow the count array that
 * SlotLedger::issueCounts() handed out). For path r it
 *
 *  - bins a mispredicted r by its distance from the root when it
 *    resolved (SimResult::resolveDepthCounts), reading the last
 *    maxDepth + 2 root times, which it keeps itself;
 *  - marks a mispredicted r's span, from its fetch to its resolution
 *    plus the repair penalty, as squashed speculation, charged to its
 *    branch's confidence bucket and site: wrong-path work occupies
 *    the machine while the prediction steers fetch, so spare slots in
 *    that span are squashed work;
 *  - credits r's fetched residency (fetch to resolve) to branch r - 1,
 *    as DEE-slot cycles when a not-predicted edge held r and mainline
 *    cycles otherwise, then r's fetch-to-resolve latency to branch r.
 *
 * Squash marks keep path order, and marks of other classes commute
 * with them, so the account does not depend on when they are made.
 */
class PathRetirer
{
  public:
    /**
     * @param resolve_depths the resolve-depth histogram to fill, sized
     *        maxDepth + 1; null without resolve stats.
     * @param ledger the ledger to mark squashes into; null without
     *        accounting.
     * @param meter each branch's confidence after a replay of the
     *        whole run's outcomes, made before the pass (by the cell
     *        when profiling, else taken from the trace's
     *        SimTraceCache for the 2-bit outcomes); read only with
     *        @p ledger.
     * @param profile null unless profiling.
     */
    PathRetirer(const PreparedTrace &prep, const BitVec64 &mispredicts,
                int penalty, std::vector<std::uint64_t> *resolve_depths,
                obs::SlotLedger *ledger, const ConfidenceEstimator &meter,
                obs::SpeculationProfile *profile);

    /** Retires path @p r, fetched at @p fetch (through a not-predicted
     *  edge iff @p side) and resolved at @p resolve, as the root moves
     *  on to path r + 1 at @p next_root. */
    void
    retire(std::uint64_t r, std::int64_t fetch, bool side,
           std::int64_t resolve, std::int64_t next_root)
    {
        // Without resolve stats or a profile, as in most runs, a path
        // predicted right has nothing to retire.
        if (everyPath_ || mispredicts_.test(r))
            retirePath(r, fetch, side, resolve, next_root);
    }

  private:
    void retirePath(std::uint64_t r, std::int64_t fetch, bool side,
                    std::int64_t resolve, std::int64_t next_root);

    /** The resolve-depth bin of the path that resolved at @p resolve,
     *  with the root's arrival after it in roots_[@p top]. */
    std::size_t resolveDepth(std::size_t top, std::int64_t resolve) const;

    const PreparedTrace &prep_;
    const BitVec64 &mispredicts_;
    int penalty_;
    std::vector<std::uint64_t> *resolveDepths_;
    obs::SlotLedger *ledger_;
    const ConfidenceEstimator &meter_;
    obs::SpeculationProfile *profile_;
    bool everyPath_; ///< resolve stats or a profile
    /** The last maxDepth + 2 root times, with resolve stats only:
     *  root time i (the root's arrival at path i) in slot i mod
     *  roots_.size(). */
    std::vector<std::int64_t> roots_;
    std::size_t nextSlot_ = 1; ///< slot of the next root time
};

/** Everything a forward-pass kernel reads and everything it writes. */
struct ForwardCtx
{
    // --- Per-trace inputs (shared by every cell of the trace) ------------
    const Trace &trace; ///< the records, for kernels that read them
    const PreparedTrace &prepared;
    const std::vector<std::uint32_t> &joinIdx; ///< empty unless CD

    // --- Per-cell inputs --------------------------------------------------
    const SpecTree &tree;
    const SimConfig &config;
    const BitVec64 &mispredicts; ///< per path: exit branch mispredicted
    int windowReach;
    bool profiling;
    bool accounting;
    bool tracing;
    bool hot;
    obs::Tracer &tracer;
    obs::SpeculationProfile &profile; ///< recordAssignment() target
    /** Issue-slot ledger (non-null iff accounting or issue stats are
     *  on): kernels record each instruction's issue cycle into it as
     *  they compute it, in trace order. The epilogue reads its
     *  per-cycle issue counts and finalizes the account. */
    obs::SlotLedger *ledger;
    PathRetirer &retirer; ///< called once per path, in path order

    // --- Outputs ----------------------------------------------------------
    std::vector<std::int64_t> starvedCycles;
    std::uint64_t sidePathFetches = 0;
};

/**
 * A window forward pass: fills every ForwardCtx output and returns the
 * root's arrival past the last path, the run's last cycle (the root
 * leaves a path no earlier than its instructions complete).
 */
using ForwardKernel = std::int64_t (*)(ForwardCtx &ctx);

/**
 * An oracle sweep over @p trace: returns the dataflow-limit completion
 * horizon and, when @p ledger is non-null, issues each instruction's
 * ready cycle into it in trace order.
 */
using OracleKernel = std::int64_t (*)(const Trace &trace,
                                      const LatencyModel &latency,
                                      const std::vector<int> *load_latencies,
                                      obs::SlotLedger *ledger);

/** The kernels one model run needs. */
struct Kernels
{
    ForwardKernel forward;
    OracleKernel oracle;
};

/** The data-oriented SoA / bit-vector window kernel (fast_engine.cc). */
std::int64_t fastForward(ForwardCtx &ctx);

/** The oracle sweep over the trace's shared per-entry decode
 *  (fast_engine.cc). */
std::int64_t fastOracle(const Trace &trace, const LatencyModel &latency,
                        const std::vector<int> *load_latencies,
                        obs::SlotLedger *ledger);

/** The kernels every public entry point runs. */
inline constexpr Kernels kFastKernels{&fastForward, &fastOracle};

/**
 * The window simulator's per-trace state, attached to the trace's
 * PreparedTrace: built on first use under the view's lock and freed
 * with it, so it never outlives the records it describes. It holds
 *
 *  - the outcomes of a power-on TwoBitPredictor over every branch of
 *    the trace. The pass is a function of the trace alone, so
 *    runModelWith() reads it for every 2-bit cell instead of replaying
 *    the predictor per cell;
 *  - each branch's ConfidenceEstimator replayed over those outcomes,
 *    which unprofiled accounting runs read instead of replaying it per
 *    cell (a profiled run replays it itself: the profile records the
 *    confidence bucket each instance met online);
 *  - the trace's longest walk under those outcomes (trace_cache.cc):
 *    a plain run on a longer chain is the run on a chain that long;
 *  - the memo: the SimResult of each distinct run made on those
 *    outcomes, under its runKey(). runWindowWith() serves a run from
 *    it only on the fast kernel, without tracing or profiling, and
 *    without per-record load latencies or confidence gating.
 */
class SimTraceCache final : public PreparedTrace::Attachment
{
  public:
    /** The cache of @p trace; the first call replays a fresh clone of
     *  @p twobit over the trace. */
    static SimTraceCache &of(const Trace &trace,
                             const TwoBitPredictor &twobit);

    SimTraceCache(const Trace &trace, const TwoBitPredictor &twobit);

    const PathPredictions &twoBit() const { return twoBit_; }
    const ConfidenceEstimator &confidence() const { return confidence_; }

    /** The most paths a coverage walk from any root steps across
     *  before the first path no walk crosses, under twoBit(). */
    std::uint64_t longestWalk() const { return longestWalk_; }

    /** A copy of the result remembered under @p key, if any. */
    std::optional<SimResult> find(const std::string &key) const;

    /** Remembers @p result under @p key, unless a run already did. */
    void remember(std::string key, const SimResult &result);

    /** Runs find() has served so far. */
    std::uint64_t hits() const;

  private:
    PathPredictions twoBit_;
    ConfidenceEstimator confidence_;
    std::uint64_t longestWalk_ = 0;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, SimResult> runs_;
    mutable std::uint64_t hits_ = 0;
};

/**
 * The memo key of a window run on a trace's 2-bit outcomes: the tree's
 * shape (a chain's length, else each node's two child links), every
 * SimConfig field but the three profile names, and the identity of the
 * route-B join table @p join_idx the run reads. Two runs with equal
 * keys compute equal SimResults: the kernel reads a tree's cumulative
 * probabilities and ranks only when profiling, and a Cfg only through
 * its join table. A plain (CdModel::Restrictive) run without resolve
 * stats or confidence gating on a chain longer than the trace's
 * @p longest_walk
 * (SimTraceCache::longestWalk()) is keyed as the chain of that length,
 * the run it repeats (trace_cache.cc).
 */
std::string runKey(const SpecTree &tree, const SimConfig &config,
                   const std::vector<std::uint32_t> &join_idx,
                   std::uint64_t longest_walk);

/**
 * @p predictor when its pass over @p trace is the trace's cached 2-bit
 * pass: a TwoBitPredictor itself, not a subclass, whose table covers
 * every static id of the trace (a power-on table's outcomes do not
 * depend on its size then); null otherwise.
 */
const TwoBitPredictor *cacheableTwoBit(const BranchPredictor &predictor,
                                       const Trace &trace);

/**
 * WindowSim::run(predictions) without its meter, with the forward pass
 * passed in.
 *
 * @param cache the trace's SimTraceCache when @p predictions are its
 *        2-bit outcomes (null otherwise): the run then reads its
 *        confidence replay and, when eligible, its memo.
 */
SimResult runWindowWith(const WindowSim &sim,
                        const PathPredictions &predictions,
                        ForwardKernel forward,
                        SimTraceCache *cache = nullptr);

/** oracleSim() without its meter, with the sweep passed in. */
SimResult oracleSimWith(const Trace &trace, LatencyModel latency,
                        const std::vector<int> *load_latencies,
                        bool gather_accounting, OracleKernel sweep);

/** runModel(), with the kernels passed in. */
SimResult runModelWith(ModelKind kind, const Trace &trace,
                       const Cfg *cfg, BranchPredictor &predictor,
                       int e_t, const ModelRunOptions &options,
                       Kernels kernels);

} // namespace dee::sim_detail

#endif // DEE_CORE_SIM_FORWARD_PASS_HH
