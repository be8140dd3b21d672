/**
 * @file
 * Windowed trace-driven ILP simulator (Section 5.1 of the paper).
 *
 * One engine serves every constrained model — EE, SP, DEE and their CD /
 * CD-MF variants — by superimposing a SpecTree (the window shape) on the
 * dynamic trace. Semantics, made precise:
 *
 * Trace & paths. The trace is the actual executed stream segmented into
 * branch paths. Resources are counted in branch paths (the tree has E_T
 * path nodes); PEs are implicitly unconstrained within covered paths,
 * as in the paper.
 *
 * Coverage (route A — the speculation hardware). With the window rooted
 * at path r, the actual path at distance d is covered iff walking the
 * tree from its origin — taking the predicted edge where the predictor
 * was right and the not-predicted edge where it was wrong — reaches a
 * node at depth d. Covered code is fetched at the root-arrival time and
 * may execute as soon as its flow dependencies (register and memory,
 * renaming / flow-only) are ready: unit latency by default. Passing a
 * not-predicted edge means the alternate state was held speculatively
 * (an EE subtree or a DEE side path), so no stall on that misprediction
 * is ever paid by that code — this is exactly DEE's mechanism.
 *
 * Tree movement. The root advances past path r once r's branch has
 * resolved and every instruction of r has executed; a misprediction adds
 * `mispredictPenalty` cycles (Levo's 1-cycle state copy-back). Actual-
 * path code already fetched stays fetched.
 *
 * Static-window execution (route B — CD models only). The CD and CD-MF
 * models presuppose the static instruction window of Section 4: the IQ
 * holds static code whose presence is invariant to branch directions, so
 * an instruction within the window's reach (maxDepth of the tree, in
 * branch paths, ahead of the root) may execute before its path is
 * covered by the tree — it must only wait, with the misprediction
 * penalty, for the resolution of mispredicted branches it is *totally
 * control dependent* on (exact transitive CDG from src/cfg). Join-point
 * code therefore flows past unpredictable branches, the paper's central
 * CD example. An instruction's execution time is the better of the two
 * routes.
 *
 * Branch resolution. Plain and CD models resolve branches serially
 * ("branches must still execute sequentially"); the MF (multiple flows)
 * variants resolve branches as soon as each branch executes.
 *
 * Oracle. oracleSim() ignores windows and control entirely: pure flow-
 * dependence dataflow height (the paper's "EE with unlimited resources").
 */

#ifndef DEE_CORE_SIM_WINDOW_SIM_HH
#define DEE_CORE_SIM_WINDOW_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "common/bit_matrix.hh"
#include "core/tree/spec_tree.hh"
#include "obs/accounting.hh"
#include "obs/profile/profile.hh"
#include "trace/trace.hh"

namespace dee
{

/** Control-dependency regime of a model. */
enum class CdModel
{
    Restrictive, ///< plain EE / SP / DEE
    Reduced,     ///< -CD: true control dependencies, serial branches
    Minimal,     ///< -CD-MF: true control dependencies, parallel branches
};

const char *cdModelName(CdModel cd);

/** Per-op-class latencies in cycles (paper default: all 1). */
struct LatencyModel
{
    int intAlu = 1;
    int load = 1;
    int store = 1;
    int branch = 1;
    int other = 1;

    int of(OpClass cls) const;

    /** All-ones, the paper's assumption. */
    static LatencyModel unit() { return LatencyModel{}; }

    /** A non-unit example point for the future-work ablation. */
    static LatencyModel realistic();
};

/** Simulator configuration. */
struct SimConfig
{
    CdModel cd = CdModel::Restrictive;
    /** Cycles lost on each misprediction (refetch / DEE copy-back). */
    int mispredictPenalty = 1;
    LatencyModel latency = LatencyModel::unit();
    /** Gather the where-do-mispredictions-resolve histogram (E6). */
    bool gatherResolveStats = false;
    /**
     * Measure per-cycle issue counts (peak busy PEs — the paper's
     * "<200 PEs at 100 branch paths" estimate). The counts come from
     * the cycle-accounting ledger, so they share its limit,
     * obs::SlotLedger::kMaxCycles (64M cycles): a longer run reports
     * no peak and no occupancy track.
     */
    bool gatherIssueStats = false;
    /**
     * Classify every issue-slot-cycle of the run into the closed
     * obs::SlotClass taxonomy (SimResult::account, registry paths
     * "acct.window.*"). Costs O(cycles) extra time and 5 bytes/cycle
     * transient memory; on by default because the simulation itself
     * dominates. The identity sum(classes) == PEs x cycles is checked
     * fatally at end-of-run.
     */
    bool gatherAccounting = true;
    /**
     * Collect the per-branch speculation profile (SimResult::profile;
     * see obs/profile/profile.hh). Also honored — regardless of this
     * flag — when obs::profilingRequested() is set, which is how the
     * Session --profile flag reaches every tool. Profiling implies
     * accounting (the ledger carries the squash attribution, 4 more
     * bytes per cycle), and the identity sum(per-site squashed) ==
     * squashed_spec is checked fatally at end-of-run.
     */
    bool gatherProfile = false;
    /** ProfileStore scope the profile merges under; empty -> "window".
     *  Convention: "<workload>.<model>" so runs never conflate. */
    std::string profileScope;
    /** Metadata recorded in the profile (manifest grouping keys). */
    std::string profileWorkload;
    std::string profileModel;
    /**
     * Maximum instructions issued per cycle (the paper's future-work
     * "explicitly limited PE's"); 0 = unlimited, the paper's default
     * ("this implicitly limited the number of PE's, but not
     * explicitly").
     */
    int peLimit = 0;
    /**
     * Static-window (route B) reach in branch paths; 0 derives it from
     * the tree's path count. Set explicitly when the tree's node count
     * is not the machine's full resource budget (e.g. confidence-gated
     * DEE, whose side paths are not tree nodes).
     */
    int windowReachOverride = 0;
    /**
     * Optional per-dynamic-instruction load latencies (from the cache
     * model in src/mem); overrides latency.load per access when set.
     * Must outlive the simulator and have one entry per trace record.
     */
    const std::vector<int> *loadLatencies = nullptr;

    /**
     * Confidence-gated DEE (an exploration of the paper's Section 5.3
     * remark that below-average-accuracy branches should be "DEE'd
     * earlier"): instead of side paths on the first h_DEE main-line
     * branches, a side path attaches at *any* depth to a branch whose
     * profiled accuracy is below `threshold`, covering up to `sideLen`
     * further paths. For equal-resource comparisons pick `threshold`
     * so the expected number of gated branches per window matches the
     * static tree's side-path count. When `accuracy` is set, this
     * coverage rule replaces the tree's not-predicted edges (the tree
     * still supplies the main-line depth and the static-window reach).
     */
    struct ConfidenceDee
    {
        const std::vector<double> *accuracy = nullptr; ///< per-sid
        double threshold = 0.0;
        int sideLen = 0;
    };
    ConfidenceDee confidence;
};

/**
 * Profiles per-static-branch accuracy of a predictor over a trace
 * (fresh clone; the confidence table for SimConfig::ConfidenceDee).
 * Branches never seen get accuracy 1.0.
 */
std::vector<double> profileBranchAccuracy(const Trace &trace,
                                          const BranchPredictor &pred);

/**
 * A predictor's outcomes on a trace's branch paths: the predictor pass
 * that precedes every windowed simulation. runModel() reads the
 * characteristic accuracy p from it before sizing the tree, so
 * measuring p costs no second replay of the trace; a power-on 2-bit
 * predictor's pass is made once per trace and shared by its cells.
 */
struct PathPredictions
{
    /** One bit per branch path, set iff its exit branch was
     *  mispredicted (never for a path without one). */
    BitVec64 mispredicts;
    std::uint64_t branches = 0;
    std::uint64_t mispredicted = 0;

    /** Fraction of branches predicted right; 0 without branches. */
    double accuracy() const;
};

/**
 * Resets @p predictor, then predicts and trains it on every exit
 * branch of @p trace in trace order.
 */
PathPredictions predictPaths(const Trace &trace,
                             BranchPredictor &predictor);

/** Outcome of one windowed simulation. */
struct SimResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double speedup = 0.0; ///< instructions / cycles (sequential == 1.0)

    std::uint64_t branches = 0;
    std::uint64_t mispredicted = 0;
    double predictionAccuracy = 0.0;

    /** Histogram over tree depth (distance from root, in branch paths)
     *  at which mispredicted branches resolved; index 0 == at the root.
     *  Only filled when gatherResolveStats. */
    std::vector<std::uint64_t> resolveDepthCounts;

    /** Fraction of mispredictions resolving at the root (depth 0). */
    double resolveAtRootFraction() const;

    /** Paths whose earliest (tree) fetch crossed a not-predicted edge —
     *  i.e. code held early by an EE subtree or DEE side path. */
    std::uint64_t sidePathFetches = 0;

    /** Most instructions issued in any single cycle (peak busy PEs);
     *  only filled when gatherIssueStats and the run fit the ledger.
     *  The mean is `speedup`. */
    std::uint64_t peakIssue = 0;

    /** Closed slot-cycle account (valid() iff gatherAccounting was on
     *  and the run fit the ledger); see obs/accounting.hh. */
    obs::CycleAccount account;

    /** Per-branch speculation profile (filled when profiling was on;
     *  also merged into obs::ProfileStore::global()). */
    obs::SpeculationProfile profile;

    std::string render() const;
};

/**
 * Windowed ILP simulator.
 *
 * @param cfg may be null for CdModel::Restrictive; required (and used
 *            for exact total control dependencies) for Reduced/Minimal.
 */
class WindowSim
{
  public:
    WindowSim(const Trace &trace, SpecTree tree, const SimConfig &config,
              const Cfg *cfg = nullptr);

    /** Traces are large and held by reference: no temporaries. */
    WindowSim(Trace &&, SpecTree, const SimConfig &,
              const Cfg *cfg = nullptr) = delete;

    /**
     * Runs the model; the predictor is reset() first. A power-on
     * TwoBitPredictor that covers the trace's static ids takes the
     * trace's cached 2-bit pass instead of making its own, as
     * runModel() does, and is left reset; any other predictor makes
     * its own pass and is left trained.
     */
    SimResult run(BranchPredictor &predictor) const;

    /** Runs the model on a predictor pass already made over this
     *  simulator's trace (predictPaths()). */
    SimResult run(const PathPredictions &predictions) const;

    const Trace &trace() const { return trace_; }
    const SpecTree &tree() const { return tree_; }
    const SimConfig &config() const { return config_; }
    const Cfg *cfg() const { return cfg_; }

  private:
    const Trace &trace_;
    SpecTree tree_;
    SimConfig config_;
    const Cfg *cfg_;
};

/** Oracle: dataflow-limit speedup (flow dependencies only).
 *  @param load_latencies optional per-record load latencies (cache
 *         model), overriding latency.load per access.
 *  @param gather_accounting fill SimResult::account ("acct.oracle.*";
 *         the oracle never speculates, so its slots split between
 *         useful and the idle/fetch_stall residue). */
SimResult oracleSim(const Trace &trace,
                    LatencyModel latency = LatencyModel::unit(),
                    const std::vector<int> *load_latencies = nullptr,
                    bool gather_accounting = true);

} // namespace dee

#endif // DEE_CORE_SIM_WINDOW_SIM_HH
