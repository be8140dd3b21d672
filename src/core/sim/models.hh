/**
 * @file
 * The eight ILP models of Section 5.2, as a ready-to-run suite.
 *
 * Each constrained model is a (tree shape, control-dependency regime)
 * pair fed to WindowSim; Oracle is the unconstrained dataflow limit.
 * runModel() also performs steps 1-3 of the static tree heuristic when
 * asked: measure the predictor's characteristic accuracy p on the trace,
 * then size the tree from (p, E_T).
 */

#ifndef DEE_CORE_SIM_MODELS_HH
#define DEE_CORE_SIM_MODELS_HH

#include <string>
#include <vector>

#include "core/sim/window_sim.hh"

namespace dee
{

/** The models of Section 5.2. */
enum class ModelKind
{
    EE,       ///< Eager Execution (comparison)
    SP,       ///< Single Path / branch prediction (comparison)
    DEE,      ///< DEE alone, restrictive control dependencies
    SP_CD,    ///< SP + reduced control dependencies (comparison)
    DEE_CD,   ///< DEE + reduced control dependencies
    SP_CD_MF, ///< SP + minimal control dependencies (comparison)
    DEE_CD_MF,///< DEE + minimal control dependencies (the headline model)
    Oracle,   ///< EE, unlimited resources; not realizable
};

/** Paper-style name, e.g. "DEE-CD-MF". */
const char *modelName(ModelKind kind);

/** All eight, in the paper's listing order. */
std::vector<ModelKind> allModels();

/** The seven resource-constrained models (everything but Oracle). */
std::vector<ModelKind> constrainedModels();

/** True for the models that use a DEE-shaped tree. */
bool usesDeeTree(ModelKind kind);

/** Control-dependency regime of a model (meaningless for Oracle). */
CdModel cdModelOf(ModelKind kind);

/**
 * Window shape for a constrained model: SP chain, EE level tree, or the
 * static DEE heuristic tree for (p, e_t).
 */
SpecTree treeForModel(ModelKind kind, double p, int e_t);

/** Options shared across a model-suite run. */
struct ModelRunOptions
{
    int mispredictPenalty = 1;
    LatencyModel latency = LatencyModel::unit();
    bool gatherResolveStats = false;
    /** Track per-cycle issue counts (peak/mean occupancy). */
    bool gatherIssueStats = false;
    /** Fill SimResult::account (see SimConfig::gatherAccounting). */
    bool gatherAccounting = true;
    /** Fill SimResult::profile (see SimConfig::gatherProfile); also
     *  forced on by the Session --profile flag. */
    bool gatherProfile = false;
    /**
     * Workload label for profile scoping: the profile lands in
     * ProfileStore::global() under "<profileWorkload>.<model name>"
     * ("<model name>" alone when empty), so per-branch stats from
     * different workloads never conflate static ids.
     */
    std::string profileWorkload;
    /**
     * Characteristic accuracy for tree sizing; <= 0 means "measure it
     * from the cell's predictor pass" (heuristic step 1, the same
     * value characteristicAccuracy() returns).
     */
    double characteristicP = -1.0;
    /** Issue-width limit (0 = unlimited, the paper's assumption). */
    int peLimit = 0;
    /** Optional per-record load latencies from the cache model. */
    const std::vector<int> *loadLatencies = nullptr;
};

/**
 * Measures the predictor's accuracy on the trace using a fresh clone
 * (heuristic step 1). Clamped into [0.5, 0.995] so tree geometry stays
 * well-defined even on degenerate traces.
 */
double characteristicAccuracy(const Trace &trace,
                              const BranchPredictor &predictor);

/**
 * Runs one model at one resource level.
 *
 * A window model runs on @p predictor's outcomes over the trace from
 * power-on. For a TwoBitPredictor whose table covers the trace's
 * static ids they come from the trace's cached 2-bit pass, and
 * @p predictor is left reset; any other predictor is reset, then
 * predicts and trains on every branch of the trace, and is left
 * trained. Oracle leaves @p predictor as it was.
 *
 * @param cfg required for the CD / CD-MF models; may be null otherwise.
 * @param e_t branch-path resource budget (ignored by Oracle).
 */
SimResult runModel(ModelKind kind, const Trace &trace, const Cfg *cfg,
                   BranchPredictor &predictor, int e_t,
                   const ModelRunOptions &options = {});

} // namespace dee

#endif // DEE_CORE_SIM_MODELS_HH
