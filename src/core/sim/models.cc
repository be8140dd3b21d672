#include "core/sim/models.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/sim/forward_pass.hh"
#include "obs/perf/perf.hh"

namespace dee
{

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::EE: return "EE";
      case ModelKind::SP: return "SP";
      case ModelKind::DEE: return "DEE";
      case ModelKind::SP_CD: return "SP-CD";
      case ModelKind::DEE_CD: return "DEE-CD";
      case ModelKind::SP_CD_MF: return "SP-CD-MF";
      case ModelKind::DEE_CD_MF: return "DEE-CD-MF";
      case ModelKind::Oracle: return "Oracle";
    }
    return "???";
}

std::vector<ModelKind>
allModels()
{
    return {ModelKind::EE, ModelKind::SP, ModelKind::DEE,
            ModelKind::SP_CD, ModelKind::DEE_CD, ModelKind::SP_CD_MF,
            ModelKind::DEE_CD_MF, ModelKind::Oracle};
}

std::vector<ModelKind>
constrainedModels()
{
    return {ModelKind::EE, ModelKind::SP, ModelKind::DEE,
            ModelKind::SP_CD, ModelKind::DEE_CD, ModelKind::SP_CD_MF,
            ModelKind::DEE_CD_MF};
}

bool
usesDeeTree(ModelKind kind)
{
    return kind == ModelKind::DEE || kind == ModelKind::DEE_CD ||
           kind == ModelKind::DEE_CD_MF;
}

CdModel
cdModelOf(ModelKind kind)
{
    switch (kind) {
      case ModelKind::SP_CD:
      case ModelKind::DEE_CD:
        return CdModel::Reduced;
      case ModelKind::SP_CD_MF:
      case ModelKind::DEE_CD_MF:
        return CdModel::Minimal;
      default:
        return CdModel::Restrictive;
    }
}

SpecTree
treeForModel(ModelKind kind, double p, int e_t)
{
    dee_assert(kind != ModelKind::Oracle, "Oracle has no window tree");
    if (kind == ModelKind::EE)
        return SpecTree::eager(p, e_t);
    if (usesDeeTree(kind))
        return SpecTree::deeStatic(p, e_t);
    return SpecTree::singlePath(p, e_t);
}

double
characteristicAccuracy(const Trace &trace,
                       const BranchPredictor &predictor)
{
    auto probe = predictor.clone();
    const AccuracyReport report = measureAccuracy(trace, *probe);
    return std::clamp(report.accuracy, 0.5, 0.995);
}

SimResult
runModel(ModelKind kind, const Trace &trace, const Cfg *cfg,
         BranchPredictor &predictor, int e_t,
         const ModelRunOptions &options)
{
    return sim_detail::runModelWith(kind, trace, cfg, predictor, e_t,
                                    options, sim_detail::kFastKernels);
}

SimResult
sim_detail::runModelWith(ModelKind kind, const Trace &trace,
                         const Cfg *cfg, BranchPredictor &predictor,
                         int e_t, const ModelRunOptions &options,
                         Kernels kernels)
{
    // Every model run — Oracle included — is metered under the same
    // "<workload>.<model>" scope the profiler uses, so perf.* lines up
    // with the manifest's profile section in reports.
    const std::string scope =
        options.profileWorkload.empty()
            ? std::string(modelName(kind))
            : options.profileWorkload + "." + modelName(kind);
    obs::perf::ThroughputMeter meter(scope);

    if (kind == ModelKind::Oracle) {
        SimResult result = oracleSimWith(
            trace, options.latency, options.loadLatencies,
            options.gatherAccounting, kernels.oracle);
        meter.addInstructions(result.instructions);
        meter.addCycles(result.cycles);
        return result;
    }

    // A power-on 2-bit predictor's pass is a function of the trace, so
    // its outcomes come from the trace's cache, made once; any other
    // predictor makes its own pass. Heuristic step 1 rides the pass:
    // the same power-on predictor over the same branches as a fresh
    // clone's replay, so p is the same double characteristicAccuracy()
    // gives.
    SimTraceCache *cache = nullptr;
    PathPredictions own;
    if (const TwoBitPredictor *twobit =
            sim_detail::cacheableTwoBit(predictor, trace)) {
        cache = &SimTraceCache::of(trace, *twobit);
        predictor.reset();
    } else {
        own = predictPaths(trace, predictor);
    }
    const PathPredictions &predictions =
        cache != nullptr ? cache->twoBit() : own;
    double p = options.characteristicP;
    if (p <= 0.0) {
        AccuracyReport report;
        report.branches = predictions.branches;
        report.correct = predictions.branches - predictions.mispredicted;
        report.accuracy = predictions.accuracy();
        publishAccuracy(predictor.name(), report);
        p = std::clamp(report.accuracy, 0.5, 0.995);
    }

    const SpecTree tree = treeForModel(kind, p, e_t);

    SimConfig config;
    config.cd = cdModelOf(kind);
    config.mispredictPenalty = options.mispredictPenalty;
    config.latency = options.latency;
    config.gatherResolveStats = options.gatherResolveStats;
    config.gatherIssueStats = options.gatherIssueStats;
    config.gatherAccounting = options.gatherAccounting;
    config.profileModel = modelName(kind);
    config.profileScope = scope;
    config.profileWorkload = options.profileWorkload;
    config.peLimit = options.peLimit;
    config.loadLatencies = options.loadLatencies;

    const WindowSim sim(trace, tree, config, cfg);
    SimResult result =
        runWindowWith(sim, predictions, kernels.forward, cache);
    meter.addInstructions(result.instructions);
    meter.addCycles(result.cycles);
    return result;
}

} // namespace dee
