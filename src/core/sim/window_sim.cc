#include "core/sim/window_sim.hh"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "cfg/structure.hh"
#include "common/bit_matrix.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sim/forward_pass.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/perf/perf.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "trace/prepared.hh"

namespace dee
{

const char *
cdModelName(CdModel cd)
{
    switch (cd) {
      case CdModel::Restrictive: return "plain";
      case CdModel::Reduced: return "CD";
      case CdModel::Minimal: return "CD-MF";
    }
    return "???";
}

int
LatencyModel::of(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu: return intAlu;
      case OpClass::Load: return load;
      case OpClass::Store: return store;
      case OpClass::CondBranch:
      case OpClass::Jump: return branch;
      default: return other;
    }
}

LatencyModel
LatencyModel::realistic()
{
    LatencyModel m;
    m.intAlu = 1;
    m.load = 3;
    m.store = 1;
    m.branch = 1;
    m.other = 1;
    return m;
}

double
SimResult::resolveAtRootFraction() const
{
    if (resolveDepthCounts.empty() || mispredicted == 0)
        return 0.0;
    return static_cast<double>(resolveDepthCounts[0]) /
           static_cast<double>(mispredicted);
}

std::string
SimResult::render() const
{
    std::ostringstream oss;
    oss << "instructions=" << instructions << " cycles=" << cycles
        << " speedup=" << Table::fmt(speedup) << " branches="
        << branches << " mispredicted=" << mispredicted
        << " accuracy=" << Table::fmtPercent(predictionAccuracy);
    if (!resolveDepthCounts.empty()) {
        oss << " resolveAtRoot="
            << Table::fmtPercent(resolveAtRootFraction());
    }
    if (account.valid()) {
        oss << " waste=" << Table::fmtPercent(account.wasteFraction())
            << " useful=" << Table::fmtPercent(account.usefulFraction());
    }
    return oss.str();
}

WindowSim::WindowSim(const Trace &trace, SpecTree tree,
                     const SimConfig &config, const Cfg *cfg)
    : trace_(trace), tree_(std::move(tree)), config_(config), cfg_(cfg)
{
    if (config_.cd != CdModel::Restrictive && cfg_ == nullptr)
        dee_fatal("CD/CD-MF models need a Cfg for control dependencies");
    dee_assert(config_.mispredictPenalty >= 0, "negative penalty");
    dee_assert(config_.peLimit >= 0, "negative PE limit");
    if (config_.loadLatencies &&
        config_.loadLatencies->size() != trace_.size()) {
        dee_fatal("loadLatencies has ", config_.loadLatencies->size(),
                  " entries for a ", trace_.size(), "-record trace");
    }
}

double
PathPredictions::accuracy() const
{
    if (branches == 0)
        return 0.0;
    return static_cast<double>(branches - mispredicted) /
           static_cast<double>(branches);
}

PathPredictions
predictPaths(const Trace &trace, BranchPredictor &predictor)
{
    // The predictor pass steers fetch, so it samples as fetch. The
    // 2-bit predictor (every figure cell) devirtualizes into one
    // inlined table access per branch.
    const bool hot = obs::hotspot::Sampler::process().active();
    const obs::hotspot::HotspotPhase hot_predict(
        hot, "window", obs::hotspot::Phase::Fetch);

    predictor.reset();
    const PreparedTrace &prep = trace.prepared();
    const std::uint64_t num_paths = prep.numPaths();
    PathPredictions out;
    out.correct.assign(num_paths, 1);
    out.mispredicts = BitVec64(num_paths);
    out.branches = prep.numBranches();
    TwoBitPredictor *const twobit =
        dynamic_cast<TwoBitPredictor *>(&predictor);
    for (std::uint64_t k = 0; k < out.branches; ++k) {
        const PathExit &b = prep.exit(k);
        bool predicted;
        if (twobit != nullptr) {
            predicted = twobit->predictThenUpdate(b.sid, b.taken);
        } else {
            BranchQuery q;
            q.sid = b.sid;
            q.backward = b.backward;
            q.actual = b.taken;
            predicted = predictor.predict(q);
            predictor.update(q, b.taken);
        }
        if (predicted != b.taken) {
            out.correct[k] = 0;
            out.mispredicts.set(k);
            ++out.mispredicted;
        }
    }
    return out;
}

SimResult
WindowSim::run(BranchPredictor &predictor) const
{
    return run(predictPaths(trace_, predictor));
}

SimResult
WindowSim::run(const PathPredictions &predictions) const
{
    // A direct run's one host clock, under the profile's scope
    // convention; runModel() meters its own runs and calls
    // runWindowWith() itself.
    obs::perf::ThroughputMeter meter(
        config_.profileScope.empty() ? "window" : config_.profileScope);
    SimResult result = sim_detail::runWindowWith(
        *this, predictions, &sim_detail::fastForward);
    meter.addInstructions(result.instructions);
    meter.addCycles(result.cycles);
    return result;
}

SimResult
sim_detail::runWindowWith(const WindowSim &sim,
                          const PathPredictions &predictions,
                          ForwardKernel forward)
{
    const Trace &trace = sim.trace();
    const SpecTree &tree = sim.tree();
    const SimConfig &config = sim.config();
    const Cfg *cfg = sim.cfg();
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing =
        DEE_OBS_TRACE_ENABLED != 0 && tracer.enabled();
    // Host hot-path attribution: one hoisted flag (the tracing idiom)
    // guards every per-path marker below; the outer catch-all makes
    // run() glue land on window.other instead of unattributed.
    const bool hot = obs::hotspot::Sampler::process().active();
    const obs::hotspot::HotspotPhase hot_run(
        hot, "window", obs::hotspot::Phase::Other);

    const std::uint64_t n = trace.size();
    SimResult result;
    result.instructions = n;
    if (n == 0)
        return result;

    // Per-trace facts come from the shared prepared view; the
    // per-thread arena holds only this cell's outputs, recycled across
    // runs instead of re-faulted from the allocator every run.
    const PreparedTrace &prep = trace.prepared();
    const std::uint64_t num_paths = prep.numPaths();
    dee_assert(predictions.correct.size() == num_paths,
               "predictions cover ", predictions.correct.size(),
               " paths of a ", num_paths, "-path trace");
    static thread_local RunArena arena;

    // Static-window reach for route B: the machine holds E_T branch
    // paths of static code regardless of how the tree allocates them
    // between ML and DEE regions (in Levo, DEE paths are extra state
    // columns over the *same* IQ rows), so equal resources mean equal
    // static reach across models.
    const int window_reach =
        config.windowReachOverride > 0
            ? config.windowReachOverride
            : std::max(tree.numPaths(), 1);
    const int penalty = config.mispredictPenalty;
    const bool use_cd = config.cd != CdModel::Restrictive;

    result.branches = predictions.branches;
    result.mispredicted = predictions.mispredicted;
    result.predictionAccuracy = predictions.accuracy();
    const std::vector<std::uint8_t> &correct = predictions.correct;

    // --- Per-branch confidence, replayed from the predictor pass ----------
    // It attributes squashed speculative work to accuracy buckets, and
    // feeds the speculation profiler's per-site execution counts
    // (profiling rides the accounting ledger, so it forces accounting
    // on).
    const bool profiling =
        config.gatherProfile || obs::profilingRequested();
    const bool accounting = config.gatherAccounting || profiling;
    obs::SpeculationProfile profile;
    ConfidenceEstimator confidence_meter(
        accounting ? trace.numStatic : 0);
    if (accounting) {
        const obs::hotspot::HotspotPhase hot_predict(
            hot, "window", obs::hotspot::Phase::Fetch);
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            const PathExit &b = prep.exit(k);
            if (profiling) {
                // Online confidence: the bucket the site occupied
                // when this instance resolved, before its outcome
                // updates the meter.
                profile.recordExecution(
                    b.sid, static_cast<std::int64_t>(b.block),
                    correct[k] == 0,
                    obs::confidenceBucket(
                        confidence_meter.estimate(b.sid)));
            }
            confidence_meter.record(b.sid, correct[k] != 0);
        }
    }

    // --- Dynamic control-dependence scopes for route B -------------------
    // join_idx[k] is the dynamic index at which the branch ending path
    // k stops controlling execution (see PreparedTrace::joinIndex()).
    static const std::vector<DynIndex> kNoJoins;
    const std::vector<DynIndex> &join_idx =
        use_cd ? prep.joinIndex(*cfg) : kNoJoins;

    // --- Forward pass over branch paths ----------------------------------
    // The slot ledger outlives the kernel: the kernel records each
    // issue cycle as it computes it, in trace order; the epilogue reads
    // the per-cycle issue counts, adds the stall marks and finalizes.
    std::optional<obs::SlotLedger> ledger;
    if (accounting || config.gatherIssueStats) {
        ledger.emplace(config.peLimit > 0
                           ? static_cast<std::uint64_t>(config.peLimit)
                           : 0,
                       n / 2);
    }
    ForwardCtx ctx{
        .trace = trace,
        .prepared = prep,
        .joinIdx = join_idx,
        .tree = tree,
        .config = config,
        .correct = correct,
        .windowReach = window_reach,
        .profiling = profiling,
        .accounting = accounting,
        .tracing = tracing,
        .hot = hot,
        .tracer = tracer,
        .profile = profile,
        .ledger = ledger.has_value() ? &*ledger : nullptr,
        .fetchTree = arena.fetchTree,
        .rootTime = arena.rootTime,
        .resolve = arena.resolve,
        .fetchSide = arena.fetchSide,
        .starvedCycles = arena.starvedCycles,
        .sidePathFetches = 0,
    };
    // The kernels assign() the sized outputs; the append-only one must
    // start empty so nothing leaks across arena reuse.
    arena.starvedCycles.clear();
    forward(ctx);
    const std::vector<std::int64_t> &fetch_tree = ctx.fetchTree;
    const std::vector<std::int64_t> &root_time = ctx.rootTime;
    const std::vector<std::int64_t> &resolve = ctx.resolve;
    const std::vector<std::uint8_t> &fetch_side = ctx.fetchSide;
    result.sidePathFetches = ctx.sidePathFetches;
    const BitVec64 &mispredict_paths = predictions.mispredicts;

    // --- Totals -----------------------------------------------------------
    // The root leaves path r no earlier than every instruction of r
    // completes, and root times never decrease, so the final root
    // arrival is also the last completion cycle of the whole trace.
    const std::int64_t last_cycle = root_time[num_paths];
    const bool issue_stats = config.gatherIssueStats && ledger->active();
    if (issue_stats) {
        result.peakIssue = ledger->peakIssue();
        if (tracing) {
            // PE-issue occupancy as Chrome counter events, in cycle
            // order so the track renders as a timeline.
            const std::vector<std::uint32_t> &issued =
                ledger->issuedPerCycle();
            for (std::size_t c = 0; c < issued.size(); ++c) {
                if (issued[c] == 0)
                    continue;
                dee_trace_event_if(tracing, tracer, "sim.issue_occupancy",
                                   'C', static_cast<std::int64_t>(c),
                                   "value",
                                   static_cast<std::int64_t>(issued[c]));
            }
        }
    }
    result.cycles = static_cast<std::uint64_t>(last_cycle);
    result.speedup = static_cast<double>(n) /
                     static_cast<double>(std::max<std::int64_t>(
                         last_cycle, 1));

    // --- Where do mispredictions resolve in the tree? ---------------------
    if (config.gatherResolveStats) {
        result.resolveDepthCounts.assign(
            static_cast<std::size_t>(tree.maxDepth()) + 1, 0);
        mispredict_paths.forEachSet([&](std::size_t m) {
            // Root position when this branch resolved: the last path
            // whose root-arrival time is <= the resolve time.
            const auto it = std::upper_bound(root_time.begin(),
                                             root_time.end(), resolve[m]);
            const std::uint64_t root_at = static_cast<std::uint64_t>(
                std::distance(root_time.begin(), it)) - 1;
            std::uint64_t depth = m >= root_at ? m - root_at : 0;
            depth = std::min<std::uint64_t>(
                depth, result.resolveDepthCounts.size() - 1);
            ++result.resolveDepthCounts[depth];
        });
    }

    // --- Cycle accounting: classify every issue-slot-cycle ----------------
    // The kernels already recorded every instruction's issue cycle.
    if (accounting) {
        mispredict_paths.forEachSet([&](std::size_t m) {
            // Wrong-path work occupies the machine from the moment the
            // mispredicted branch's path was fetched (its prediction
            // steered fetch from there) until resolution plus the
            // repair penalty; spare slots in that span are squashed
            // work, charged to the branch's confidence bucket.
            const StaticId sid = prep.exit(m).sid;
            const std::int64_t begin =
                fetch_tree[m] == kNeverFetched
                    ? root_time[m]
                    : fetch_tree[m];
            ledger->mark(obs::SlotClass::SquashedSpec, begin,
                         resolve[m] + penalty,
                         obs::confidenceBucket(
                             confidence_meter.estimate(sid)),
                         sid);
        });
        for (const std::int64_t t : ctx.starvedCycles)
            ledger->mark(obs::SlotClass::ResourceStarved, t, t + 1);
        std::unordered_map<std::uint32_t, std::uint64_t> squash_by_site;
        result.account =
            ledger->finalize(result.cycles,
                             tracing ? &tracer : nullptr,
                             profiling ? &squash_by_site : nullptr);
        if (profiling)
            profile.attributeSquash(squash_by_site);
    }

    // --- Speculation profile: latency, residency, loops, identity --------
    if (profiling) {
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            const StaticId sid = prep.exit(k).sid;
            const std::int64_t begin =
                fetch_tree[k] == kNeverFetched
                    ? root_time[k]
                    : fetch_tree[k];
            profile.recordResolveLatency(sid, resolve[k] - begin);
            // The successor path's fetched residency hangs off this
            // branch: DEE-slot cycles when it was held via a
            // not-predicted edge, mainline cycles otherwise.
            if (k + 1 < num_paths &&
                fetch_tree[k + 1] != kNeverFetched) {
                const std::int64_t span =
                    resolve[k + 1] - fetch_tree[k + 1];
                if (span > 0) {
                    profile.addResidency(
                        sid, static_cast<std::uint64_t>(span),
                        fetch_side[k + 1] != 0);
                }
            }
        }

        if (cfg != nullptr) {
            const Dominators doms(*cfg);
            const LoopForest forest(*cfg, doms);
            std::vector<obs::BlockLoopNest> nests(cfg->numBlocks());
            for (std::size_t bk = 0; bk < nests.size(); ++bk) {
                const auto block = static_cast<BlockId>(bk);
                nests[bk].depth = forest.loopDepth(block);
                for (const BlockId h : forest.enclosingHeaders(block))
                    nests[bk].headers.push_back(
                        static_cast<std::int64_t>(h));
            }
            profile.rollUpLoops(nests);
        } else {
            profile.rollUpLoops({});
        }

        std::string why;
        dee_assert(
            profile.attributionMatches(result.account, &why),
            "speculation-profile attribution identity violated: ", why);
    }

    // Publish run totals into the global registry: a handful of map
    // lookups per run, negligible against the simulation itself.
    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("sim.window.runs");
    reg.counter("sim.window.instructions") += result.instructions;
    reg.counter("sim.window.cycles") += result.cycles;
    reg.counter("sim.window.branches") += result.branches;
    reg.counter("sim.window.mispredicts") += result.mispredicted;
    reg.counter("sim.window.side_path_fetches") +=
        result.sidePathFetches;
    reg.stat("sim.window.speedup").add(result.speedup);
    if (issue_stats) {
        reg.stat("sim.window.peak_issue")
            .add(static_cast<double>(result.peakIssue));
    }
    if (result.account.valid())
        result.account.publish(reg, "window");
    if (profiling && !profile.empty()) {
        const std::string scope = config.profileScope.empty()
                                      ? "window"
                                      : config.profileScope;
        profile.setMeta(config.profileWorkload,
                        config.profileModel.empty()
                            ? cdModelName(config.cd)
                            : config.profileModel);
        profile.publish(reg, scope);
        obs::ProfileStore::global().merge(scope, profile);
        result.profile = std::move(profile);
    }

    return result;
}

std::vector<double>
profileBranchAccuracy(const Trace &trace, const BranchPredictor &pred)
{
    auto probe = pred.clone();
    std::vector<std::uint32_t> seen(trace.numStatic, 0);
    std::vector<std::uint32_t> right(trace.numStatic, 0);
    // Same devirtualization as the simulator's predictor pass: the
    // 2-bit default reduces to one inlined table access per branch.
    if (auto *twobit = dynamic_cast<TwoBitPredictor *>(probe.get())) {
        for (const auto &rec : trace.records) {
            if (!rec.isBranch)
                continue;
            ++seen[rec.sid];
            if (twobit->predictThenUpdate(rec.sid, rec.taken) ==
                rec.taken)
                ++right[rec.sid];
        }
    } else {
        for (const auto &rec : trace.records) {
            if (!rec.isBranch)
                continue;
            BranchQuery q;
            q.sid = rec.sid;
            q.backward = rec.backward;
            q.actual = rec.taken;
            const bool predicted = probe->predict(q);
            probe->update(q, rec.taken);
            ++seen[rec.sid];
            if (predicted == rec.taken)
                ++right[rec.sid];
        }
    }
    std::vector<double> accuracy(trace.numStatic, 1.0);
    for (std::uint32_t s = 0; s < trace.numStatic; ++s) {
        if (seen[s] > 0) {
            accuracy[s] = static_cast<double>(right[s]) /
                          static_cast<double>(seen[s]);
        }
    }
    return accuracy;
}

SimResult
oracleSim(const Trace &trace, LatencyModel latency,
          const std::vector<int> *load_latencies,
          bool gather_accounting)
{
    obs::perf::ThroughputMeter meter("Oracle");
    SimResult result = sim_detail::oracleSimWith(
        trace, latency, load_latencies, gather_accounting,
        &sim_detail::fastOracle);
    meter.addInstructions(result.instructions);
    meter.addCycles(result.cycles);
    return result;
}

SimResult
sim_detail::oracleSimWith(const Trace &trace, LatencyModel latency,
                          const std::vector<int> *load_latencies,
                          bool gather_accounting, OracleKernel sweep)
{
    SimResult result;
    result.instructions = trace.size();
    if (trace.empty())
        return result;
    if (load_latencies && load_latencies->size() != trace.size())
        dee_fatal("oracleSim loadLatencies size mismatch");

    // The ledger (when accounting) sees every instruction's ready
    // cycle, in trace order, as the sweep computes it.
    obs::SlotLedger ledger(0, 0);
    const std::int64_t last = sweep(trace, latency, load_latencies,
                                    gather_accounting ? &ledger : nullptr);
    result.branches = trace.prepared().numBranches();
    result.cycles =
        static_cast<std::uint64_t>(std::max<std::int64_t>(last, 1));
    result.speedup = static_cast<double>(result.instructions) /
                     static_cast<double>(result.cycles);
    result.predictionAccuracy = 1.0;

    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("sim.oracle.runs");
    reg.counter("sim.oracle.instructions") += result.instructions;
    reg.stat("sim.oracle.speedup").add(result.speedup);
    if (gather_accounting) {
        result.account = ledger.finalize(result.cycles);
        if (result.account.valid())
            result.account.publish(reg, "oracle");
    }
    return result;
}

} // namespace dee
