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
            out.mispredicts.set(k);
            ++out.mispredicted;
        }
    }
    return out;
}

namespace
{

/**
 * A direct run of @p sim under its one host clock, with the profile's
 * scope convention; runModel() meters its own runs and calls
 * runWindowWith() itself.
 */
SimResult
meteredRun(const WindowSim &sim, const PathPredictions &predictions,
           sim_detail::SimTraceCache *cache)
{
    const std::string &scope = sim.config().profileScope;
    obs::perf::ThroughputMeter meter(scope.empty() ? "window" : scope);
    SimResult result = sim_detail::runWindowWith(
        sim, predictions, &sim_detail::fastForward, cache);
    meter.addInstructions(result.instructions);
    meter.addCycles(result.cycles);
    return result;
}

} // namespace

SimResult
WindowSim::run(BranchPredictor &predictor) const
{
    if (const TwoBitPredictor *twobit =
            sim_detail::cacheableTwoBit(predictor, trace_)) {
        sim_detail::SimTraceCache &cache =
            sim_detail::SimTraceCache::of(trace_, *twobit);
        predictor.reset();
        return meteredRun(*this, cache.twoBit(), &cache);
    }
    return meteredRun(*this, predictPaths(trace_, predictor), nullptr);
}

SimResult
WindowSim::run(const PathPredictions &predictions) const
{
    return meteredRun(*this, predictions, nullptr);
}

sim_detail::PathRetirer::PathRetirer(
    const PreparedTrace &prep, const BitVec64 &mispredicts, int penalty,
    std::vector<std::uint64_t> *resolve_depths, obs::SlotLedger *ledger,
    const ConfidenceEstimator &meter, obs::SpeculationProfile *profile)
    : prep_(prep), mispredicts_(mispredicts), penalty_(penalty),
      resolveDepths_(resolve_depths), ledger_(ledger), meter_(meter),
      profile_(profile),
      everyPath_(resolve_depths != nullptr || profile != nullptr)
{
    // Root time 0 is 0; a depth scan reads back maxDepth + 1 of them.
    if (resolveDepths_ != nullptr)
        roots_.assign(resolveDepths_->size() + 1, 0);
}

std::size_t
sim_detail::PathRetirer::resolveDepth(std::size_t top,
                                      std::int64_t resolve) const
{
    // Every root time exceeds a resolve before cycle 0, root time 0
    // included: no root position precedes it, and it bins at depth 0.
    if (resolve < 0)
        return 0;
    // The root sat at the last path whose arrival is <= the resolve
    // time. Root times never decrease, so the ones that exceed it come
    // last: counting them back from r + 1, r's depth is one less than
    // their count (none: the root had already left r). The last bin
    // takes every depth from maxDepth on, so the count stops there.
    const std::size_t last_bin = resolveDepths_->size() - 1;
    std::size_t later = 0;
    std::size_t slot = top;
    while (later <= last_bin && roots_[slot] > resolve) {
        ++later;
        slot = slot == 0 ? roots_.size() - 1 : slot - 1;
    }
    return later == 0 ? 0 : later - 1;
}

void
sim_detail::PathRetirer::retirePath(std::uint64_t r, std::int64_t fetch,
                                    bool side, std::int64_t resolve,
                                    std::int64_t next_root)
{
    const bool mispredicted = mispredicts_.test(r);
    if (resolveDepths_ != nullptr) {
        const std::size_t top = nextSlot_; // root time r + 1
        roots_[top] = next_root;
        nextSlot_ = top + 1 == roots_.size() ? 0 : top + 1;
        if (mispredicted)
            ++(*resolveDepths_)[resolveDepth(top, resolve)];
    }
    // A squash mark past the ledger's limit is left out: it ends no
    // later than the run, whose account finalize() then skips anyway,
    // and leaving it out keeps the issue counts valid whenever every
    // issue fit.
    const std::int64_t squash_end = resolve + penalty_;
    if (ledger_ != nullptr && mispredicted &&
        squash_end <= static_cast<std::int64_t>(
                           obs::SlotLedger::kMaxCycles)) {
        const StaticId sid = prep_.exit(r).sid;
        ledger_->mark(obs::SlotClass::SquashedSpec, fetch, squash_end,
                      obs::confidenceBucket(meter_.estimate(sid)), sid);
    }
    if (profile_ != nullptr) {
        const std::int64_t latency = resolve - fetch;
        if (r > 0 && latency > 0) {
            profile_->addResidency(prep_.exit(r - 1).sid,
                                   static_cast<std::uint64_t>(latency),
                                   side);
        }
        if (r < prep_.numBranches())
            profile_->recordResolveLatency(prep_.exit(r).sid, latency);
    }
}

namespace
{

/**
 * Publishes a window run's totals: the sim.window.* counters and stats,
 * and, when @p accounting, its account (acct.window.*, or
 * acct.skipped_runs for a run the ledger could not hold). A function of
 * the result alone, so a memo hit publishes exactly what its donor run
 * did. A handful of map lookups per run, negligible against the
 * simulation itself.
 */
void
publishWindowRun(const SimResult &result, bool accounting)
{
    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("sim.window.runs");
    reg.counter("sim.window.instructions") += result.instructions;
    reg.counter("sim.window.cycles") += result.cycles;
    reg.counter("sim.window.branches") += result.branches;
    reg.counter("sim.window.mispredicts") += result.mispredicted;
    reg.counter("sim.window.side_path_fetches") +=
        result.sidePathFetches;
    reg.stat("sim.window.speedup").add(result.speedup);
    // peakIssue is set, and at least 1 on a non-empty run, exactly
    // when issue stats were gathered and every issue fit the ledger.
    if (result.peakIssue > 0) {
        reg.stat("sim.window.peak_issue")
            .add(static_cast<double>(result.peakIssue));
    }
    if (accounting)
        result.account.publish(reg, "window");
}

} // namespace

SimResult
sim_detail::runWindowWith(const WindowSim &sim,
                          const PathPredictions &predictions,
                          ForwardKernel forward, SimTraceCache *cache)
{
    const Trace &trace = sim.trace();
    const SpecTree &tree = sim.tree();
    const SimConfig &config = sim.config();
    const Cfg *cfg = sim.cfg();
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();
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

    // Per-trace facts come from the shared prepared view.
    const PreparedTrace &prep = trace.prepared();
    const BitVec64 &mispredicts = predictions.mispredicts;
    dee_assert(mispredicts.size() == prep.numPaths(),
               "predictions cover ", mispredicts.size(),
               " paths of a ", prep.numPaths(), "-path trace");
    dee_assert(cache == nullptr || &predictions == &cache->twoBit(),
               "a cached run must read its cache's predictions");

    // Static-window reach for route B: the machine holds E_T branch
    // paths of static code regardless of how the tree allocates them
    // between ML and DEE regions (in Levo, DEE paths are extra state
    // columns over the *same* IQ rows), so equal resources mean equal
    // static reach across models.
    const int window_reach =
        config.windowReachOverride > 0
            ? config.windowReachOverride
            : std::max(tree.numPaths(), 1);
    const bool use_cd = config.cd != CdModel::Restrictive;

    // Profiling rides the accounting ledger, so it forces accounting on.
    const bool profiling = obs::profilingRequested();
    const bool accounting = config.gatherAccounting || profiling;

    // --- Dynamic control-dependence scopes for route B -------------------
    // join_idx[k] is the dynamic index at which the branch ending path
    // k stops controlling execution (see PreparedTrace::joinIndex()).
    static const std::vector<std::uint32_t> kNoJoins;
    const std::vector<std::uint32_t> &join_idx =
        use_cd ? prep.joinIndex(*cfg) : kNoJoins;

    // --- A run the trace has made already ---------------------------------
    // Same tree shape, config and join table on the same 2-bit
    // outcomes: the donor's result, published the same way (see
    // trace_cache.cc). Reference-kernel runs neither read nor fill it.
    const bool memo = cache != nullptr && forward == &fastForward &&
                      !tracing && !profiling &&
                      config.loadLatencies == nullptr &&
                      config.confidence.accuracy == nullptr;
    std::string key;
    if (memo) {
        key = runKey(tree, config, join_idx, cache->longestWalk());
        if (std::optional<SimResult> hit = cache->find(key)) {
            publishWindowRun(*hit, accounting);
            return std::move(*hit);
        }
    }

    result.branches = predictions.branches;
    result.mispredicted = predictions.mispredicted;
    result.predictionAccuracy = predictions.accuracy();

    // --- Per-branch confidence, replayed from the predictor pass ----------
    // It attributes squashed speculative work to accuracy buckets, and
    // feeds the speculation profiler's per-site execution counts. The
    // trace's cache holds the replay of its 2-bit outcomes; a profiled
    // run replays them itself, to record each instance's online bucket.
    obs::SpeculationProfile profile;
    const bool replay = accounting && (cache == nullptr || profiling);
    ConfidenceEstimator replayed(replay ? trace.numStatic : 0);
    if (replay) {
        const obs::hotspot::HotspotPhase hot_predict(
            hot, "window", obs::hotspot::Phase::Fetch);
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            const PathExit &b = prep.exit(k);
            const bool mispredicted = mispredicts.test(k);
            if (profiling) {
                // Online confidence: the bucket the site occupied
                // when this instance resolved, before its outcome
                // updates the meter.
                profile.recordExecution(
                    b.sid, static_cast<std::int64_t>(b.block),
                    mispredicted,
                    obs::confidenceBucket(replayed.estimate(b.sid)));
            }
            replayed.record(b.sid, !mispredicted);
        }
    }
    const ConfidenceEstimator &confidence_meter =
        cache != nullptr && !replay ? cache->confidence() : replayed;

    // --- Forward pass over branch paths ----------------------------------
    // The slot ledger outlives the kernel: the kernel records each
    // issue cycle as it computes it, in trace order, and the retire
    // step marks each mispredict's squash as the root leaves it; the
    // epilogue reads the per-cycle issue counts, adds the starved
    // marks and finalizes. Only a profiled run attributes squash to
    // sites.
    std::optional<obs::SlotLedger> ledger;
    if (accounting || config.gatherIssueStats) {
        ledger.emplace(config.peLimit > 0
                           ? static_cast<std::uint64_t>(config.peLimit)
                           : 0,
                       n / 2, /*attribute_sites=*/profiling);
    }
    if (config.gatherResolveStats) {
        result.resolveDepthCounts.assign(
            static_cast<std::size_t>(tree.maxDepth()) + 1, 0);
    }
    PathRetirer retirer(
        prep, mispredicts, config.mispredictPenalty,
        config.gatherResolveStats ? &result.resolveDepthCounts : nullptr,
        accounting ? &*ledger : nullptr, confidence_meter,
        profiling ? &profile : nullptr);
    ForwardCtx ctx{
        .trace = trace,
        .prepared = prep,
        .joinIdx = join_idx,
        .tree = tree,
        .config = config,
        .mispredicts = mispredicts,
        .windowReach = window_reach,
        .profiling = profiling,
        .accounting = accounting,
        .tracing = tracing,
        .hot = hot,
        .tracer = tracer,
        .profile = profile,
        .ledger = ledger.has_value() ? &*ledger : nullptr,
        .retirer = retirer,
        .starvedCycles = {},
        .sidePathFetches = 0,
    };
    const std::int64_t last_cycle = forward(ctx);
    result.sidePathFetches = ctx.sidePathFetches;

    // --- Totals -----------------------------------------------------------
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

    // --- Cycle accounting: classify every issue-slot-cycle ----------------
    // The kernel already recorded every instruction's issue cycle and
    // the retire step every squash.
    if (accounting) {
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

    // --- Speculation profile: loop headers, identity ----------------------
    if (profiling) {
        if (cfg != nullptr) {
            const Dominators doms(*cfg);
            const LoopForest forest(*cfg, doms);
            std::vector<std::vector<std::int64_t>> headers(
                cfg->numBlocks());
            for (std::size_t bk = 0; bk < headers.size(); ++bk) {
                for (const BlockId h :
                     forest.enclosingHeaders(static_cast<BlockId>(bk)))
                    headers[bk].push_back(static_cast<std::int64_t>(h));
            }
            profile.setLoopHeaders(headers);
        }

        std::string why;
        dee_assert(
            profile.attributionMatches(result.account, &why),
            "speculation-profile attribution identity violated: ", why);
    }

    publishWindowRun(result, accounting);
    if (profiling && !profile.empty()) {
        const std::string scope = config.profileScope.empty()
                                      ? "window"
                                      : config.profileScope;
        profile.setMeta(config.profileWorkload,
                        config.profileModel.empty()
                            ? cdModelName(config.cd)
                            : config.profileModel);
        obs::ProfileStore::global().merge(scope, profile);
        result.profile = std::move(profile);
    }
    if (memo)
        cache->remember(std::move(key), result);
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
        result.account.publish(reg, "oracle");
    }
    return result;
}

} // namespace dee
