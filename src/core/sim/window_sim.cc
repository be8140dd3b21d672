#include "core/sim/window_sim.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "cfg/structure.hh"
#include "common/bit_matrix.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sim/fast_engine.hh"
#include "core/sim/forward_pass.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"
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

namespace
{

/** Index value meaning "no previous writer". */
constexpr std::int64_t kNoDep = -1;

} // namespace

namespace sim_detail
{

/**
 * The seed forward pass, preserved verbatim as ground truth for the
 * fast engine (tests/test_engine_differential.cc). One pointer-chasing
 * walk and one dependence scan per path, exactly as originally written.
 */
void
referenceForward(ForwardCtx &ctx)
{
    const auto &records = ctx.trace.records;
    const std::uint64_t n = records.size();
    const PreparedTrace &prep = ctx.prepared;
    const std::uint64_t num_paths = prep.numPaths();
    const SpecTree &tree = ctx.tree;
    const SimConfig &config = ctx.config;
    const int window_reach = ctx.windowReach;
    const int penalty = config.mispredictPenalty;
    const bool use_cd = config.cd != CdModel::Restrictive;
    const bool serial_branches = config.cd != CdModel::Minimal;
    const bool use_confidence = config.confidence.accuracy != nullptr;
    const bool profiling = ctx.profiling;
    const bool accounting = ctx.accounting;
    const bool tracing = ctx.tracing;
    const bool hot = ctx.hot;
    obs::Tracer &tracer = ctx.tracer;
    obs::SpeculationProfile &profile = ctx.profile;
    const std::vector<std::uint8_t> &correct = ctx.correct;
    const std::vector<DynIndex> &join_idx = ctx.joinIdx;

    std::vector<std::int64_t> &exec = ctx.exec;
    exec.assign(n, 0);
    std::vector<std::int64_t> &fetch_tree = ctx.fetchTree;
    fetch_tree.assign(num_paths, kNeverFetched);
    std::vector<std::int64_t> &root_time = ctx.rootTime;
    root_time.assign(num_paths + 1, 0);
    std::vector<std::int64_t> &resolve = ctx.resolve;
    resolve.assign(num_paths, 0);
    // Mispredicted branch paths crossed via a not-predicted edge on the
    // walk that fetched each path (alternate state held in hardware).
    std::vector<std::vector<std::uint64_t>> bypass(num_paths);
    // Profiler side data: whether each path's earliest fetch crossed a
    // not-predicted edge (DEE-slot vs. mainline residency), and the
    // tree's Theorem-1 assignment ranks for cp/rank attribution.
    std::vector<std::uint8_t> &fetch_side = ctx.fetchSide;
    fetch_side.assign(profiling ? num_paths : 0, 0);
    const std::vector<int> assignment_ranks =
        profiling && !use_confidence ? tree.assignmentRanks()
                                     : std::vector<int>();

    std::array<std::int64_t, kNumRegs> reg_writer;
    reg_writer.fill(kNoDep);
    std::unordered_map<std::uint64_t, std::int64_t> mem_writer;

    std::deque<PendingMispredict> window_mispredicts;
    std::int64_t last_resolve = -1;
    IssueSlots slots(config.peLimit,
                     accounting && config.peLimit > 0
                         ? &ctx.starvedCycles
                         : nullptr);

    // Effective completion latency of a dynamic instruction (cache-
    // model load latencies override the class latency when provided).
    auto lat_of = [&](DynIndex idx) {
        const OpClass c = opClass(records[idx].op);
        if (c == OpClass::Load && config.loadLatencies)
            return (*config.loadLatencies)[idx];
        return config.latency.of(c);
    };

    for (std::uint64_t r = 0; r < num_paths; ++r) {
        const std::int64_t now = root_time[r];
        const BranchPath path = prep.path(r);

        // Coverage walk from this root position: relax fetch times of
        // every covered path. Already-fetched code stays fetched (min).
        if (now < fetch_tree[r])
            fetch_tree[r] = now; // distance 0: always covered
        if (use_confidence) {
            const obs::hotspot::HotspotPhase hot_fetch(
                hot, "window", obs::hotspot::Phase::Fetch);
            // Confidence-gated coverage: follow correct predictions to
            // the ML depth; one low-confidence mispredict may be
            // crossed, extending coverage by sideLen paths.
            const int ml_depth = tree.maxDepth();
            std::vector<std::uint64_t> crossed_npred;
            std::int64_t limit = ml_depth;
            for (std::uint64_t d = 0;
                 r + d + 1 < num_paths &&
                 static_cast<std::int64_t>(d) < limit;
                 ++d) {
                if (!prep.path(r + d).endsInBranch)
                    break;
                if (!correct[r + d]) {
                    if (!crossed_npred.empty())
                        break; // only one mispredict deep, like DEE
                    const TraceRecord &b =
                        records[prep.path(r + d).branchIndex()];
                    const double acc =
                        b.sid < config.confidence.accuracy->size()
                            ? (*config.confidence.accuracy)[b.sid]
                            : 1.0;
                    if (acc >= config.confidence.threshold)
                        break; // confident branch: no side path here
                    crossed_npred.push_back(r + d);
                    limit = static_cast<std::int64_t>(d) +
                            config.confidence.sideLen + 1;
                }
                if (now < fetch_tree[r + d + 1]) {
                    fetch_tree[r + d + 1] = now;
                    if (profiling)
                        fetch_side[r + d + 1] =
                            crossed_npred.empty() ? 0 : 1;
                    if (!crossed_npred.empty()) {
                        ++ctx.sidePathFetches;
                        DEE_INVARIANT(crossed_npred.front() >= r &&
                                          crossed_npred.back() <= r + d,
                                      "bypass set escapes its walk");
                        bypass[r + d + 1] = crossed_npred;
                        dee_trace_event_if(
                            tracing, tracer, "sim.side_path_fetch", 'i', now,
                            "path",
                            static_cast<std::int64_t>(r + d + 1),
                            "root", static_cast<std::int64_t>(r));
                    }
                }
            }
        } else {
            const obs::hotspot::HotspotPhase hot_fetch(
                hot, "window", obs::hotspot::Phase::Fetch);
            int node = SpecTree::kOrigin;
            std::vector<std::uint64_t> crossed_npred;
            // The walk relaxes fetch times of paths r+d+1, so it must
            // stop at the last path: a cap-truncated trace can end in
            // a branch, making even the final path endsInBranch.
            for (std::uint64_t d = 0; r + d + 1 < num_paths; ++d) {
                if (!prep.path(r + d).endsInBranch)
                    break;
                node = tree.child(node, correct[r + d] != 0);
                if (node == kNoNode)
                    break;
                if (!correct[r + d])
                    crossed_npred.push_back(r + d);
                if (now < fetch_tree[r + d + 1]) {
                    fetch_tree[r + d + 1] = now;
                    if (profiling) {
                        fetch_side[r + d + 1] =
                            crossed_npred.empty() ? 0 : 1;
                        // Theorem-1 attribution at assignment time:
                        // the covering node's cumulative probability
                        // and resource-assignment rank, charged to
                        // the branch the path hangs off.
                        profile.recordAssignment(
                            records[prep.path(r + d).branchIndex()].sid,
                            tree.node(node).cp,
                            assignment_ranks[static_cast<std::size_t>(
                                node)]);
                    }
                    if (!crossed_npred.empty()) {
                        ++ctx.sidePathFetches;
                        DEE_INVARIANT(crossed_npred.front() >= r &&
                                          crossed_npred.back() <= r + d,
                                      "bypass set escapes its walk");
                        bypass[r + d + 1] = crossed_npred;
                        dee_trace_event_if(
                            tracing, tracer, "sim.side_path_fetch", 'i', now,
                            "path",
                            static_cast<std::int64_t>(r + d + 1),
                            "root", static_cast<std::int64_t>(r));
                    }
                }
            }
        }

        // Code at the root is never fetched later than the root's own
        // arrival: coverage walks only ever relax fetch times.
        DEE_INVARIANT(fetch_tree[r] <= now, "path ", r,
                      " fetched after its root time");

        // Retire mispredicts whose window reach or control scope ended
        // (divergent ones stall until resolution wherever they are, so
        // only the reach bound retires them).
        while (!window_mispredicts.empty() &&
               (window_mispredicts.front().pathIdx + window_reach <= r ||
                (!window_mispredicts.front().divergent &&
                 window_mispredicts.front().joinIdx <= path.begin))) {
            window_mispredicts.pop_front();
        }

        // Execute this path's instructions (trace order; dependencies
        // always point backward, so their exec times are final).
        const std::int64_t fetch_a = fetch_tree[r];
        const std::int64_t fetch_b =
            root_time[r > static_cast<std::uint64_t>(window_reach)
                          ? r - window_reach
                          : 0];
        std::int64_t done = now;
        {
            const obs::hotspot::HotspotPhase hot_issue(
                hot, "window", obs::hotspot::Phase::Issue);
            for (DynIndex i = path.begin; i < path.end; ++i) {
                const TraceRecord &rec = records[i];

                std::int64_t data_ready = 0;
                auto add_dep = [&](std::int64_t dep) {
                    if (dep == kNoDep)
                        return;
                    const std::int64_t avail =
                        exec[dep] + lat_of(static_cast<DynIndex>(dep));
                    data_ready = std::max(data_ready, avail);
                };
                if (rec.rs1 != kNoReg && rec.rs1 != kZeroReg)
                    add_dep(reg_writer[rec.rs1]);
                if (rec.rs2 != kNoReg && rec.rs2 != kZeroReg)
                    add_dep(reg_writer[rec.rs2]);
                const OpClass cls = opClass(rec.op);
                if (cls == OpClass::Load || cls == OpClass::Store) {
                    auto it = mem_writer.find(rec.memAddr);
                    if (it != mem_writer.end())
                        add_dep(it->second);
                }

                // Route A: speculation-tree coverage.
                std::int64_t t = std::max(fetch_a, data_ready);

                // Route B: reconvergent-window CD execution. Stall on
                // a mispredicted branch if this instruction is inside
                // its dynamic control scope (decided by the branch) or
                // the branch diverges (loop latch: actual-path code
                // was never fetched) — unless an EE/DEE alternate path
                // holds the code.
                if (use_cd) {
                    std::int64_t stall = 0;
                    for (const auto &m : window_mispredicts) {
                        if (i >= m.joinIdx && !m.divergent)
                            continue;
                        if (m.resolveTime + penalty <= stall)
                            continue;
                        const auto &byp = bypass[r];
                        if (std::find(byp.begin(), byp.end(),
                                      m.pathIdx) != byp.end()) {
                            continue; // held by a side path / EE subtree
                        }
                        stall = m.resolveTime + penalty;
                    }
                    const std::int64_t t_b =
                        std::max({fetch_b, data_ready, stall});
                    t = std::min(t, t_b);
                }

                t = slots.claim(t);
                exec[i] = t;
                if (ctx.ledger != nullptr)
                    ctx.ledger->issue(t);
                done = std::max(done, t + lat_of(i));

                // Update renaming tables (flow-only for registers;
                // loads depend on the last store, stores on the last
                // store — "somewhat more restrictive" memory deps, as
                // in CONDEL-2).
                if (rec.rd != kNoReg && rec.rd != kZeroReg)
                    reg_writer[rec.rd] = static_cast<std::int64_t>(i);
                if (cls == OpClass::Store)
                    mem_writer[rec.memAddr] =
                        static_cast<std::int64_t>(i);
            }
        }

        // Branch resolution (serialized except under MF).
        std::int64_t res = done;
        if (path.endsInBranch) {
            const obs::hotspot::HotspotPhase hot_resolve(
                hot, "window", obs::hotspot::Phase::Resolve);
            const DynIndex b = path.branchIndex();
            res = exec[b] + config.latency.of(OpClass::CondBranch);
            if (serial_branches)
                res = std::max(res, last_resolve + 1);
            last_resolve = res;
            if (use_cd && !correct[r] &&
                (records[b].backward || join_idx[r] > path.end)) {
                window_mispredicts.push_back(PendingMispredict{
                    r, join_idx[r], res, records[b].backward});
            }
        }
        resolve[r] = res;

        // Tree movement: root leaves this path once the path has fully
        // executed and its branch has resolved (+ penalty on mispredict).
        const obs::hotspot::HotspotPhase hot_move(
            hot, "window", obs::hotspot::Phase::TreeMove);
        const std::int64_t move =
            std::max({root_time[r], done,
                      res + (correct[r] ? 0 : penalty)});
        // The root only ever advances in time (static-window column
        // ordering: path r+1's column is recycled at or after path r's).
        DEE_INVARIANT(move >= now, "root time went backwards at path ",
                      r);
        root_time[r + 1] = move;

        if (!correct[r]) {
            dee_trace_event_if(tracing, tracer, "sim.copyback", 'i',
                               res + penalty, "path",
                               static_cast<std::int64_t>(r));
        }
        dee_trace_event_if(tracing, tracer, "sim.root_advance", 'i',
                           move, "path",
                           static_cast<std::int64_t>(r + 1),
                           "mispredict",
                           correct[r] ? std::int64_t{0}
                                      : std::int64_t{1});
    }
}

} // namespace sim_detail

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
    obs::ScopedTimer run_timer("sim.window.run_ms");
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing =
        DEE_OBS_TRACE_ENABLED != 0 && tracer.enabled();
    // Host hot-path attribution: one hoisted flag (the tracing idiom)
    // guards every per-path marker below; the outer catch-all makes
    // run() glue land on window.other instead of unattributed.
    const bool hot = obs::hotspot::Sampler::process().active();
    const obs::hotspot::HotspotPhase hot_run(
        hot, "window", obs::hotspot::Phase::Other);

    const std::uint64_t n = trace_.size();
    SimResult result;
    result.instructions = n;
    if (n == 0)
        return result;

    // Per-trace facts come from the shared prepared view; the
    // per-thread arena holds only this cell's outputs, recycled across
    // runs instead of re-faulted from the allocator every run.
    const PreparedTrace &prep = trace_.prepared();
    const std::uint64_t num_paths = prep.numPaths();
    dee_assert(predictions.correct.size() == num_paths,
               "predictions cover ", predictions.correct.size(),
               " paths of a ", num_paths, "-path trace");
    static thread_local sim_detail::RunArena arena;

    // Static-window reach for route B: the machine holds E_T branch
    // paths of static code regardless of how the tree allocates them
    // between ML and DEE regions (in Levo, DEE paths are extra state
    // columns over the *same* IQ rows), so equal resources mean equal
    // static reach across models.
    const int window_reach =
        config_.windowReachOverride > 0
            ? config_.windowReachOverride
            : std::max(tree_.numPaths(), 1);
    const int penalty = config_.mispredictPenalty;
    const bool use_cd = config_.cd != CdModel::Restrictive;

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
        config_.gatherProfile || obs::profilingRequested();
    const bool accounting = config_.gatherAccounting || profiling;
    obs::SpeculationProfile profile;
    ConfidenceEstimator confidence_meter(
        accounting ? trace_.numStatic : 0);
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
        use_cd ? prep.joinIndex(*cfg_) : kNoJoins;

    // --- Forward pass over branch paths ----------------------------------
    // The accounting ledger outlives the kernel: issue cycles are
    // recorded inline as the kernel computes them (same values, same
    // trace order as the old post-pass over exec[]), and the epilogue
    // adds the stall marks and finalizes.
    std::optional<obs::SlotLedger> ledger;
    if (accounting) {
        ledger.emplace(config_.peLimit > 0
                           ? static_cast<std::uint64_t>(config_.peLimit)
                           : 0,
                       n / 2);
    }
    sim_detail::ForwardCtx ctx{
        .trace = trace_,
        .prepared = prep,
        .joinIdx = join_idx,
        .tree = tree_,
        .config = config_,
        .correct = correct,
        .windowReach = window_reach,
        .profiling = profiling,
        .accounting = accounting,
        .tracing = tracing,
        .hot = hot,
        .tracer = tracer,
        .profile = profile,
        .ledger = ledger.has_value() ? &*ledger : nullptr,
        .exec = arena.exec,
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
    if (config_.engine == Engine::Reference)
        sim_detail::referenceForward(ctx);
    else
        sim_detail::fastForward(ctx);
    const std::vector<std::int64_t> &exec = ctx.exec;
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
    if (config_.gatherIssueStats) {
        std::unordered_map<std::int64_t, std::uint32_t> per_cycle;
        per_cycle.reserve(n / 4);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint32_t count = ++per_cycle[exec[i]];
            result.peakIssue =
                std::max<std::uint64_t>(result.peakIssue, count);
        }
        if (tracing) {
            // PE-issue occupancy as Chrome counter events, in cycle
            // order so the track renders as a timeline.
            std::vector<std::pair<std::int64_t, std::uint32_t>> cycles(
                per_cycle.begin(), per_cycle.end());
            std::sort(cycles.begin(), cycles.end());
            for (const auto &[cycle, count] : cycles) {
                dee_trace_event_if(tracing, tracer, "sim.issue_occupancy", 'C',
                                cycle, "value",
                                static_cast<std::int64_t>(count));
            }
        }
    }
    result.cycles = static_cast<std::uint64_t>(last_cycle);
    result.speedup = static_cast<double>(n) /
                     static_cast<double>(std::max<std::int64_t>(
                         last_cycle, 1));

    // --- Where do mispredictions resolve in the tree? ---------------------
    if (config_.gatherResolveStats) {
        result.resolveDepthCounts.assign(
            static_cast<std::size_t>(tree_.maxDepth()) + 1, 0);
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
                fetch_tree[m] == sim_detail::kNeverFetched
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
                fetch_tree[k] == sim_detail::kNeverFetched
                    ? root_time[k]
                    : fetch_tree[k];
            profile.recordResolveLatency(sid, resolve[k] - begin);
            // The successor path's fetched residency hangs off this
            // branch: DEE-slot cycles when it was held via a
            // not-predicted edge, mainline cycles otherwise.
            if (k + 1 < num_paths &&
                fetch_tree[k + 1] != sim_detail::kNeverFetched) {
                const std::int64_t span =
                    resolve[k + 1] - fetch_tree[k + 1];
                if (span > 0) {
                    profile.addResidency(
                        sid, static_cast<std::uint64_t>(span),
                        fetch_side[k + 1] != 0);
                }
            }
        }

        if (cfg_ != nullptr) {
            const Dominators doms(*cfg_);
            const LoopForest forest(*cfg_, doms);
            std::vector<obs::BlockLoopNest> nests(cfg_->numBlocks());
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
    if (config_.gatherIssueStats) {
        reg.stat("sim.window.peak_issue")
            .add(static_cast<double>(result.peakIssue));
    }
    if (result.account.valid())
        result.account.publish(reg, "window");
    if (profiling && !profile.empty()) {
        const std::string scope = config_.profileScope.empty()
                                      ? "window"
                                      : config_.profileScope;
        profile.setMeta(config_.profileWorkload,
                        config_.profileModel.empty()
                            ? cdModelName(config_.cd)
                            : config_.profileModel);
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
          bool gather_accounting, Engine engine)
{
    obs::ScopedTimer run_timer("sim.oracle.run_ms");

    const auto &records = trace.records;
    SimResult result;
    result.instructions = records.size();
    if (records.empty())
        return result;
    if (load_latencies && load_latencies->size() != records.size())
        dee_fatal("oracleSim loadLatencies size mismatch");

    std::int64_t last = 0;
    if (engine == Engine::Fast) {
        // Dataflow + accounting in one sweep over the shared decode;
        // the ledger (when accounting) sees the same issue cycles in
        // the same trace order as the reference's separate second pass.
        const PreparedTrace &prep = trace.prepared();
        obs::SlotLedger ledger(0, 0);
        last = sim_detail::fastOracle(prep, latency, load_latencies,
                                      gather_accounting ? &ledger
                                                        : nullptr);
        result.branches = prep.numBranches();
        result.cycles = static_cast<std::uint64_t>(
            std::max<std::int64_t>(last, 1));
        result.speedup = static_cast<double>(records.size()) /
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

    std::vector<std::int64_t> done(records.size(), 0);
    std::array<std::int64_t, kNumRegs> reg_writer;
    reg_writer.fill(kNoDep);
    std::unordered_map<std::uint64_t, std::int64_t> mem_writer;

    for (std::uint64_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        std::int64_t ready = 0;
        auto add_dep = [&](std::int64_t dep) {
            if (dep != kNoDep)
                ready = std::max(ready, done[dep]);
        };
        if (rec.rs1 != kNoReg && rec.rs1 != kZeroReg)
            add_dep(reg_writer[rec.rs1]);
        if (rec.rs2 != kNoReg && rec.rs2 != kZeroReg)
            add_dep(reg_writer[rec.rs2]);
        const OpClass cls = opClass(rec.op);
        if (cls == OpClass::Load || cls == OpClass::Store) {
            auto it = mem_writer.find(rec.memAddr);
            if (it != mem_writer.end())
                add_dep(it->second);
        }
        const int lat = (cls == OpClass::Load && load_latencies)
                            ? (*load_latencies)[i]
                            : latency.of(cls);
        done[i] = ready + lat;
        last = std::max(last, done[i]);

        if (rec.rd != kNoReg && rec.rd != kZeroReg)
            reg_writer[rec.rd] = static_cast<std::int64_t>(i);
        if (cls == OpClass::Store)
            mem_writer[rec.memAddr] = static_cast<std::int64_t>(i);

        if (rec.isBranch) {
            ++result.branches;
        }
    }
    result.cycles = static_cast<std::uint64_t>(std::max<std::int64_t>(
        last, 1));
    result.speedup = static_cast<double>(records.size()) /
                     static_cast<double>(result.cycles);
    result.predictionAccuracy = 1.0;

    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("sim.oracle.runs");
    reg.counter("sim.oracle.instructions") += result.instructions;
    reg.stat("sim.oracle.speedup").add(result.speedup);

    if (gather_accounting) {
        obs::SlotLedger ledger(0, result.cycles);
        for (std::uint64_t i = 0; i < records.size(); ++i) {
            const OpClass cls = opClass(records[i].op);
            const int lat = (cls == OpClass::Load && load_latencies)
                                ? (*load_latencies)[i]
                                : latency.of(cls);
            ledger.issue(done[i] - lat);
        }
        result.account = ledger.finalize(result.cycles);
        if (result.account.valid())
            result.account.publish(reg, "oracle");
    }
    return result;
}

} // namespace dee
