#include "reference_engine.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <unordered_map>

#include "common/invariant.hh"
#include "obs/hotspot/hotspot.hh"

namespace dee::sim_detail
{

namespace
{

/** Index value meaning "no previous writer". */
constexpr std::int64_t kNoDep = -1;

} // namespace

std::int64_t
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
    // Per path: 1 if its exit branch was predicted right or the path
    // has none, else 0.
    std::vector<std::uint8_t> correct(num_paths, 1);
    ctx.mispredicts.forEachSet([&correct](std::size_t k) { correct[k] = 0; });
    const std::vector<DynIndex> &join_idx = ctx.joinIdx;

    // Issue cycle per instruction: a dependence may name any earlier
    // one, so the whole trace's cycles stay live for the run. Fetch
    // and root times, too, are kept for every path.
    std::vector<std::int64_t> exec(n, 0);
    std::vector<std::int64_t> fetch_tree(
        num_paths, std::numeric_limits<std::int64_t>::max());
    std::vector<std::int64_t> root_time(num_paths + 1, 0);
    // Mispredicted branch paths crossed via a not-predicted edge on the
    // walk that fetched each path (alternate state held in hardware).
    std::vector<std::vector<std::uint64_t>> bypass(num_paths);
    // Profiler side data: whether each path's earliest fetch crossed a
    // not-predicted edge (DEE-slot vs. mainline residency), and the
    // tree's Theorem-1 assignment ranks for cp/rank attribution.
    std::vector<std::uint8_t> fetch_side(num_paths, 0);
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
                    fetch_side[r + d + 1] = crossed_npred.empty() ? 0 : 1;
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
                    fetch_side[r + d + 1] = crossed_npred.empty() ? 0 : 1;
                    if (profiling) {
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
        ctx.retirer.retire(r, fetch_tree[r], fetch_side[r] != 0, res,
                           move);

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
    return root_time[num_paths];
}

std::int64_t
referenceOracle(const Trace &trace, const LatencyModel &latency,
                const std::vector<int> *load_latencies,
                obs::SlotLedger *ledger)
{
    const auto &records = trace.records;
    std::int64_t last = 0;
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
    }

    if (ledger != nullptr) {
        for (std::uint64_t i = 0; i < records.size(); ++i) {
            const OpClass cls = opClass(records[i].op);
            const int lat = (cls == OpClass::Load && load_latencies)
                                ? (*load_latencies)[i]
                                : latency.of(cls);
            ledger->issue(done[i] - lat);
        }
    }
    return last;
}

} // namespace dee::sim_detail
