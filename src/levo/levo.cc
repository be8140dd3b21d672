#include "levo/levo.hh"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "cfg/structure.hh"
#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/perf/perf.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"

namespace dee
{

double
LevoConfig::transistorEstimateMillions() const
{
    // Section 4.3: a CONDEL-2 style core (IQ 32x8 with matrices and
    // PEs) is on the order of tens of millions of transistors; each
    // additional 1-column DEE path costs about 1 million. Scale the
    // core with the matrix area (rows x columns).
    const double core =
        30.0 * (static_cast<double>(iqRows) * columns) / (32.0 * 8.0);
    const double dee = 1.0 * deePaths * deeColumns;
    return core + dee;
}

double
LevoResult::loopCaptureFraction() const
{
    if (backwardTakenBranches == 0)
        return 0.0;
    return static_cast<double>(capturedLoopBranches) /
           static_cast<double>(backwardTakenBranches);
}

std::string
LevoResult::render() const
{
    std::ostringstream oss;
    oss << "instructions=" << instructions << " cycles=" << cycles
        << " ipc=" << ipc << " branches=" << branches << " mispredicted="
        << mispredicted << " deeCovered=" << deeCovered << " refills="
        << refills << " columnStalls=" << columnStalls
        << " vePredications=" << vePredications << " loopCapture="
        << loopCaptureFraction() << " peakPending="
        << peakPendingBranches << " rowUtil=" << meanRowUtilization;
    if (account.valid()) {
        oss << " waste=" << account.wasteFraction()
            << " useful=" << account.usefulFraction();
    }
    oss << (halted ? " halted" : " capped");
    return oss.str();
}

LevoMachine::LevoMachine(const Program &program, Cfg cfg,
                         const LevoConfig &config)
    : steps_(decodeProgram(program)), cfg_(std::move(cfg)),
      config_(config)
{
    if (config_.iqRows < 1 || config_.columns < 1)
        dee_fatal("Levo IQ must be at least 1x1");
    if (config_.deePaths < 0 || config_.deeColumns < 1)
        dee_fatal("bad DEE path configuration");
}

namespace
{

/**
 * Closes a run's slot @p ledger at @p cycles cycles and, when
 * @p profile is given, charges its squashed slots to their branch
 * sites there.
 */
obs::CycleAccount
closeLedger(obs::SlotLedger &ledger, std::uint64_t cycles,
            obs::Tracer *tracer, obs::SpeculationProfile *profile)
{
    std::unordered_map<std::uint32_t, std::uint64_t> squash_by_site;
    obs::CycleAccount account = ledger.finalize(
        cycles, tracer, profile != nullptr ? &squash_by_site : nullptr);
    if (profile != nullptr)
        profile->attributeSquash(squash_by_site);
    return account;
}

} // namespace

// Aligned to a cache line, so that where the linker places the loop
// does not move with unrelated code.
[[gnu::aligned(64)]] LevoResult
LevoMachine::run(std::uint64_t max_instrs) const
{
    // The run's one host clock: throughput metering under the
    // profiler's scope convention ("<workload>.Levo" when configured,
    // bare "Levo" otherwise).
    obs::perf::ThroughputMeter perf_meter(
        config_.profileScope.empty() ? "Levo" : config_.profileScope);
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();
    // Host hot-path attribution: one hoisted flag (the tracing idiom)
    // guards the phase markers below; the outer catch-all makes run()
    // glue land on levo.other instead of unattributed.
    const bool hot = obs::hotspot::Sampler::process().active();
    const obs::hotspot::HotspotPhase hot_run(
        hot, "levo", obs::hotspot::Phase::Other);

    const int n = config_.iqRows;
    const int m = config_.columns;
    const auto num_instrs = static_cast<std::uint32_t>(steps_.size());

    LevoResult result;
    RegFile regs{};
    WordMemory mem;

    auto predictor = makePredictor(config_.predictor, num_instrs);

    // Cycle accounting over the machine's n per-row PEs; the cycle
    // count is unknown until the walk ends, so the ledger grows.
    // Profiling rides the ledger's squash attribution, so it forces
    // accounting on and keeps the ledger's per-cycle mark sites.
    const bool profiling =
        config_.gatherProfile || obs::profilingRequested();
    const bool accounting = config_.gatherAccounting || profiling;
    obs::SpeculationProfile profile;
    obs::SlotLedger ledger(static_cast<std::uint64_t>(n), 0,
                           /*attribute_sites=*/profiling);
    ConfidenceEstimator confidence_meter(accounting ? num_instrs : 0);

    // --- Timing state ----------------------------------------------------
    // Ready cycles per register-file slot (slot 0 stays 0 and the
    // write sink is never read) and per memory word id (id 0, which
    // every step but a store or a load of a stored word reads, stays 0
    // too).
    RegFile reg_ready{};
    std::vector<std::int64_t> mem_ready(1, 0);
    std::vector<std::int64_t> row_free(n, 0);
    std::vector<std::int64_t> col_last_complete(m, 0);

    std::int64_t fetch_ready = 0;
    std::int64_t stall_all_until = 0;
    std::int64_t max_complete = 0;
    std::int64_t last_control_complete = 0;

    // Resolve times of branches still pending (for DEE path coverage:
    // DEE paths attach to the oldest pending branches).
    std::deque<std::int64_t> pending_resolves;

    // Covered-mispredict penalties: instances inside the branch's dynamic
    // control scope (until its join block is reached) re-execute no
    // earlier than `until`; the scope closes when the walk reaches the
    // branch's immediate postdominator. A DEE path holds only
    // deeColumns x iqRows instructions of alternate state — code beyond
    // that capacity waits for resolution like an uncovered mispredict.
    struct CdStall
    {
        BlockId joinBlock;
        std::int64_t until;
        std::int64_t capacityLeft;
    };
    std::vector<CdStall> cd_stalls;
    const std::int64_t dee_capacity =
        static_cast<std::int64_t>(config_.deeColumns) * config_.iqRows;

    std::uint32_t iq_base = 0;
    int cur_col = 0;

    // --- Dynamic walk ------------------------------------------------------
    // Static id to static id through the decoded program, as the
    // interpreter steps.
    const DecodedStep *const steps = steps_.data();
    StaticId sid = 0;

    {
        // The whole walk samples as issue — one marker outside the
        // loop, never per instruction; the rare events below (refill,
        // branch resolution, copy-back) nest their own phases.
        const obs::hotspot::HotspotPhase hot_issue(
            hot, "levo", obs::hotspot::Phase::Issue);
        while (result.instructions < max_instrs) {
            dee_assert(sid < num_instrs, "fell off program end");
            const DecodedStep &inst = steps[sid];

            // Window residence: refill (linear-code mode) when the dynamic
            // stream leaves the IQ's static range.
            if (sid < iq_base ||
                sid >= iq_base + static_cast<std::uint32_t>(n)) {
                const obs::hotspot::HotspotPhase hot_refill(
                    hot, "levo", obs::hotspot::Phase::Fetch);
                ++result.refills;
                iq_base = sid;
                fetch_ready = std::max(fetch_ready, last_control_complete) +
                              config_.refillPenalty;
                dee_trace_event_if(tracing, tracer, "levo.refill", 'i',
                                   fetch_ready, "iq_base",
                                   static_cast<std::int64_t>(sid));
                if (accounting) {
                    ledger.mark(obs::SlotClass::RefillStall,
                                fetch_ready - config_.refillPenalty,
                                fetch_ready);
                }
                cur_col = 0;
            }
            const int row = static_cast<int>(sid - iq_base);
            // The refill check above guarantees residence; the row's PE
            // and the active column are indexed below.
            DEE_INVARIANT(row >= 0 && row < n, "IQ row ", row,
                          " outside the ", n, "-row window");
            DEE_INVARIANT(cur_col >= 0 && cur_col < m, "active column ",
                          cur_col, " outside the ", m, "-column window");

            // --- Timing: when can this instance execute? ---------------------
            std::int64_t start =
                std::max({fetch_ready, row_free[row], stall_all_until});

            start = std::max({start, reg_ready[inst.src1],
                              reg_ready[inst.src2]});

            // Memory operand readiness handled below once the address is
            // computed (flow through memory, output-ordered per address).

            // Close control scopes whose join block this instruction starts,
            // then pay any still-open covered-mispredict stalls. Once a DEE
            // path's capacity is exhausted the stall hardens into a full
            // wait-for-resolution for everything after.
            if (inst.blockStart) {
                std::erase_if(cd_stalls, [&](const CdStall &s) {
                    return s.joinBlock == inst.block;
                });
            }
            for (CdStall &s : cd_stalls) {
                start = std::max(start, s.until);
                if (--s.capacityLeft <= 0)
                    stall_all_until = std::max(stall_all_until, s.until);
            }

            // --- Functional execution + per-class timing ----------------------
            ++result.instructions;
            const StepOutcome out = executeStep(inst, regs, mem);
            const StaticId next = out.next;
            const bool is_control_transfer =
                inst.cls == OpClass::CondBranch || inst.cls == OpClass::Jump;

            if (out.addrId >= mem_ready.size())
                mem_ready.resize(mem.size(), 0);
            start = std::max(start, mem_ready[out.addrId]);
            if (inst.cls == OpClass::Store)
                mem_ready[out.addrId] = start + 1;
            reg_ready[inst.dst] = start + 1;

            if (inst.cls == OpClass::CondBranch) {
                const obs::hotspot::HotspotPhase hot_resolve(
                    hot, "levo", obs::hotspot::Phase::Resolve);
                const bool taken = out.taken;
                ++result.branches;

                BranchQuery q;
                q.sid = sid;
                q.backward = inst.backward;
                q.actual = taken;
                const bool predicted = predictor->predict(q);
                predictor->update(q, taken);
                if (profiling) {
                    profile.recordExecution(
                        sid, static_cast<std::int64_t>(inst.block),
                        predicted != taken,
                        obs::confidenceBucket(
                            confidence_meter.estimate(sid)));
                }
                if (accounting)
                    confidence_meter.record(sid, predicted == taken);

                const std::int64_t resolve_time = start + 1;

                // How many earlier branches are still pending when this one
                // executes? DEE paths attach to the oldest pending branches.
                while (!pending_resolves.empty() &&
                       pending_resolves.front() <= start) {
                    pending_resolves.pop_front();
                }
                const int pending_before =
                    static_cast<int>(pending_resolves.size());
                pending_resolves.push_back(resolve_time);
                result.peakPendingBranches =
                    std::max(result.peakPendingBranches,
                             static_cast<std::uint64_t>(pending_before) + 1);
                if (profiling && predicted == taken)
                    profile.recordResolveLatency(sid, resolve_time - start);

                if (taken) {
                    if (inst.backward) {
                        ++result.backwardTakenBranches;
                        if (inst.target >= iq_base)
                            ++result.capturedLoopBranches;
                    } else if (inst.target > sid &&
                               inst.target <
                                   iq_base + static_cast<std::uint32_t>(n)) {
                        // Forward taken: the skipped rows of this column
                        // are virtually executed (the VE predicate
                        // mechanism); count the VE bits the hardware
                        // would set.
                        result.vePredications += inst.target - sid - 1;
                    }
                }

                if (predicted != taken) {
                    ++result.mispredicted;
                    const bool in_window =
                        next >= iq_base &&
                        next < iq_base + static_cast<std::uint32_t>(n);
                    const bool covered = config_.deePaths > 0 &&
                                         pending_before < config_.deePaths &&
                                         in_window;
                    if (covered) {
                        // DEE path absorbs the misprediction: only instances
                        // inside the branch's control scope pay the
                        // copy-back penalty.
                        const obs::hotspot::HotspotPhase hot_copy(
                            hot, "levo", obs::hotspot::Phase::CopyBack);
                        ++result.deeCovered;
                        if (accounting) {
                            ledger.mark(obs::SlotClass::CopyBack,
                                        resolve_time,
                                        resolve_time +
                                            config_.mispredictPenalty);
                        }
                        if (profiling) {
                            // The DEE path held this branch's alternate
                            // state through the copy-back window.
                            profile.recordResolveLatency(
                                sid, resolve_time +
                                         config_.mispredictPenalty - start);
                            profile.addResidency(
                                sid,
                                static_cast<std::uint64_t>(
                                    config_.mispredictPenalty),
                                /*dee_side=*/true);
                        }
                        cd_stalls.push_back(CdStall{
                            cfg_.ipostdom(inst.block),
                            resolve_time + config_.mispredictPenalty,
                            dee_capacity});
                        if (cd_stalls.size() > 64)
                            cd_stalls.erase(cd_stalls.begin());
                        dee_trace_event_if(
                            tracing, tracer, "levo.copyback", 'i',
                            resolve_time + config_.mispredictPenalty,
                            "sid", static_cast<std::int64_t>(sid),
                            "pending",
                            static_cast<std::int64_t>(pending_before),
                            static_cast<std::uint32_t>(pending_before));
                    } else {
                        // No alternate state held: everything later waits
                        // for resolution (+ penalty).
                        stall_all_until =
                            std::max(stall_all_until,
                                     resolve_time + config_.mispredictPenalty);
                        if (accounting) {
                            // Slots under an uncovered in-flight mispredict
                            // hold doomed wrong-path state: squashed work,
                            // charged to the branch's confidence bucket
                            // (and, for the profiler, to the branch site).
                            ledger.mark(
                                obs::SlotClass::SquashedSpec, start,
                                resolve_time + config_.mispredictPenalty,
                                obs::confidenceBucket(
                                    confidence_meter.estimate(sid)),
                                sid);
                        }
                        if (profiling) {
                            const std::int64_t span =
                                resolve_time + config_.mispredictPenalty -
                                start;
                            profile.recordResolveLatency(sid, span);
                            profile.addResidency(
                                sid, static_cast<std::uint64_t>(span),
                                /*dee_side=*/false);
                        }
                        dee_trace_event_if(
                            tracing, tracer, "levo.uncovered_mispredict", 'i',
                            stall_all_until, "sid",
                            static_cast<std::int64_t>(sid));
                    }
                }
            }

            // Retire the PE/row for one cycle. The ledger's issue counts
            // grow in steps; issue() checks the rare cycle past them.
            if (accounting) {
                if (std::uint32_t *const counts =
                        ledger.issueCounts(start + 1))
                    ++counts[start];
                else
                    ledger.issue(start);
            }
            row_free[row] = start + 1;
            col_last_complete[cur_col] =
                std::max(col_last_complete[cur_col], start + 1);
            max_complete = std::max(max_complete, start + 1);
            if (is_control_transfer) {
                last_control_complete =
                    std::max(last_control_complete, start + 1);
            }

            if (inst.op == Opcode::Halt) {
                result.halted = true;
                break;
            }

            // Captured-loop iteration: a backward in-window transfer starts
            // a new instance column; wait for the column being recycled.
            // Only a taken transfer to this block or an earlier one lands
            // at or before sid.
            if (is_control_transfer && next <= sid) {
                if (next >= iq_base) {
                    cur_col = (cur_col + 1) % m;
                    if (col_last_complete[cur_col] > start + 1) {
                        ++result.columnStalls;
                        if (accounting) {
                            // Waiting on an iteration column to recycle: a
                            // structural-resource stall, not a fetch one.
                            ledger.mark(obs::SlotClass::ResourceStarved,
                                        start + 1,
                                        col_last_complete[cur_col]);
                        }
                        fetch_ready = std::max(fetch_ready,
                                               col_last_complete[cur_col]);
                        dee_trace_event_if(tracing, tracer,
                                           "levo.column_stall", 'i',
                                           fetch_ready, "column",
                                           static_cast<std::int64_t>(
                                               cur_col));
                    }
                    // Column ordering: a column is only recycled once its
                    // previous generation is complete (either it already
                    // was, or fetch now waits for it).
                    DEE_INVARIANT(col_last_complete[cur_col] <= start + 1 ||
                                      fetch_ready >=
                                          col_last_complete[cur_col],
                                  "column ", cur_col,
                                  " recycled before completion");
                    col_last_complete[cur_col] = 0;
                }
            }

            sid = next;
        }
    }

    publishState(regs, mem, result.finalState);
    result.cycles =
        static_cast<std::uint64_t>(std::max<std::int64_t>(max_complete, 1));
    result.ipc = static_cast<double>(result.instructions) /
                 static_cast<double>(result.cycles);
    // Mean instances per row per cycle: total instances spread over
    // the rows actually provisioned and the cycles taken.
    result.meanRowUtilization =
        static_cast<double>(result.instructions) /
        (static_cast<double>(n) * static_cast<double>(result.cycles));

    if (accounting) {
        result.account =
            closeLedger(ledger, result.cycles, tracing ? &tracer : nullptr,
                        profiling ? &profile : nullptr);
    }

    if (profiling) {
        // Loop roll-ups from the machine's own CFG.
        const Dominators doms(cfg_);
        const LoopForest forest(cfg_, doms);
        std::vector<obs::BlockLoopNest> nests(cfg_.numBlocks());
        for (std::size_t bk = 0; bk < nests.size(); ++bk) {
            const auto blk = static_cast<BlockId>(bk);
            nests[bk].depth = forest.loopDepth(blk);
            for (const BlockId h : forest.enclosingHeaders(blk))
                nests[bk].headers.push_back(
                    static_cast<std::int64_t>(h));
        }
        profile.rollUpLoops(nests);

        std::string why;
        dee_assert(
            profile.attributionMatches(result.account, &why),
            "speculation-profile attribution identity violated: ", why);
    }

    perf_meter.addInstructions(result.instructions);
    perf_meter.addCycles(result.cycles);

    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("levo.runs");
    reg.counter("levo.instructions") += result.instructions;
    reg.counter("levo.cycles") += result.cycles;
    reg.counter("levo.branches") += result.branches;
    reg.counter("levo.mispredicts") += result.mispredicted;
    reg.counter("levo.copybacks") += result.deeCovered;
    reg.counter("levo.refills") += result.refills;
    reg.counter("levo.column_stalls") += result.columnStalls;
    reg.counter("levo.ve_predications") += result.vePredications;
    reg.stat("levo.ipc").add(result.ipc);
    if (accounting)
        result.account.publish(reg, "levo");
    if (profiling && !profile.empty()) {
        const std::string scope = config_.profileScope.empty()
                                      ? "levo"
                                      : config_.profileScope;
        profile.setMeta(scope, "Levo");
        obs::ProfileStore::global().merge(scope, profile);
        result.profile = std::move(profile);
    }
    return result;
}

} // namespace dee
