#include "levo/levo.hh"

#include <algorithm>
#include <array>
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

LevoMachine::LevoMachine(Program program, Cfg cfg,
                         const LevoConfig &config)
    : program_(std::move(program)), cfg_(std::move(cfg)),
      config_(config)
{
    program_.validate();
    if (config_.iqRows < 1 || config_.columns < 1)
        dee_fatal("Levo IQ must be at least 1x1");
    if (config_.deePaths < 0 || config_.deeColumns < 1)
        dee_fatal("bad DEE path configuration");
}

LevoResult
LevoMachine::run(std::uint64_t max_instrs) const
{
    // The run's one host clock: throughput metering under the
    // profiler's scope convention ("<workload>.Levo" when configured,
    // bare "Levo" otherwise).
    obs::perf::ThroughputMeter perf_meter(
        config_.profileScope.empty() ? "Levo" : config_.profileScope);
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing =
        DEE_OBS_TRACE_ENABLED != 0 && tracer.enabled();
    // Host hot-path attribution: one hoisted flag (the tracing idiom)
    // guards the phase markers below; the outer catch-all makes run()
    // glue land on levo.other instead of unattributed.
    const bool hot = obs::hotspot::Sampler::process().active();
    const obs::hotspot::HotspotPhase hot_run(
        hot, "levo", obs::hotspot::Phase::Other);

    const int n = config_.iqRows;
    const int m = config_.columns;

    LevoResult result;
    MachineState &st = result.finalState;

    // --- Machine bookkeeping state -------------------------------------
    BitMatrix re(n, m);
    BitMatrix ve(n, m);
    std::vector<std::vector<std::int64_t>> ssi(
        n, std::vector<std::int64_t>(m, 0));
    std::vector<std::vector<std::int64_t>> isaMat(
        n, std::vector<std::int64_t>(m, -1));

    auto predictor = makePredictor(
        config_.predictor, static_cast<std::uint32_t>(program_.numInstrs()));
    const std::vector<bool> backward = backwardTable(program_);

    // Cycle accounting over the machine's n per-row PEs; the cycle
    // count is unknown until the walk ends, so the ledger grows.
    // Profiling rides the ledger's squash attribution, so it forces
    // accounting on.
    const bool profiling =
        config_.gatherProfile || obs::profilingRequested();
    const bool accounting = config_.gatherAccounting || profiling;
    obs::SpeculationProfile profile;
    obs::SlotLedger ledger(static_cast<std::uint64_t>(n));
    ConfidenceEstimator confidence_meter(
        accounting ? static_cast<std::uint32_t>(program_.numInstrs())
                   : 0);

    // --- Timing state ----------------------------------------------------
    std::array<std::int64_t, kNumRegs> reg_ready;
    reg_ready.fill(0);
    std::unordered_map<std::uint64_t, std::int64_t> mem_ready;
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

    std::uint32_t iq_base =
        static_cast<std::uint32_t>(program_.staticId(0, 0));
    int cur_col = 0;

    auto clear_column = [&](int col) {
        re.clearColumn(static_cast<std::size_t>(col));
        ve.clearColumn(static_cast<std::size_t>(col));
        for (int r = 0; r < n; ++r) {
            ssi[r][col] = 0;
            isaMat[r][col] = -1;
        }
    };

    // --- Dynamic walk ------------------------------------------------------
    BlockId block = 0;
    std::size_t idx = 0;

    {
        // The whole walk samples as issue — one marker outside the
        // loop, never per instruction; the rare events below (refill,
        // branch resolution, copy-back) nest their own phases.
        const obs::hotspot::HotspotPhase hot_issue(
            hot, "levo", obs::hotspot::Phase::Issue);
        while (result.instructions < max_instrs) {
            while (idx >= program_.block(block).instrs.size()) {
                dee_assert(block + 1 < program_.numBlocks(),
                           "fell off program end");
                ++block;
                idx = 0;
            }
            const Instruction &inst = program_.block(block).instrs[idx];
            const StaticId sid = program_.staticId(block, idx);

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
                for (int c = 0; c < m; ++c)
                    clear_column(c);
                cur_col = 0;
            }
            const int row = static_cast<int>(sid - iq_base);
            // The refill check above guarantees residence; every matrix
            // access below indexes [row][cur_col].
            DEE_INVARIANT(row >= 0 && row < n, "IQ row ", row,
                          " outside the ", n, "-row window");
            DEE_INVARIANT(cur_col >= 0 && cur_col < m, "active column ",
                          cur_col, " outside the ", m, "-column window");

            // --- Timing: when can this instance execute? ---------------------
            std::int64_t start =
                std::max({fetch_ready, row_free[row], stall_all_until});

            auto need_reg = [&](RegId r) {
                if (r != kNoReg && r != kZeroReg)
                    start = std::max(start, reg_ready[r]);
            };
            need_reg(inst.rs1);
            if (opClass(inst.op) != OpClass::Load)
                need_reg(inst.rs2);

            // Memory operand readiness handled below once the address is
            // computed (flow through memory, output-ordered per address).

            // Close control scopes whose join block this instruction starts,
            // then pay any still-open covered-mispredict stalls. Once a DEE
            // path's capacity is exhausted the stall hardens into a full
            // wait-for-resolution for everything after.
            if (idx == 0) {
                std::erase_if(cd_stalls, [&](const CdStall &s) {
                    return s.joinBlock == block;
                });
            }
            for (CdStall &s : cd_stalls) {
                start = std::max(start, s.until);
                if (--s.capacityLeft <= 0)
                    stall_all_until = std::max(stall_all_until, s.until);
            }

            // --- Functional execution + per-class timing ----------------------
            ++result.instructions;
            BlockId next_block = block;
            std::size_t next_idx = idx + 1;
            bool is_control_transfer = false;
            bool done = false;

            switch (opClass(inst.op)) {
              case OpClass::IntAlu: {
                std::int64_t value;
                if (inst.op == Opcode::LoadImm) {
                    value = inst.imm;
                } else if (inst.rs2 != kNoReg) {
                    value = semantics::alu(inst.op, st.readReg(inst.rs1),
                                           st.readReg(inst.rs2));
                } else {
                    value = semantics::alu(inst.op, st.readReg(inst.rs1),
                                           inst.imm);
                }
                st.writeReg(inst.rd, value);
                ssi[row][cur_col] = value;
                isaMat[row][cur_col] = inst.rd;
                if (inst.rd != kNoReg && inst.rd != kZeroReg)
                    reg_ready[inst.rd] = start + 1;
                break;
              }
              case OpClass::Load: {
                const auto addr = static_cast<std::uint64_t>(
                    st.readReg(inst.rs1) + inst.imm);
                auto it = mem_ready.find(addr);
                if (it != mem_ready.end())
                    start = std::max(start, it->second);
                const std::int64_t value = st.readMem(addr);
                st.writeReg(inst.rd, value);
                ssi[row][cur_col] = value;
                isaMat[row][cur_col] = inst.rd;
                if (inst.rd != kNoReg && inst.rd != kZeroReg)
                    reg_ready[inst.rd] = start + 1;
                break;
              }
              case OpClass::Store: {
                const auto addr = static_cast<std::uint64_t>(
                    st.readReg(inst.rs1) + inst.imm);
                auto it = mem_ready.find(addr);
                if (it != mem_ready.end())
                    start = std::max(start, it->second);
                const std::int64_t value = st.readReg(inst.rs2);
                st.writeMem(addr, value);
                ssi[row][cur_col] = value;
                isaMat[row][cur_col] = static_cast<std::int64_t>(addr);
                mem_ready[addr] = start + 1;
                break;
              }
              case OpClass::CondBranch: {
                const obs::hotspot::HotspotPhase hot_resolve(
                    hot, "levo", obs::hotspot::Phase::Resolve);
                const bool taken = semantics::branchTaken(
                    inst.op, st.readReg(inst.rs1), st.readReg(inst.rs2));
                ++result.branches;
                is_control_transfer = true;

                BranchQuery q;
                q.sid = sid;
                q.backward = backward[sid];
                q.actual = taken;
                const bool predicted = predictor->predict(q);
                predictor->update(q, taken);
                if (profiling) {
                    profile.recordExecution(
                        sid, static_cast<std::int64_t>(block),
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
                    next_block = inst.target;
                    next_idx = 0;
                    if (backward[sid]) {
                        ++result.backwardTakenBranches;
                        const StaticId tgt_sid =
                            program_.staticId(inst.target, 0);
                        if (tgt_sid >= iq_base)
                            ++result.capturedLoopBranches;
                    } else {
                        // Forward taken: virtually execute skipped rows of
                        // this column (the VE predicate mechanism).
                        const StaticId tgt_sid =
                            program_.staticId(inst.target, 0);
                        if (tgt_sid > sid &&
                            tgt_sid < iq_base + static_cast<std::uint32_t>(n)) {
                            for (StaticId s2 = sid + 1; s2 < tgt_sid; ++s2) {
                                ve.set(s2 - iq_base,
                                       static_cast<std::size_t>(cur_col));
                                ++result.vePredications;
                            }
                        }
                    }
                } else {
                    next_block = block + 1;
                    next_idx = 0;
                }

                if (predicted != taken) {
                    ++result.mispredicted;
                    const StaticId next_sid =
                        program_.staticId(next_block,
                                          next_idx < program_.block(next_block)
                                                         .instrs.size()
                                              ? next_idx
                                              : 0);
                    const bool in_window =
                        next_sid >= iq_base &&
                        next_sid < iq_base + static_cast<std::uint32_t>(n);
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
                            cfg_.ipostdom(block),
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
                break;
              }
              case OpClass::Jump:
                next_block = inst.target;
                next_idx = 0;
                is_control_transfer = true;
                break;
              case OpClass::Halt:
                result.halted = true;
                done = true;
                break;
              case OpClass::Nop:
                break;
            }

            // Record execution in the bookkeeping matrices and retire the
            // PE/row for one cycle.
            re.set(row, static_cast<std::size_t>(cur_col));
            if (accounting)
                ledger.issue(start);
            row_free[row] = start + 1;
            col_last_complete[cur_col] =
                std::max(col_last_complete[cur_col], start + 1);
            max_complete = std::max(max_complete, start + 1);
            if (is_control_transfer) {
                last_control_complete =
                    std::max(last_control_complete, start + 1);
            }

            if (done)
                break;

            // Captured-loop iteration: a backward in-window transfer starts
            // a new instance column; wait for the column being recycled.
            if (is_control_transfer && next_block <= block) {
                const StaticId tgt_sid = program_.staticId(next_block, 0);
                if (tgt_sid >= iq_base) {
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
                    clear_column(cur_col);
                    col_last_complete[cur_col] = 0;
                }
            }

            block = next_block;
            idx = next_idx;
        }
    }

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
        std::unordered_map<std::uint32_t, std::uint64_t> squash_by_site;
        result.account =
            ledger.finalize(result.cycles, tracing ? &tracer : nullptr,
                            profiling ? &squash_by_site : nullptr);
        if (profiling)
            profile.attributeSquash(squash_by_site);
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
    if (result.account.valid())
        result.account.publish(reg, "levo");
    if (profiling && !profile.empty()) {
        const std::string scope = config_.profileScope.empty()
                                      ? "levo"
                                      : config_.profileScope;
        profile.setMeta(scope, "Levo");
        profile.publish(reg, scope);
        obs::ProfileStore::global().merge(scope, profile);
        result.profile = std::move(profile);
    }
    return result;
}

} // namespace dee
