#include "analysis/absint/bounds.hh"

#include <algorithm>
#include <sstream>

#include "analysis/lint.hh"
#include "obs/manifest.hh"

namespace dee::analysis::absint
{

const char *
branchClassName(BranchClass cls)
{
    switch (cls) {
      case BranchClass::Monotone: return "monotone";
      case BranchClass::StridePattern: return "stride-pattern";
      case BranchClass::DataDependent: return "data-dependent";
    }
    return "???";
}

namespace
{

std::string
hexSid(StaticId sid)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << sid;
    return oss.str();
}

/** The divisor/shift-amount abstract operand of an ALU instruction
 *  (the register form when rs2 is present, else the immediate). */
Interval
secondOperand(const Instruction &inst, const RegState &state)
{
    if (inst.rs2 != kNoReg) {
        return inst.rs2 == kZeroReg ? Interval::val(0)
                                    : state.regs[inst.rs2];
    }
    return Interval::val(inst.imm);
}

/** Findings the fixpoint surfaces: definite div-by-zero, shift amounts
 *  the machine will silently mask, statically one-sided branches, and
 *  loops with no provable bound. Emitted in program order. */
std::vector<Finding>
collectFindings(const Program &program, const Cfg &cfg,
                const IntervalResult &fix,
                const LoopForest &loops,
                const std::vector<LoopBound> &loop_bounds)
{
    std::vector<Finding> out;
    const std::size_t n = program.numBlocks();
    for (BlockId b = 0; b < n; ++b) {
        if (b >= fix.in.size() || !fix.in[b].reachable)
            continue;
        RegState state = fix.in[b];
        const auto &instrs = program.block(b).instrs;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const Instruction &inst = instrs[i];
            const Interval rhs = secondOperand(inst, state);
            if (inst.op == Opcode::Div && rhs.isConst() &&
                rhs.constant() == 0) {
                out.push_back(
                    {FindingCode::IntervalDivByZero, b,
                     static_cast<std::int32_t>(i),
                     "divisor is provably zero (the machine defines "
                     "x/0 = 0)"});
            }
            if ((inst.op == Opcode::ShlI || inst.op == Opcode::ShrI ||
                 inst.op == Opcode::Sll || inst.op == Opcode::Srl) &&
                rhs.isConst() &&
                (rhs.constant() < 0 || rhs.constant() > 63)) {
                std::ostringstream msg;
                msg << "shift amount " << rhs.constant()
                    << " outside [0, 63]; the machine masks it to "
                    << (rhs.constant() & 63);
                out.push_back({FindingCode::ShiftRangeExceeded, b,
                               static_cast<std::int32_t>(i),
                               msg.str()});
            }
            applyInstr(inst, &state);
        }
        // A conditional branch whose fixpoint state makes one outcome
        // infeasible always goes the same way.
        if (!instrs.empty() && isCondBranch(instrs.back().op) &&
            state.reachable) {
            const Instruction &term = instrs.back();
            if (term.target != b + 1) {
                const RegState taken =
                    edgeState(fix, program, cfg, b, term.target);
                const RegState fall = b + 1 < n
                                          ? edgeState(fix, program, cfg,
                                                      b, b + 1)
                                          : RegState{};
                if (taken.reachable != fall.reachable) {
                    std::ostringstream msg;
                    msg << "branch outcome is statically constant "
                           "(always "
                        << (taken.reachable ? "taken" : "not taken")
                        << ")";
                    out.push_back(
                        {FindingCode::BranchAlwaysSame, b,
                         static_cast<std::int32_t>(
                             instrs.size() - 1),
                         msg.str()});
                }
            }
        }
    }
    for (std::size_t li = 0; li < loop_bounds.size(); ++li) {
        const LoopBound &lb = loop_bounds[li];
        if (lb.counted && lb.minTrip > 0)
            continue;
        std::ostringstream msg;
        msg << "loop at B" << lb.header
            << (lb.counted ? " has a counter but no provable minimum "
                             "trip count"
                           : " is not a recognizable counted loop; no "
                             "trip bound proven");
        out.push_back({FindingCode::LoopBoundUnknown,
                       loops.loops()[li].header, Finding::kNoInstr,
                       msg.str()});
    }
    if (!fix.converged) {
        std::ostringstream msg;
        msg << "interval solver hit its iteration cap after "
            << fix.visits << " block visits; bounds fell back to top";
        out.push_back({FindingCode::AbsintNoConvergence,
                       Finding::kNoBlock, Finding::kNoInstr,
                       msg.str()});
    }
    return out;
}

} // namespace

obs::Json
StaticBounds::toJson() const
{
    obs::Json j = obs::Json::object();
    j["blocks"] = static_cast<std::int64_t>(blocks);
    j["instrs"] = static_cast<std::int64_t>(instrs);
    j["cp_lower_bound"] = cpLowerBound;
    j["spec_cp_max"] = specCpMax;
    j["converged"] = converged;

    obs::Json ls = obs::Json::array();
    for (const LoopBound &lb : loops) {
        obs::Json l = obs::Json::object();
        l["header"] = static_cast<std::int64_t>(lb.header);
        l["depth"] = lb.depth;
        l["counted"] = lb.counted;
        l["mandatory"] = lb.mandatory;
        l["counter"] = lb.counter == kNoReg
                           ? obs::Json(-1)
                           : obs::Json(static_cast<int>(lb.counter));
        l["min_trip"] = lb.minTrip;
        l["max_trip"] = lb.maxTrip;
        l["body_instrs"] = static_cast<std::int64_t>(lb.bodyInstrs);
        ls.push(std::move(l));
    }
    j["loops"] = std::move(ls);

    obs::Json bs = obs::Json::object();
    for (const BranchBound &bb : branches) {
        obs::Json b = obs::Json::object();
        b["block"] = static_cast<std::int64_t>(bb.block);
        b["class"] = branchClassName(bb.cls);
        b["banded"] = bb.banded;
        b["mispredict_hi"] = bb.mispredictHi;
        b["min_trip"] = bb.minTrip;
        bs[hexSid(bb.sid)] = std::move(b);
    }
    j["branches"] = std::move(bs);
    return j;
}

AbsintResult
analyzeProgram(const Program &program, const Cfg &cfg)
{
    AbsintResult result;
    StaticBounds &bounds = result.bounds;
    bounds.blocks = program.numBlocks();
    bounds.instrs = program.numInstrs();

    const Dominators doms(cfg);
    const LoopForest loops(cfg, doms);
    const IntervalResult fix = solveIntervals(program, cfg, loops);
    bounds.converged = fix.converged;

    const std::vector<CountedLoop> counted =
        findCountedLoops(program, cfg, loops, fix);

    // Per-loop bounds, parallel to LoopForest::loops().
    const auto &forest = loops.loops();
    bounds.loops.resize(forest.size());
    for (std::size_t li = 0; li < forest.size(); ++li) {
        LoopBound &lb = bounds.loops[li];
        lb.header = forest[li].header;
        lb.depth = forest[li].depth;
        lb.bodyInstrs = 0;
        for (const BlockId b : forest[li].blocks)
            lb.bodyInstrs += program.block(b).instrs.size();
    }
    for (const CountedLoop &cl : counted) {
        LoopBound &lb = bounds.loops[cl.loopIndex];
        lb.counted = true;
        lb.mandatory = cl.mandatory;
        lb.counter = cl.counter;
        lb.minTrip = cl.minTrip;
        lb.maxTrip = cl.maxTrip;
    }

    // Whole-program critical-path lower bound: the serial counter
    // chain of the deepest mandatory counted loop. Loops only nest or
    // sequence, so max (not sum) is the safe combination.
    bounds.cpLowerBound = 1;
    for (const CountedLoop &cl : counted) {
        if (cl.mandatory)
            bounds.cpLowerBound =
                std::max(bounds.cpLowerBound, cl.minTrip);
    }

    // Per-branch classes. Monotone: the test branch of a counted loop
    // with a proven minimum trip count. A band is only claimed when the
    // loop has exactly one test branch sited at its header or a latch
    // (so it runs every iteration and its outcome sequence is monotone
    // within an entry: a 2-bit counter mispredicts at most ~3 times
    // per entry).
    for (BlockId b = 0; b < program.numBlocks(); ++b) {
        const auto &instrs = program.block(b).instrs;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            if (!isCondBranch(instrs[i].op))
                continue;
            BranchBound bb;
            bb.sid = program.staticId(b, i);
            bb.block = b;
            for (const CountedLoop &cl : counted) {
                const NaturalLoop &loop = forest[cl.loopIndex];
                const bool is_test =
                    std::find(cl.testBranches.begin(),
                              cl.testBranches.end(),
                              bb.sid) != cl.testBranches.end();
                if (is_test && cl.minTrip > 0) {
                    bb.cls = BranchClass::Monotone;
                    bb.minTrip = std::max(bb.minTrip, cl.minTrip);
                    const bool every_iter =
                        b == loop.header ||
                        (std::find(loop.latches.begin(),
                                   loop.latches.end(),
                                   b) != loop.latches.end() &&
                         i + 1 == instrs.size());
                    if (cl.testBranches.size() == 1 && every_iter) {
                        bb.banded = true;
                        bb.mispredictHi = std::min(
                            1.0,
                            3.0 / static_cast<double>(std::max<
                                      std::int64_t>(
                                      1, cl.minTrip - 1)) +
                                0.002);
                    }
                } else if (bb.cls != BranchClass::Monotone &&
                           loop.contains(b) &&
                           (instrs[i].rs1 == cl.counter ||
                            instrs[i].rs2 == cl.counter)) {
                    bb.cls = BranchClass::StridePattern;
                }
            }
            bounds.branches.push_back(bb);
        }
    }

    result.findings =
        collectFindings(program, cfg, fix, loops, bounds.loops);
    return result;
}

namespace
{

obs::Json
buildSection(const std::vector<WorkloadId> &ids, int scale,
             std::uint64_t seed, std::vector<LintReport> *reports_out)
{
    obs::Json sec = obs::Json::object();
    sec["schema"] = "dee.bounds.v1";
    sec["scale"] = static_cast<std::int64_t>(scale);
    sec["seed"] = seed;

    std::uint64_t errors = 0;
    std::uint64_t warnings = 0;
    std::uint64_t info = 0;
    obs::Json wls = obs::Json::object();
    for (const WorkloadId id : ids) {
        LintReport report = lintWorkload(id, scale, seed);
        errors += countAtSeverity(report.findings, Severity::Error);
        warnings += countAtSeverity(report.findings, Severity::Warning);
        info += countAtSeverity(report.findings, Severity::Info);
        if (report.boundsComputed)
            wls[workloadName(id)] = report.bounds.toJson();
        if (reports_out != nullptr)
            reports_out->push_back(std::move(report));
    }

    obs::Json lint = obs::Json::object();
    lint["programs"] = static_cast<std::int64_t>(ids.size());
    lint["errors"] = static_cast<std::int64_t>(errors);
    lint["warnings"] = static_cast<std::int64_t>(warnings);
    lint["info"] = static_cast<std::int64_t>(info);
    sec["lint"] = std::move(lint);
    sec["workloads"] = std::move(wls);
    return sec;
}

} // namespace

obs::Json
staticBoundsSection(const std::vector<WorkloadId> &ids, int scale,
                    std::uint64_t seed)
{
    return buildSection(ids, scale, seed, nullptr);
}

void
publishStaticBounds(const std::vector<WorkloadId> &ids, int scale,
                    std::uint64_t seed)
{
    std::vector<LintReport> reports;
    obs::Json section = buildSection(ids, scale, seed, &reports);
    obs::setStaticBoundsSection(std::move(section));

    for (const LintReport &report : reports)
        recordLintStats(report);
}

} // namespace dee::analysis::absint
