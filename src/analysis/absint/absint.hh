/**
 * @file
 * Worklist abstract interpretation over the block CFG.
 *
 * A forward dataflow solver computes, per basic block, the interval of
 * every architectural register at block entry (domain.hh), with
 * widening at the natural-loop headers from cfg/structure.hh so the
 * fixpoint terminates on every program, followed by bounded narrowing
 * sweeps that recover precision lost to widening. Conditional-branch
 * edges refine both compared registers (e.g. the taken edge of
 * `blt r5, r6` tightens r5's upper and r6's lower bound).
 *
 * One derived analysis rides the fixpoint: findCountedLoops() finds
 * loops whose every iteration provably advances one register by a
 * bounded positive step toward a loop-invariant limit, with proven
 * min/max trip counts. The counter's serial add chain is a
 * critical-path *lower* bound no execution — and no speculation
 * model, the paper's Oracle included — can beat. bounds.hh condenses
 * the counted loops into the bounds; its lint findings read the
 * intervals directly.
 */

#ifndef DEE_ANALYSIS_ABSINT_ABSINT_HH
#define DEE_ANALYSIS_ABSINT_ABSINT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/absint/domain.hh"
#include "cfg/cfg.hh"
#include "cfg/structure.hh"
#include "isa/isa.hh"

namespace dee::analysis::absint
{

/** Abstract machine state at one program point. */
struct RegState
{
    /** False = bottom: no execution reaches this point. */
    bool reachable = false;
    std::array<Interval, kNumRegs> regs{};

    const Interval &reg(RegId r) const { return regs[r]; }

    void join(const RegState &other);
    bool operator==(const RegState &other) const;
};

/** Interval fixpoint over a program. */
struct IntervalResult
{
    /** Block-entry states, indexed by block id. */
    std::vector<RegState> in;
    /** False when the solver hit its iteration cap (never expected —
     *  widening bounds the chain — but reported, not asserted). */
    bool converged = true;
    /** Total block visits the solver performed (test observability). */
    std::uint64_t visits = 0;
};

/** Runs the widening/narrowing worklist solver. */
IntervalResult solveIntervals(const Program &program, const Cfg &cfg,
                              const LoopForest &loops);

/** Applies one instruction's abstract transfer to @p state. */
void applyInstr(const Instruction &inst, RegState *state);

/**
 * The state propagated along CFG edge @p from -> @p to: @p from's
 * entry state pushed through the block, refined by the terminator's
 * comparison when the edge decides it. @p to == the taken target
 * selects the taken refinement; the fallthrough edge the other.
 */
RegState edgeState(const IntervalResult &fix, const Program &program,
                   const Cfg &cfg, BlockId from, BlockId to);

/** One recognized counted loop. */
struct CountedLoop
{
    /** Index into LoopForest::loops(). */
    std::size_t loopIndex = 0;
    BlockId header = 0;
    /** The counter register: every def inside the loop is
     *  `addi counter, counter, c` with c > 0. */
    RegId counter = kNoReg;
    /** Loop-invariant limit register every exit tests against. */
    RegId limit = kNoReg;
    std::int64_t minStep = 1;
    std::int64_t maxStep = 1;
    /** Counter / limit intervals joined over the entry edges. */
    Interval init = Interval::top();
    Interval limitAtEntry = Interval::top();
    /** Proven minimum counter increments per loop entry (0: none). */
    std::int64_t minTrip = 0;
    /** Upper bound on increments per entry; -1 when unbounded. */
    std::int64_t maxTrip = -1;
    /** True when the header postdominates the entry: every complete
     *  execution runs this loop. */
    bool mandatory = false;
    /** Conditional branches inside the loop comparing counter against
     *  limit (in either operand order). */
    std::vector<StaticId> testBranches;
    /** Static instructions in the loop body (header included). */
    std::uint64_t bodyInstrs = 0;
};

/**
 * Recognizes counted loops: all in-loop counter defs are positive
 * constant strides, the limit has no in-loop defs, and *every* edge
 * leaving the loop is a branch outcome implying counter >= limit.
 */
std::vector<CountedLoop> findCountedLoops(const Program &program,
                                          const Cfg &cfg,
                                          const LoopForest &loops,
                                          const IntervalResult &fix);

} // namespace dee::analysis::absint

#endif // DEE_ANALYSIS_ABSINT_ABSINT_HH
