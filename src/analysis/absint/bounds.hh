/**
 * @file
 * Static bounds derived from the abstract-interpretation fixpoints.
 *
 * analyzeProgram() runs the interval solver and the counted-loop
 * recognizer (absint.hh) and condenses them into one StaticBounds
 * record per program — the static side of the paper's optimality
 * argument, which the xcheck (xcheck.hh) holds measured runs to:
 *
 *  - cpLowerBound: a critical-path *lower* bound on the cycles of any
 *    completed execution, from the serial counter chains of the
 *    mandatory counted loops. No model — the dataflow Oracle included —
 *    can finish in fewer cycles, so measured mean cycles below it mean
 *    the simulator and the theory disagree.
 *  - per-branch predictability classes with a mispredict-rate band for
 *    the provably-monotone loop tests (a 2-bit counter mispredicts at
 *    most ~3 times per loop entry on a monotone branch).
 *  - specCpMax: the cumulative-probability ceiling any spec-tree
 *    assignment can carry (models.cc clamps characteristic accuracy to
 *    0.995, and Theorem 1's cp = p^depth can never exceed p).
 *
 * staticBoundsSection() packages the bounds for every workload of a
 * run into the manifest's "static_bounds" section (since schema dee.run.v6);
 * publishStaticBounds() installs that section and feeds lint.*
 * counters so every grid tool's manifest carries the summary, not
 * just dee_lint's.
 */

#ifndef DEE_ANALYSIS_ABSINT_BOUNDS_HH
#define DEE_ANALYSIS_ABSINT_BOUNDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint/absint.hh"
#include "analysis/findings.hh"
#include "obs/json.hh"
#include "workloads/workloads.hh"

namespace dee::analysis::absint
{

/** Static predictability class of one conditional branch. */
enum class BranchClass : std::uint8_t
{
    Monotone,      ///< counted-loop test: same way minTrip-1 times
    StridePattern, ///< reads an enclosing counted loop's counter
    DataDependent, ///< everything else
};

const char *branchClassName(BranchClass cls);

/** Bound record for one static conditional branch. */
struct BranchBound
{
    StaticId sid = 0;
    BlockId block = 0;
    BranchClass cls = BranchClass::DataDependent;
    /** True when mispredictHi is a checkable bound: the branch is the
     *  *single* counter/limit test of a counted loop with a proven
     *  minimum trip count (a 2-bit counter then mispredicts at most
     *  ~3 times per entry over >= minTrip executions). */
    bool banded = false;
    /** Upper bound on the 2-bit-counter mispredict rate (1 = none). */
    double mispredictHi = 1.0;
    /** The owning counted loop's proven minimum trip count. */
    std::int64_t minTrip = 0;
};

/** Bound record for one natural loop. */
struct LoopBound
{
    BlockId header = 0;
    int depth = 1;
    bool counted = false;
    bool mandatory = false;
    RegId counter = kNoReg;
    std::int64_t minTrip = 0;
    std::int64_t maxTrip = -1;
    std::uint64_t bodyInstrs = 0;
};

/** Whole-program static bounds. */
struct StaticBounds
{
    std::uint64_t blocks = 0;
    std::uint64_t instrs = 0;
    /** Cycles every completed run needs, at any speculation model. */
    std::int64_t cpLowerBound = 1;
    /** Ceiling on any spec-tree assignment's cumulative probability. */
    double specCpMax = 0.995;
    /** False when the interval solver hit its iteration cap. */
    bool converged = true;
    std::vector<LoopBound> loops;
    std::vector<BranchBound> branches;

    obs::Json toJson() const;
};

/** analyzeProgram()'s full output: the bounds plus any findings the
 *  fixpoint surfaced (div-by-zero, dead branch arms, unknown loop
 *  bounds, non-convergence). */
struct AbsintResult
{
    StaticBounds bounds;
    std::vector<Finding> findings;
};

/** Runs the solver and the counted-loop recognizer on a structurally
 *  sound program (callers verify first, as lintProgram() does). */
AbsintResult analyzeProgram(const Program &program, const Cfg &cfg);

/**
 * The manifest "static_bounds" section for one run: schema tag,
 * generation parameters, lint severity counts, and per-workload
 * StaticBounds for every id in @p ids.
 */
obs::Json staticBoundsSection(const std::vector<WorkloadId> &ids,
                              int scale, std::uint64_t seed);

/**
 * Computes staticBoundsSection(), installs it as the process manifest
 * section (obs::setStaticBoundsSection) and publishes the lint.*
 * counters. Serial, deterministic; grid tools call it once after
 * building their suite.
 */
void publishStaticBounds(const std::vector<WorkloadId> &ids, int scale,
                         std::uint64_t seed);

} // namespace dee::analysis::absint

#endif // DEE_ANALYSIS_ABSINT_BOUNDS_HH
