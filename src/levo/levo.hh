/**
 * @file
 * Levo / CONDEL-2 machine model (Section 4 of the paper).
 *
 * Levo is a *static instruction window* machine: the Instruction Queue
 * (IQ) holds n static instructions in static program order with m
 * instance columns (in-flight loop iterations). The hardware keeps the
 * Really Executed (RE) and Virtually Executed (VE) n x m bit matrices,
 * and results live in Shadow Sink (SSI) renaming registers with their
 * architectural addresses in the ISA matrix. The model does not
 * materialise these: no timing rule reads them. What times the machine
 * is per-row PE occupancy (one PE per IQ row executes the instances of
 * that static instruction), column recycling (a captured loop
 * iteration waits for its column's previous generation), window
 * refills and DEE coverage; vePredications counts the VE bits the
 * hardware would set. One branch predictor per row predicts its
 * branch. Minimal data dependencies (flow-only, via the shadow sinks)
 * and minimal control dependencies (instances execute as soon as
 * operands are available; only *totally control dependent* instances
 * are penalized by a misprediction) are realized.
 *
 * DEE is implemented by alternate-path state columns: the machine keeps
 * `deePaths` DEE path copies attached to the oldest pending branches.
 * A mispredicted branch holding a DEE path costs only the 1-cycle
 * copy-back of the DEE state to the Main-Line; a misprediction without
 * DEE coverage stalls subsequent work until the branch resolves. Taken
 * branches inside the window virtually execute (VE) the skipped
 * instances — the predicate/guard mechanism of Figure 3. Code that
 * leaves the IQ (uncaptured loops, long forward jumps) triggers a
 * linear-mode window refill with a refill penalty.
 *
 * The model is execution-driven: it steps the interpreter's decoded
 * program (decodeProgram()) through the interpreter's executor
 * (executeStep()), matching the sequential interpreter exactly (tests
 * verify final architectural state), while
 * timing each dynamic instruction under the machine's structural
 * constraints (per-row PE serialization, column reuse, window refills,
 * misprediction penalties).
 */

#ifndef DEE_LEVO_LEVO_HH
#define DEE_LEVO_LEVO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "exec/interp.hh"
#include "isa/isa.hh"
#include "obs/accounting.hh"
#include "obs/profile/profile.hh"

namespace dee
{

/** Machine configuration (defaults: the paper's 32x8 target). */
struct LevoConfig
{
    int iqRows = 32;          ///< n: static instructions in the IQ.
    int columns = 8;          ///< m: in-flight iteration instances.
    int deePaths = 3;         ///< DEE path copies (0 disables DEE).
    int deeColumns = 1;       ///< Columns per DEE path (cost model).
    int mispredictPenalty = 1;///< Cycles per covered misprediction.
    int refillPenalty = 2;    ///< Cycles to move/refill the IQ window.
    std::string predictor = "2bit"; ///< Per-row predictor type.
    /**
     * Classify every PE-slot-cycle of the run (LevoResult::account,
     * registry "acct.levo.*"), including the Levo-only refill_stall
     * and copy_back classes. O(cycles) extra work at end-of-run.
     */
    bool gatherAccounting = true;
    /**
     * Collect the per-branch speculation profile (LevoResult::profile,
     * and the manifest's "profile" section under the scope below);
     * also forced on by the Session --profile flag. Implies
     * accounting.
     */
    bool gatherProfile = false;
    /** ProfileStore scope for the profile; empty -> "levo". */
    std::string profileScope;

    /**
     * Rough transistor estimate following the paper's Section 4.3
     * numbers (~1M transistors per added 1-column DEE path on top of a
     * CONDEL-2 style core).
     */
    double transistorEstimateMillions() const;
};

/** Outcome of a Levo run. */
struct LevoResult
{
    std::uint64_t instructions = 0; ///< Committed dynamic instructions.
    std::uint64_t cycles = 0;
    double ipc = 0.0;           ///< instructions / cycles.

    std::uint64_t branches = 0;
    std::uint64_t mispredicted = 0;
    std::uint64_t deeCovered = 0; ///< Mispredicts absorbed by DEE paths.
    std::uint64_t refills = 0;    ///< IQ window moves (linear mode).
    std::uint64_t columnStalls = 0; ///< Iteration column reuse waits.
    std::uint64_t vePredications = 0; ///< Instances virtually executed.

    std::uint64_t capturedLoopBranches = 0; ///< Backward-taken, in-IQ.
    std::uint64_t backwardTakenBranches = 0;

    /** Most branches simultaneously unresolved (pressure on the DEE
     *  path hardware; the paper sizes 3-11 DEE paths). */
    std::uint64_t peakPendingBranches = 0;
    /** Mean instances in flight per IQ row over the run (per-row PE
     *  utilization pressure). */
    double meanRowUtilization = 0.0;
    /** Fraction of dynamic backward-taken branches whose loop fits the
     *  IQ — the paper's ">70% fit an IQ of 32" statistic. */
    double loopCaptureFraction() const;

    /** Closed slot-cycle account over iqRows PEs (valid() iff
     *  gatherAccounting was on and the run fit the ledger). */
    obs::CycleAccount account;

    /** Per-branch speculation profile (filled when profiling was on;
     *  also merged into obs::ProfileStore::global()). */
    obs::SpeculationProfile profile;

    bool halted = false;
    MachineState finalState;   ///< Committed architectural state.

    std::string render() const;
};

/** The Levo machine. */
class LevoMachine
{
  public:
    /**
     * The program must validate(); the Cfg must belong to it. The
     * machine keeps the program's decode and a copy of the Cfg, so
     * temporaries are safe to pass.
     */
    LevoMachine(const Program &program, Cfg cfg, const LevoConfig &config);

    /** Runs from block 0 until Halt or the instruction cap. */
    LevoResult run(std::uint64_t max_instrs = 10'000'000) const;

  private:
    std::vector<DecodedStep> steps_; ///< indexed by static id
    Cfg cfg_;
    LevoConfig config_;
};

} // namespace dee

#endif // DEE_LEVO_LEVO_HH
