/**
 * @file
 * Internal seam between the simulators and their kernels.
 *
 * WindowSim::run(), oracleSim() and runModel() are thin wrappers over
 * the entry points declared below. The first two also hold the run's
 * one host clock (obs/perf/perf.hh); runModelWith() holds its own and
 * calls runWindowWith() / oracleSimWith(), so no run is timed twice.
 * The entry points take the kernel as a plain function argument: a
 * window forward pass (ForwardKernel) and an oracle sweep
 * (OracleKernel). The library always passes the
 * data-oriented kernels of fast_engine.cc. The seed kernels they
 * replaced live in tests/reference_engine.cc, where the differential
 * suite passes them instead; nothing else picks a kernel.
 *
 * Inputs split by lifetime. Per trace, shared read-only by every cell:
 * the PreparedTrace (trace/prepared.hh) — branch-path bounds, exit
 * branches, the decode of each record-store entry, the dense memory ids
 * of loads and stores, and the route-B join points cached per Cfg. Per cell: the window tree, the SimConfig
 * (latencies included), the predictor outcomes (PathPredictions) and
 * the RunArena outputs below, the only storage a cell writes.
 *
 * runWindowWith() owns the shared prologue (confidence replay of the
 * predictor outcomes) and epilogue (totals, issue stats, resolve
 * histogram, cycle accounting, speculation profile, registry
 * publishing). A forward kernel owns only the per-path forward loop:
 * coverage walks, instruction issue, branch resolution and tree
 * movement. Every kernel fills the same ForwardCtx outputs and makes
 * ledger/profiler/tracer calls at the same program points in the same
 * order, which is what makes two kernels bit-exact — the property
 * tests/test_engine_differential.cc enforces.
 */

#ifndef DEE_CORE_SIM_FORWARD_PASS_HH
#define DEE_CORE_SIM_FORWARD_PASS_HH

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "obs/accounting.hh"
#include "obs/profile/profile.hh"
#include "obs/trace_event.hh"
#include "trace/prepared.hh"

namespace dee::sim_detail
{

/** Sentinel "not yet fetched". */
constexpr std::int64_t kNeverFetched =
    std::numeric_limits<std::int64_t>::max();

/**
 * Per-cycle issue-slot accounting for the limited-PE extension: finds
 * the earliest cycle >= ready with a free slot and claims it. Shared
 * verbatim between kernels so starvation evidence is identical.
 */
class IssueSlots
{
  public:
    /** @param starved when non-null, every fully-occupied cycle an
     *  instruction probed while waiting for a slot is appended —
     *  the resource-starvation evidence for cycle accounting. */
    explicit IssueSlots(int width,
                        std::vector<std::int64_t> *starved = nullptr)
        : width_(width), starved_(starved)
    {
    }

    std::int64_t
    claim(std::int64_t ready)
    {
        if (width_ == 0)
            return ready;
        std::int64_t t = ready;
        while (true) {
            auto &used = used_[t];
            if (used < width_) {
                ++used;
                return t;
            }
            if (starved_)
                starved_->push_back(t);
            ++t;
        }
    }

  private:
    int width_;
    std::unordered_map<std::int64_t, int> used_;
    std::vector<std::int64_t> *starved_;
};

/** A mispredicted branch still inside the static window's reach. */
struct PendingMispredict
{
    std::uint64_t pathIdx;
    DynIndex joinIdx; ///< End of its dynamic control scope.
    std::int64_t resolveTime;
    /**
     * Backward (loop) branches diverge: the wrong-path fetch stream does
     * not reconverge with the actual path before resolution, so code
     * after the branch is simply absent from the machine unless a
     * not-predicted-edge tree path (EE subtree / DEE side path) holds
     * it. Forward mispredicts reconverge at the join, so only their
     * dynamic control scope stalls.
     */
    bool divergent;
};

/**
 * Reusable per-cell output storage: everything a cell writes, one entry
 * per branch path. runWindowWith() keeps one of these per thread and
 * binds the ForwardCtx output references to it, so repeated runs
 * (benchmark repetitions, figure sweeps) recycle capacity instead of
 * faulting in fresh pages every run. Kernels assign()/clear() every
 * vector they touch, so no state leaks between runs. Per-trace inputs
 * live in the PreparedTrace.
 */
struct RunArena
{
    std::vector<std::int64_t> fetchTree;
    std::vector<std::int64_t> rootTime;
    std::vector<std::int64_t> resolve;
    std::vector<std::uint8_t> fetchSide;
    std::vector<std::int64_t> starvedCycles;
};

/** Everything a forward-pass kernel reads and everything it must fill. */
struct ForwardCtx
{
    // --- Per-trace inputs (shared by every cell of the trace) ------------
    const Trace &trace; ///< the records, for kernels that read them
    const PreparedTrace &prepared;
    const std::vector<DynIndex> &joinIdx; ///< empty unless CD

    // --- Per-cell inputs --------------------------------------------------
    const SpecTree &tree;
    const SimConfig &config;
    const std::vector<std::uint8_t> &correct; ///< per path; 1 if no branch
    int windowReach;
    bool profiling;
    bool accounting;
    bool tracing;
    bool hot;
    obs::Tracer &tracer;
    obs::SpeculationProfile &profile; ///< recordAssignment() target
    /** Issue-slot ledger (non-null iff accounting or issue stats are
     *  on): kernels record each instruction's issue cycle into it as
     *  they compute it, in trace order. The epilogue reads its
     *  per-cycle issue counts and finalizes the account. */
    obs::SlotLedger *ledger;

    // --- Outputs (the epilogue's inputs; arena-backed references) --------
    std::vector<std::int64_t> &fetchTree; ///< per path; kNeverFetched
    std::vector<std::int64_t> &rootTime;  ///< num_paths + 1 entries
    std::vector<std::int64_t> &resolve;   ///< per path
    std::vector<std::uint8_t> &fetchSide; ///< per path iff profiling
    std::vector<std::int64_t> &starvedCycles;
    std::uint64_t sidePathFetches = 0;
};

/** A window forward pass: fills every ForwardCtx output. */
using ForwardKernel = void (*)(ForwardCtx &ctx);

/**
 * An oracle sweep over @p trace: returns the dataflow-limit completion
 * horizon and, when @p ledger is non-null, issues each instruction's
 * ready cycle into it in trace order.
 */
using OracleKernel = std::int64_t (*)(const Trace &trace,
                                      const LatencyModel &latency,
                                      const std::vector<int> *load_latencies,
                                      obs::SlotLedger *ledger);

/** The kernels one model run needs. */
struct Kernels
{
    ForwardKernel forward;
    OracleKernel oracle;
};

/** The data-oriented SoA / bit-vector window kernel (fast_engine.cc). */
void fastForward(ForwardCtx &ctx);

/** The oracle sweep over the trace's shared per-entry decode
 *  (fast_engine.cc). */
std::int64_t fastOracle(const Trace &trace, const LatencyModel &latency,
                        const std::vector<int> *load_latencies,
                        obs::SlotLedger *ledger);

/** The kernels every public entry point runs. */
inline constexpr Kernels kFastKernels{&fastForward, &fastOracle};

/** WindowSim::run(predictions) without its meter, with the forward
 *  pass passed in. */
SimResult runWindowWith(const WindowSim &sim,
                        const PathPredictions &predictions,
                        ForwardKernel forward);

/** oracleSim() without its meter, with the sweep passed in. */
SimResult oracleSimWith(const Trace &trace, LatencyModel latency,
                        const std::vector<int> *load_latencies,
                        bool gather_accounting, OracleKernel sweep);

/** runModel(), with the kernels passed in. */
SimResult runModelWith(ModelKind kind, const Trace &trace,
                       const Cfg *cfg, BranchPredictor &predictor,
                       int e_t, const ModelRunOptions &options,
                       Kernels kernels);

} // namespace dee::sim_detail

#endif // DEE_CORE_SIM_FORWARD_PASS_HH
