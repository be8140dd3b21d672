/**
 * @file
 * Host-performance observability: how fast does the *simulator* run?
 *
 * Every observability layer before this one (stats registry, cycle
 * accounting, speculation profiler) measures the simulated machine.
 * This layer measures the host: simulated-instructions-per-second and
 * simulated-cycles-per-second per "<workload>.<model>" scope. It is
 * the instrumentation that makes "provably faster, bit-exact" hot-path
 * rewrites checkable: the simulated results are pinned by dee_report
 * --check baselines while perf.* says how fast each scope ran
 * (perfbench/ times whole runs).
 *
 * ThroughputMeter is the one host clock of a simulated run: runModel,
 * WindowSim::run, oracleSim and LevoMachine::run each pass exactly
 * one, and nothing else times a run.
 *
 * Published registry paths, per scope:
 *
 *   perf.<scope>.runs              counter  metered runs
 *   perf.<scope>.sim_instructions  counter  simulated instructions
 *   perf.<scope>.sim_cycles       counter  simulated machine cycles
 *   perf.<scope>.run_ms           stat     host wall ms per run
 *   perf.<scope>.kips             scalar   simulated kilo-instr / host s
 *   perf.<scope>.mcps             scalar   simulated mega-cycles / host s
 *
 * The derived scalars (kips/mcps) are recomputed from the accumulated
 * counters on every publish — and re-derived once more by
 * refreshPerfScalars() after a parallel sweep merges its cells — so
 * perf.* scopes merge correctly at any --jobs value: counters add
 * exactly, run_ms stats merge by sample replay, and the scalars are a
 * pure function of the merged state.
 *
 * Wall-clock values are nondeterministic by nature; consumers that
 * compare runs bit-for-bit must normalize the whole perf.* subtree
 * away, exactly as they already do for runner.* and *run_ms.
 */

#ifndef DEE_OBS_PERF_PERF_HH
#define DEE_OBS_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/registry.hh"

namespace dee::obs::perf
{

/**
 * RAII throughput meter for one scope's simulation work.
 *
 * Construct before the hot work with the "<workload>.<model>" scope,
 * feed it the simulated instruction/cycle totals, and let destruction
 * publish into the registry captured at construction (the cell-local
 * one inside a parallel sweep — see obs/isolate.hh):
 *
 *     obs::perf::ThroughputMeter meter("compress.DEE-CD-MF");
 *     SimResult r = sim.run(pred);
 *     meter.addInstructions(r.instructions);
 *     meter.addCycles(r.cycles);
 *     // dtor: perf.compress.DEE-CD-MF.* updated
 *
 * The constructor is one clock read; the destructor is another plus
 * a handful of registry lookups — negligible against any real
 * simulation.
 */
class ThroughputMeter
{
  public:
    explicit ThroughputMeter(std::string scope);
    ~ThroughputMeter();

    ThroughputMeter(const ThroughputMeter &) = delete;
    ThroughputMeter &operator=(const ThroughputMeter &) = delete;

    void addInstructions(std::uint64_t n) { instructions_ += n; }
    void addCycles(std::uint64_t n) { cycles_ += n; }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t cycles() const { return cycles_; }
    const std::string &scope() const { return scope_; }

    /** Host wall milliseconds since construction. */
    double elapsedMs() const;

  private:
    void publish();

    std::string scope_;
    Registry &registry_;
    std::uint64_t instructions_ = 0;
    std::uint64_t cycles_ = 0;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Publishes the process's host resource usage, read from getrusage(2),
 * under perf.host.* in @p registry: peak_rss_kb (ru_maxrss, KiB),
 * major_faults (paged in from disk) and minor_faults. This is the
 * memory-pressure side of the host-perf story — a hot-path rewrite
 * that wins KIPS by ballooning its working set shows up here. Counters
 * are *set* to the process totals, not accumulated, so repeated
 * publishes (Session exit after several sweeps) stay idempotent.
 * No-op where getrusage is unavailable.
 */
void publishHostResources(Registry &registry);

/**
 * Recomputes every perf.<scope>.kips / .mcps scalar in
 * @p registry from the accumulated counters and run_ms stats, exactly
 * as the last ThroughputMeter publish of each scope would have.
 * Registry::merge() leaves derived scalars holding the last merged
 * cell's snapshot; the parallel runner calls this once after all
 * cells merged (alongside refreshAccountingScalars()).
 */
void refreshPerfScalars(Registry &registry);

} // namespace dee::obs::perf

#endif // DEE_OBS_PERF_PERF_HH
