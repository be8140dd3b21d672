/**
 * @file
 * Shared helpers for the experiment-reproduction binaries: standard
 * sweep drivers and paper-value comparison rows.
 *
 * Every binary in bench/ regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index) and prints it via common/table.
 */

#ifndef DEE_BENCH_BENCH_UTIL_HH
#define DEE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/absint/bounds.hh"
#include "bpred/bpred.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/sim/models.hh"
#include "obs/obs.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dee::bench
{

/**
 * Standard bench observability scope: declare the obs flags before
 * cli.parse(), then open a session after it. The returned Session's
 * manifest is live for the whole run; outputs are written when the
 * session leaves scope (see obs/session.hh).
 *
 * Because obs::declareFlags() declares the --telemetry* family, every
 * grid tool built on this helper gets streaming telemetry for free:
 * the Session starts the sampler (obs/telemetry/telemetry.hh),
 * runner::runCells inside the sweep drivers below feeds it cell
 * progress, and the Heartbeat the tool passes to sweepInstance() /
 * runGrid() feeds simulated-instruction throughput — so
 * `--telemetry-out` plus `dee_top --replay` shows how any of them ran
 * with no per-tool wiring.
 */
inline obs::Session
openSession(const std::string &tool, const Cli &cli)
{
    return obs::Session(tool, cli);
}

/** Speedup of one model at one resource level on one instance. Scopes
 *  any speculation profile — and the host-throughput meter inside
 *  runModel (obs/perf/perf.hh) — under "<instance>.<model>". */
inline double
speedupOf(ModelKind kind, const BenchmarkInstance &inst, int e_t,
          const ModelRunOptions &options = {})
{
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions scoped = options;
    if (scoped.profileWorkload.empty())
        scoped.profileWorkload = inst.name;
    return runModel(kind, inst.trace, &inst.cfg, pred, e_t, scoped)
        .speedup;
}

/**
 * Per-model speedup series over resource levels for one instance.
 * @p heartbeat, when given, ticks once per model run so long sweeps
 * report progress (see obs/heartbeat.hh).
 */
inline std::map<ModelKind, std::vector<double>>
sweepInstance(const BenchmarkInstance &inst, const std::vector<int> &ets,
              const ModelRunOptions &options = {},
              obs::Heartbeat *heartbeat = nullptr)
{
    std::map<ModelKind, std::vector<double>> series;
    for (ModelKind kind : allModels()) {
        auto &row = series[kind];
        for (int e_t : ets) {
            row.push_back(speedupOf(kind, inst, e_t, options));
            if (heartbeat != nullptr)
                heartbeat->tick(1, inst.trace.size());
            if (kind == ModelKind::Oracle) {
                row.resize(ets.size(), row.front());
                break;
            }
        }
    }
    return series;
}

/** One (model, E_T) point of a model-sweep grid; Oracle contributes a
 *  single point regardless of |ets| (its speedup is E_T-independent). */
struct SweepCell
{
    ModelKind kind;
    int et;
};

/**
 * The cell list sweepInstance() walks, in its exact serial order
 * (model-major, E_T-minor, one Oracle point). Parallel drivers run
 * these through runner::runCells so the deterministic in-order merge
 * reproduces the serial registry state.
 */
inline std::vector<SweepCell>
sweepCells(const std::vector<int> &ets)
{
    std::vector<SweepCell> cells;
    for (ModelKind kind : allModels()) {
        if (kind == ModelKind::Oracle) {
            cells.push_back({kind, ets.front()});
            continue;
        }
        for (int e_t : ets)
            cells.push_back({kind, e_t});
    }
    return cells;
}

/** Reassembles flat sweepCells() results into the per-model series
 *  shape sweepInstance() returns. */
inline std::map<ModelKind, std::vector<double>>
assembleSeries(const std::vector<int> &ets,
               const std::vector<double> &flat)
{
    std::map<ModelKind, std::vector<double>> series;
    std::size_t idx = 0;
    for (ModelKind kind : allModels()) {
        auto &row = series[kind];
        if (kind == ModelKind::Oracle) {
            row.assign(ets.size(), flat.at(idx++));
            continue;
        }
        for (std::size_t i = 0; i < ets.size(); ++i)
            row.push_back(flat.at(idx++));
    }
    return series;
}

/**
 * sweepInstance() distributed over runner::runCells: identical output
 * and (after the runner's in-order merge) identical observability
 * state, any --jobs value.
 */
inline std::map<ModelKind, std::vector<double>>
sweepInstance(const BenchmarkInstance &inst, const std::vector<int> &ets,
              const runner::SweepOptions &sweep,
              const ModelRunOptions &options = {},
              obs::Heartbeat *heartbeat = nullptr)
{
    const std::vector<SweepCell> cells = sweepCells(ets);
    std::vector<double> flat(cells.size(), 0.0);
    runner::runCells(cells.size(), sweep, [&](std::size_t i) {
        flat[i] = speedupOf(cells[i].kind, inst, cells[i].et, options);
        if (heartbeat != nullptr)
            heartbeat->tick(1, inst.trace.size());
    });
    return assembleSeries(ets, flat);
}

/**
 * Runs @p eval(point, instance) for every pair of a (points x suite)
 * grid through runner::runCells — point-major, instance-minor, which
 * is the order every serial bench loop uses — and returns the results
 * as [point][instance]. With --jobs 1 this is exactly the serial
 * double loop; with --jobs N the runner's in-order merge keeps the
 * observability state identical.
 */
template <typename Eval>
inline std::vector<std::vector<double>>
runGrid(std::size_t points, const std::vector<BenchmarkInstance> &suite,
        const runner::SweepOptions &sweep, Eval &&eval,
        obs::Heartbeat *heartbeat = nullptr)
{
    std::vector<std::vector<double>> out(
        points, std::vector<double>(suite.size(), 0.0));
    runner::runCells(points * suite.size(), sweep, [&](std::size_t c) {
        const std::size_t point = c / suite.size();
        const std::size_t inst = c % suite.size();
        out[point][inst] = eval(point, suite[inst]);
        if (heartbeat != nullptr)
            heartbeat->tick();
    });
    return out;
}

/**
 * makeSuite() with the instance builds (generate + CFG + trace — the
 * expensive part of tool startup) distributed over runner::runCells.
 *
 * Also publishes the abstract interpreter's static bounds for the
 * suite (serially, after the parallel build — the publish mutates
 * process-wide observability state), so every grid tool's manifest
 * carries the "static_bounds" section that dee_lint --xcheck gates on.
 */
inline std::vector<BenchmarkInstance>
makeSuiteParallel(int scale, const runner::SweepOptions &sweep,
                  std::uint64_t max_instrs = 50'000'000,
                  std::uint64_t seed = 0)
{
    const std::vector<WorkloadId> ids = allWorkloads();
    std::vector<std::unique_ptr<BenchmarkInstance>> built(ids.size());
    runner::runCells(ids.size(), sweep, [&](std::size_t i) {
        built[i] = std::make_unique<BenchmarkInstance>(
            makeInstance(ids[i], scale, max_instrs, seed));
    });
    std::vector<BenchmarkInstance> suite;
    suite.reserve(built.size());
    for (auto &instance : built)
        suite.push_back(std::move(*instance));
    analysis::absint::publishStaticBounds(ids, scale, seed);
    return suite;
}

/** Renders a model x E_T speedup table, Figure-5 style. */
inline std::string
renderSweep(const std::string &title,
            const std::map<ModelKind, std::vector<double>> &series,
            const std::vector<int> &ets)
{
    std::vector<std::string> headers{"model"};
    for (int e_t : ets)
        headers.push_back("ET=" + std::to_string(e_t));
    Table table(headers);
    for (ModelKind kind : allModels()) {
        std::vector<std::string> row{modelName(kind)};
        for (double s : series.at(kind))
            row.push_back(Table::fmt(s, 2));
        table.addRow(std::move(row));
    }
    return "== " + title + "\n" + table.render();
}

/** Model -> speedup-series object for run manifests. */
inline obs::Json
seriesToJson(const std::map<ModelKind, std::vector<double>> &series)
{
    obs::Json out = obs::Json::object();
    for (ModelKind kind : allModels()) {
        const auto it = series.find(kind);
        if (it == series.end())
            continue;
        obs::Json row = obs::Json::array();
        for (double s : it->second)
            row.push(obs::Json(s));
        out[modelName(kind)] = std::move(row);
    }
    return out;
}

/** Harmonic mean across instances, element-wise per model/ET. */
inline std::map<ModelKind, std::vector<double>>
harmonicSeries(
    const std::vector<std::map<ModelKind, std::vector<double>>> &all,
    std::size_t num_ets)
{
    std::map<ModelKind, std::vector<double>> hm;
    for (ModelKind kind : allModels()) {
        auto &row = hm[kind];
        for (std::size_t i = 0; i < num_ets; ++i) {
            std::vector<double> samples;
            for (const auto &series : all)
                samples.push_back(series.at(kind)[i]);
            row.push_back(harmonicMean(samples));
        }
    }
    return hm;
}

/** Prints a "measured vs paper" comparison row. */
inline void
compareToPaper(Table &table, const std::string &what, double measured,
               double paper)
{
    table.addRow({what, Table::fmt(measured, 2), Table::fmt(paper, 2),
                  Table::fmt(measured / paper, 2)});
}

} // namespace dee::bench

#endif // DEE_BENCH_BENCH_UTIL_HH
