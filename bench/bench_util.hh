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

/** One (model, E_T) point of a model-sweep grid; Oracle contributes a
 *  single point regardless of |ets| (its speedup is E_T-independent). */
struct SweepCell
{
    ModelKind kind;
    int et;
};

/**
 * The cells of one instance's model sweep, model-major and E_T-minor
 * with one Oracle point. Drivers run them through runner::runCells,
 * whose in-order merge keeps the registry state the same at any
 * --jobs value.
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

/** Reassembles flat sweepCells() results into per-model series over
 *  the E_T levels; Oracle's one point fills its whole row. */
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
