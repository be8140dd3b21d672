/**
 * @file
 * Experiment E9e — a memory system under the ILP models (the paper's
 * future work: "a suitable memory system will be studied").
 *
 * Replays each trace through a two-level cache hierarchy and feeds the
 * per-load latencies to the windowed models and the Oracle. Three
 * points: perfect memory (the paper's unit-latency assumption), a
 * default L1/L2, and a stressed tiny-L1 configuration.
 */

#include <climits>
#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "common/cli.hh"
#include "mem/cache.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Cache hierarchy study at E_T = 100");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_memory", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    struct Point
    {
        const char *name;
        bool enabled;
        dee::MemoryConfig config;
    };
    const Point points[] = {
        {"perfect (paper)", false, {}},
        {"L1 2K-word + L2 32K-word", true, dee::MemoryConfig{}},
        {"tiny L1, 100-cycle memory", true, dee::MemoryConfig::small()},
    };

    dee::obs::Json &out = (session.manifest().results()["memory"] =
                               dee::obs::Json::object());
    dee::Table table({"memory", "L1 hit", "mean load lat", "SP",
                      "DEE-CD-MF", "Oracle"});
    // One cell per (memory point, benchmark): the cache replay and the
    // three sims that consume its latencies belong together.
    struct CellOut
    {
        double sp = 0.0, deeMf = 0.0, oracle = 0.0;
        double l1Hit = 1.0, meanLat = 1.0;
    };
    const std::size_t num_points = std::size(points);
    std::vector<CellOut> cells(num_points * suite.size());
    dee::runner::runCells(
        cells.size(), sweep, [&](std::size_t c) {
            const Point &point = points[c / suite.size()];
            const auto &inst = suite[c % suite.size()];
            CellOut &res = cells[c];
            std::vector<int> latencies;
            dee::ModelRunOptions options;
            if (point.enabled) {
                const dee::MemoryStats stats =
                    dee::computeMemoryLatencies(inst.trace, point.config,
                                                &latencies);
                options.loadLatencies = &latencies;
                res.l1Hit = stats.l1HitRate();
                res.meanLat = stats.meanLoadLatency;
            }
            res.sp = dee::bench::speedupOf(dee::ModelKind::SP, inst,
                                           100, options);
            res.deeMf = dee::bench::speedupOf(dee::ModelKind::DEE_CD_MF,
                                              inst, 100, options);
            res.oracle = dee::bench::speedupOf(dee::ModelKind::Oracle,
                                               inst, 0, options);
        });
    for (std::size_t pi = 0; pi < num_points; ++pi) {
        const Point &point = points[pi];
        std::vector<double> sp, dee_mf, oracle;
        double l1_hit = 1.0;
        double mean_lat = 1.0;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const CellOut &res = cells[pi * suite.size() + i];
            sp.push_back(res.sp);
            dee_mf.push_back(res.deeMf);
            oracle.push_back(res.oracle);
            if (point.enabled) {
                l1_hit = res.l1Hit;
                mean_lat = res.meanLat;
            }
        }
        dee::obs::Json entry = dee::obs::Json::object();
        entry["l1_hit_rate"] = dee::obs::Json(point.enabled ? l1_hit : 1.0);
        entry["mean_load_latency"] =
            dee::obs::Json(point.enabled ? mean_lat : 1.0);
        entry["sp_speedup"] = dee::obs::Json(dee::harmonicMean(sp));
        entry["dee_cd_mf_speedup"] =
            dee::obs::Json(dee::harmonicMean(dee_mf));
        entry["oracle_speedup"] =
            dee::obs::Json(dee::harmonicMean(oracle));
        out[point.name] = std::move(entry);
        table.addRow({point.name,
                      point.enabled
                          ? dee::Table::fmt(100.0 * l1_hit, 1) + "%"
                          : "-",
                      point.enabled ? dee::Table::fmt(mean_lat, 2) : "1",
                      dee::Table::fmt(dee::harmonicMean(sp), 2),
                      dee::Table::fmt(dee::harmonicMean(dee_mf), 2),
                      dee::Table::fmt(dee::harmonicMean(oracle), 2)});
    }
    std::printf("%s\n(the L1-hit/mean-lat columns show the last "
                "workload's hierarchy behaviour; speedups are "
                "suite harmonic means vs the unit-latency sequential "
                "machine)\n",
                table.render().c_str());
    return 0;
}
