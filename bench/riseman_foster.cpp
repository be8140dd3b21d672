/**
 * @file
 * Experiment E10 — the Riseman & Foster limit study (the paper's
 * reference [5] and Section 1.2 background): dataflow speedup as a
 * function of the number of conditional jumps bypassed eagerly.
 *
 * Their 1972 result: ~1.72x with no jumps bypassed, rising to 25.65x
 * (harmonic mean) with unlimited eager execution — the "infinite
 * resources" case that EE approximates and DEE makes affordable. The
 * unlimited column equals the Oracle of the Figure 5 simulations.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/sim/limits.hh"
#include "obs/obs.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Riseman-Foster bounded-branch limit study");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("riseman_foster", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    const std::vector<std::optional<int>> points{
        0, 1, 2, 4, 8, 16, 32, 128, std::nullopt};

    std::vector<std::string> headers{"workload"};
    for (const auto &j : points)
        headers.push_back(j ? "j=" + std::to_string(*j) : "j=inf");
    dee::Table table(headers);

    // One cell per (benchmark, bypass point), benchmark-major like the
    // serial loops.
    std::vector<double> flat(suite.size() * points.size(), 0.0);
    dee::runner::runCells(flat.size(), sweep, [&](std::size_t c) {
        flat[c] = dee::limitStudy(suite[c / points.size()].trace,
                                  points[c % points.size()])
                      .speedup;
    });
    std::vector<std::vector<double>> columns(points.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row{suite[i].name};
        for (std::size_t c = 0; c < points.size(); ++c) {
            const double speedup = flat[i * points.size() + c];
            columns[c].push_back(speedup);
            row.push_back(dee::Table::fmt(speedup, 2));
        }
        table.addRow(std::move(row));
    }
    dee::obs::Json points_json = dee::obs::Json::array();
    for (const auto &j : points)
        points_json.push(j ? dee::obs::Json(*j) : dee::obs::Json(-1));
    session.manifest().results()["bypassed_jumps"] =
        std::move(points_json);
    dee::obs::Json hm_json = dee::obs::Json::array();
    std::vector<std::string> hm_row{"harmonic mean"};
    for (const auto &col : columns) {
        const double v = dee::harmonicMean(col);
        hm_json.push(dee::obs::Json(v));
        hm_row.push_back(dee::Table::fmt(v, 2));
    }
    session.manifest().results()["harmonic_mean_speedup"] =
        std::move(hm_json);
    table.addRow(std::move(hm_row));

    std::printf("%s\nRiseman-Foster 1972 (harmonic means): j=0 ~1.72, "
                "rising to 25.65 with unlimited bypassing; the j=inf "
                "column is the Oracle of Figure 5.\n",
                table.render().c_str());
    return 0;
}
