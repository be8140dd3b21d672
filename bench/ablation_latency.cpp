/**
 * @file
 * Experiment E9c — non-unit latencies (the paper's stated future work:
 * "It is not yet clear what the net effect of assuming non-unit
 * latencies on the DEE-CD-MF model will be").
 *
 * Compares unit latency against a realistic point (3-cycle loads) for
 * the top models, answering the paper's open question within this
 * framework: speedups shrink, but DEE's relative advantage survives.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Non-unit latency study (paper future work)");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_latency", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    dee::Table table({"latency model", "SP", "EE", "DEE", "SP-CD-MF",
                      "DEE-CD-MF", "Oracle"});
    const std::vector<dee::ModelKind> kinds{
        dee::ModelKind::SP,       dee::ModelKind::EE,
        dee::ModelKind::DEE,      dee::ModelKind::SP_CD_MF,
        dee::ModelKind::DEE_CD_MF, dee::ModelKind::Oracle};
    const auto grid = dee::bench::runGrid(
        2 * kinds.size(), suite, sweep,
        [&](std::size_t p, const dee::BenchmarkInstance &inst) {
            dee::ModelRunOptions options;
            options.latency = p / kinds.size() != 0
                                  ? dee::LatencyModel::realistic()
                                  : dee::LatencyModel::unit();
            return dee::bench::speedupOf(kinds[p % kinds.size()], inst,
                                         100, options);
        });
    for (bool realistic : {false, true}) {
        std::vector<std::string> row{realistic ? "3-cycle loads"
                                               : "unit (paper)"};
        dee::obs::Json point = dee::obs::Json::object();
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const double hm = dee::harmonicMean(
                grid[(realistic ? kinds.size() : 0) + k]);
            point[std::string(dee::modelName(kinds[k])) + "_speedup"] =
                dee::obs::Json(hm);
            row.push_back(dee::Table::fmt(hm, 2));
        }
        session.manifest().results()[realistic ? "realistic" : "unit"] =
            std::move(point);
        table.addRow(std::move(row));
    }
    std::printf("%s\nspeedups are vs a *unit-latency* sequential "
                "machine in both rows, so the second row isolates the "
                "cost of memory latency.\n",
                table.render().c_str());
    return 0;
}
