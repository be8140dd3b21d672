/**
 * @file
 * Mini Figure-5 sweep from the public API: every ILP model at each
 * resource level on one workload (or the harmonic mean of all five).
 *
 * Usage: spec_sweep [--workload eqntott|all] [--scale 4]
 *                   [--resources 8,16,32,64,128,256] [--penalty 1]
 */

#include <climits>
#include <cstdio>
#include <sstream>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/sim/models.hh"
#include "workloads/suite.hh"

namespace
{

std::vector<int>
parseResourceList(const std::string &csv)
{
    std::vector<int> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(std::stoi(item));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Figure-5 style model sweep");
    cli.flag("workload", "all", "cc1|compress|eqntott|espresso|xlisp|all");
    cli.flag("scale", "4", "workload scale factor");
    cli.flag("resources", "8,16,32,64,128,256",
             "comma-separated branch-path budgets (E_T)");
    cli.flag("penalty", "1", "misprediction penalty in cycles");
    cli.parse(argc, argv);

    const std::string which = cli.str("workload");
    const int scale = static_cast<int>(cli.integer("scale", 1, INT_MAX));
    const std::vector<int> budgets =
        parseResourceList(cli.str("resources"));

    std::vector<dee::BenchmarkInstance> suite;
    if (which == "all") {
        suite = dee::makeSuite(scale);
    } else {
        suite.push_back(
            dee::makeInstance(dee::workloadByName(which), scale));
    }

    dee::ModelRunOptions options;
    options.mispredictPenalty =
        static_cast<int>(cli.integer("penalty", 0, INT_MAX));

    std::vector<std::string> headers{"model"};
    for (int e_t : budgets)
        headers.push_back("ET=" + std::to_string(e_t));
    dee::Table table(headers);

    for (dee::ModelKind kind : dee::allModels()) {
        std::vector<std::string> row{dee::modelName(kind)};
        for (int e_t : budgets) {
            std::vector<double> speedups;
            for (auto &inst : suite) {
                dee::TwoBitPredictor pred(inst.trace.numStatic);
                const dee::SimResult r = dee::runModel(
                    kind, inst.trace, &inst.cfg, pred, e_t, options);
                speedups.push_back(r.speedup);
            }
            row.push_back(
                dee::Table::fmt(dee::harmonicMean(speedups), 2));
            if (kind == dee::ModelKind::Oracle)
                break; // resource-independent
        }
        while (row.size() < headers.size())
            row.push_back(row.back());
        table.addRow(std::move(row));
    }

    std::printf("workload=%s scale=%d penalty=%lld\n%s", which.c_str(),
                scale, static_cast<long long>(cli.integer("penalty")),
                table.render().c_str());
    return 0;
}
