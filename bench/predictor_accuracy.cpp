/**
 * @file
 * Experiment E7 — branch predictor accuracies on the suite.
 *
 * Step 1 of the static-tree heuristic: "measure the average or
 * characteristic branch prediction accuracy p of the branch predictor
 * to be employed". The paper uses the classic 2-bit counter
 * (suite average 90.53%) and discusses PAp two-level adaptive
 * prediction as the realizable Levo alternative (Section 4.3).
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Predictor accuracy per workload (heuristic step 1)");
    cli.flag("scale", "4", "workload scale factor");
    cli.parse(argc, argv);
    const auto suite = dee::makeSuite(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)));

    const std::vector<std::string> predictors{"taken", "btfnt", "1bit",
                                              "2bit", "pap", "gshare", "tournament"};
    std::vector<std::string> headers{"workload"};
    for (const auto &name : predictors)
        headers.push_back(name);
    dee::Table table(headers);

    std::map<std::string, std::vector<double>> columns;
    for (const auto &inst : suite) {
        std::vector<std::string> row{inst.name};
        for (const auto &name : predictors) {
            auto pred = dee::makePredictor(
                name, inst.trace.numStatic);
            const auto rep = dee::measureAccuracy(inst.trace, *pred);
            row.push_back(dee::Table::fmt(rep.accuracy, 4));
            columns[name].push_back(rep.accuracy);
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> mean_row{"mean"};
    for (const auto &name : predictors)
        mean_row.push_back(
            dee::Table::fmt(dee::arithmeticMean(columns[name]), 4));
    table.addRow(std::move(mean_row));

    std::printf("%s\npaper: 2-bit counter average over the suite = "
                "0.9053; contemporary adaptive predictors reach "
                "0.90-0.96.\n",
                table.render().c_str());
    return 0;
}
