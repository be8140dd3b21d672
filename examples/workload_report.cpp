/**
 * @file
 * Prints per-workload trace characteristics: instruction counts, branch
 * density, predictor accuracies, oracle (dataflow-limit) speedup.
 *
 * This is step 1 of the paper's static-tree heuristic ("measure the
 * characteristic branch prediction accuracy p") applied to the whole
 * suite, plus the calibration evidence for the SPECint92 substitutions
 * documented in DESIGN.md.
 */

#include <climits>
#include <cstdio>

#include "bpred/bpred.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/sim/window_sim.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Workload characteristics report");
    cli.flag("scale", "4", "workload scale factor");
    cli.parse(argc, argv);
    const int scale = static_cast<int>(cli.integer("scale", 1, INT_MAX));

    dee::Table table({"workload", "instrs", "branches", "density",
                      "path-len", "2bit-acc", "oracle-speedup"});
    std::vector<double> accs;
    std::vector<double> oracles;

    for (auto &inst : dee::makeSuite(scale)) {
        const dee::TraceStats stats = dee::computeStats(inst.trace);
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        const dee::AccuracyReport acc =
            dee::measureAccuracy(inst.trace, pred);
        const dee::SimResult oracle = dee::oracleSim(inst.trace);
        accs.push_back(acc.accuracy);
        oracles.push_back(oracle.speedup);
        table.addRow({inst.name, std::to_string(stats.instructions),
                      std::to_string(stats.condBranches),
                      dee::Table::fmt(stats.branchFraction, 3),
                      dee::Table::fmt(stats.meanPathLength, 2),
                      dee::Table::fmt(acc.accuracy, 4),
                      dee::Table::fmt(oracle.speedup, 2)});
    }
    table.addRow({"mean", "-", "-", "-", "-",
                  dee::Table::fmt(dee::arithmeticMean(accs), 4),
                  dee::Table::fmt(dee::harmonicMean(oracles), 2)});

    std::printf("%s\n", table.render().c_str());
    std::printf("paper (2-bit, SPECint92): avg accuracy 0.9053; oracle "
                "speedups cc1 23.22, compress 25.86, eqntott 2810.48, "
                "espresso 815.62, xlisp 104.35, HM 53.82\n");
    return 0;
}
