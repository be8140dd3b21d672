/**
 * @file
 * Static-tree heuristic, steps 1-3, end to end (Section 3.1):
 *
 *   1. "Measure the average or characteristic branch prediction
 *      accuracy p of the branch predictor to be employed by the
 *      machine by simulating the predictor on a representative group
 *      of benchmarks."
 *   2. Assume all branches are predicted with accuracy p.
 *   3. "Given the execution resources of the CPU E_T, and p, calculate
 *      the static DEE tree dimensions using the formulae."
 *
 * Then shows the performance consequence of the chosen design.
 *
 * Usage: predictor_tuning [--predictor 2bit] [--et 100] [--scale 2]
 */

#include <algorithm>
#include <climits>
#include <cstdio>

#include "bpred/bpred.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/sim/models.hh"
#include "core/tree/geometry.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Static-tree design from measured predictor accuracy");
    cli.flag("predictor", "2bit",
             "2bit | 1bit | taken | btfnt | gshare | pap");
    cli.flag("et", "100", "branch-path resource budget E_T");
    cli.flag("scale", "2", "workload scale factor");
    cli.parse(argc, argv);

    const std::string predictor = cli.str("predictor");
    const int e_t = static_cast<int>(cli.integer("et", 0, INT_MAX));
    const auto suite =
        dee::makeSuite(static_cast<int>(cli.integer("scale", 1, INT_MAX)));

    // Step 1: measure p on the representative benchmark group.
    dee::Table acc({"workload", "accuracy"});
    std::vector<double> accs;
    for (const auto &inst : suite) {
        auto meter = dee::makePredictor(predictor,
                                        inst.trace.numStatic);
        const auto rep = dee::measureAccuracy(inst.trace, *meter);
        accs.push_back(rep.accuracy);
        acc.addRow({inst.name, dee::Table::fmt(rep.accuracy, 4)});
    }
    const double p =
        std::clamp(dee::arithmeticMean(accs), 0.5, 0.995);
    acc.addRow({"characteristic p", dee::Table::fmt(p, 4)});
    std::printf("step 1 - measure %s accuracy:\n%s\n",
                predictor.c_str(), acc.render().c_str());

    // Steps 2-3: size the tree.
    const dee::TreeGeometry g = dee::computeGeometry(p, e_t);
    std::printf("step 3 - %s\n\n", g.render().c_str());

    // Consequence: run DEE-CD-MF with that fixed design-time tree.
    dee::ModelRunOptions options;
    options.characteristicP = p;
    std::vector<double> speedups;
    dee::Table perf({"workload", "DEE-CD-MF speedup"});
    for (const auto &inst : suite) {
        auto pred = dee::makePredictor(predictor,
                                       inst.trace.numStatic);
        const dee::SimResult r =
            dee::runModel(dee::ModelKind::DEE_CD_MF, inst.trace,
                          &inst.cfg, *pred, e_t, options);
        speedups.push_back(r.speedup);
        perf.addRow({inst.name, dee::Table::fmt(r.speedup, 2)});
    }
    perf.addRow({"harmonic mean",
                 dee::Table::fmt(dee::harmonicMean(speedups), 2)});
    std::printf("resulting performance at E_T=%d:\n%s", e_t,
                perf.render().c_str());
    return 0;
}
