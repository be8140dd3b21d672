/**
 * @file
 * Experiment E14 — why sc was excluded (Section 5.1: "The sc benchmark
 * was not included as it was significantly more predictable than the
 * others").
 *
 * Measures sc-like predictability next to the suite and shows the
 * consequence the exclusion avoids: with a near-perfect predictor the
 * speculative models converge (DEE degenerates toward SP as p -> 1,
 * per Section 2), which would have flattered every model equally.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "exec/interp.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("The excluded sc benchmark");
    cli.flag("scale", "2", "workload scale factor");
    cli.parse(argc, argv);
    const int scale = static_cast<int>(cli.integer("scale", 1, INT_MAX));

    // Build the sc instance by hand (it is deliberately not in the
    // suite factory).
    dee::Program sc_prog = dee::makeExcludedScLike(scale);
    dee::Cfg sc_cfg(sc_prog);
    dee::Interpreter interp(sc_prog);
    dee::BenchmarkInstance sc{dee::WorkloadId::Cc1, "sc",
                              std::move(sc_prog), std::move(sc_cfg),
                              interp.run(50'000'000).trace};

    auto suite = dee::makeSuite(scale);

    dee::Table table({"workload", "2bit accuracy", "SP@100",
                      "DEE-CD-MF@100", "DEE benefit"});
    auto add_row = [&](const dee::BenchmarkInstance &inst) {
        dee::TwoBitPredictor meter(inst.trace.numStatic);
        const double acc =
            dee::measureAccuracy(inst.trace, meter).accuracy;
        const double sp =
            dee::bench::speedupOf(dee::ModelKind::SP, inst, 100);
        const double dee_mf =
            dee::bench::speedupOf(dee::ModelKind::DEE_CD_MF, inst, 100);
        table.addRow({inst.name, dee::Table::fmt(acc, 4),
                      dee::Table::fmt(sp, 2),
                      dee::Table::fmt(dee_mf, 2),
                      dee::Table::fmt(dee_mf / sp, 2) + "x"});
    };
    for (const auto &inst : suite)
        add_row(inst);
    add_row(sc);

    std::printf("%s\nsc's accuracy sits well above the suite (the "
                "paper's stated reason for dropping it); its DEE tree "
                "is nearly a pure SP chain (log_p(1-p) grows past the "
                "window), so including it would have diluted the "
                "contrast between models.\n",
                table.render().c_str());
    return 0;
}
