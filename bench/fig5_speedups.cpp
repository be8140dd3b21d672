/**
 * @file
 * Experiment E4 — Figure 5: speedup vs branch-path resources for the
 * seven constrained ILP models plus Oracle, on all five SPECint92-
 * profile workloads and their harmonic mean.
 *
 * Prints one table per benchmark graph plus the summary harmonic-mean
 * graph, each row a model and each column a resource level E_T in
 * {8, 16, 32, 64, 128, 256}, exactly the series the paper plots.
 *
 * Flags: --scale N (trace size), --penalty P (mispredict penalty),
 * --jobs N (parallel cells; results identical to --jobs 1), plus the
 * standard observability flags (--json/--trace-out/--stats).
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Figure 5 reproduction: model speedups vs resources");
    cli.flag("scale", "4", "workload scale factor");
    cli.flag("penalty", "1", "misprediction penalty (cycles)");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("fig5_speedups", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);

    const std::vector<int> ets{8, 16, 32, 64, 128, 256};
    dee::ModelRunOptions options;
    options.mispredictPenalty =
        static_cast<int>(cli.integer("penalty", 0, INT_MAX));

    const double paper_oracle[] = {23.22, 25.86, 2810.48, 815.62,
                                   104.35};

    dee::obs::Json ets_json = dee::obs::Json::array();
    for (int e_t : ets)
        ets_json.push(dee::obs::Json(e_t));
    session.manifest().results()["ets"] = std::move(ets_json);
    dee::obs::Json &benchmarks =
        (session.manifest().results()["benchmarks"] =
             dee::obs::Json::object());

    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);
    // One global cell list (benchmark-major, then model-major) rather
    // than a per-benchmark sweep, so every (benchmark, model, E_T)
    // point is a schedulable cell and --jobs N keeps all workers busy
    // across benchmark boundaries. The list order IS the serial
    // publish order, so the runner's in-order merge reproduces the
    // --jobs 1 observability state exactly.
    const std::vector<dee::bench::SweepCell> per_inst =
        dee::bench::sweepCells(ets);
    const std::size_t stride = per_inst.size();
    // 7 constrained models x |ets| runs + 1 Oracle run per benchmark;
    // progress to stderr unless the run is scripted (--json).
    dee::obs::Heartbeat heartbeat(
        "fig5_speedups", session.options().jsonPath.empty());
    heartbeat.setTotal(suite.size() * stride);
    std::vector<double> flat(suite.size() * stride, 0.0);
    dee::runner::runCells(flat.size(), sweep, [&](std::size_t c) {
        const auto &inst = suite[c / stride];
        const dee::bench::SweepCell &cell = per_inst[c % stride];
        flat[c] = dee::bench::speedupOf(cell.kind, inst, cell.et,
                                        options);
        heartbeat.tick(1, inst.trace.size());
    });

    std::vector<std::map<dee::ModelKind, std::vector<double>>> all;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &inst = suite[i];
        auto series = dee::bench::assembleSeries(
            ets, {flat.begin() + static_cast<std::ptrdiff_t>(i * stride),
                  flat.begin() +
                      static_cast<std::ptrdiff_t>((i + 1) * stride)});
        std::printf("%s", dee::bench::renderSweep(
                              inst.name + " (paper oracle: " +
                                  dee::Table::fmt(paper_oracle[i], 2) +
                                  ")",
                              series, ets)
                              .c_str());
        std::printf("\n");
        benchmarks[inst.name] = dee::bench::seriesToJson(series);
        all.push_back(std::move(series));
    }

    heartbeat.finish();

    const auto hm = dee::bench::harmonicSeries(all, ets.size());
    session.manifest().results()["harmonic_mean"] =
        dee::bench::seriesToJson(hm);
    std::printf("%s", dee::bench::renderSweep(
                          "Harmonic Mean (paper oracle: 53.82)", hm,
                          ets)
                          .c_str());
    std::printf(
        "\npaper Figure 5 shape checks (Harmonic Mean graph):\n"
        "  - SP stops improving at ~16 paths\n"
        "  - DEE == SP at low E_T, then pulls ahead\n"
        "  - ordering at 256: DEE-CD-MF > SP-CD-MF > DEE-CD > SP-CD >"
        " DEE > SP, with EE crossing SP at high E_T\n"
        "  - DEE-CD-MF at 8 paths ~ EE at 256 paths\n");
    return 0;
}
