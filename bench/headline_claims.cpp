/**
 * @file
 * Experiment E5 — the Section 5.3 headline claims, measured at the
 * Levo design point E_T = 100 over the harmonic mean of the suite:
 *
 *   - DEE-CD-MF speedup ~ 31.9x over sequential execution
 *   - ~ 5.8x better than SP (plain branch prediction)
 *   - ~ 4.0x better than EE (eager execution)
 *   - DEE-CD-MF at E_T=8 equals EE at E_T=256
 *   - DEE-CD-MF at E_T=32 is still high (paper: ~26x)
 *   - DEE-CD-MF achieves ~59% of Oracle performance
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Section 5.3 headline claims at E_T = 100");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("headline_claims", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);

    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    // 7 harmonic-mean points + 2 PE-estimate sims per benchmark;
    // progress to stderr unless the run is scripted (--json).
    dee::obs::Heartbeat heartbeat(
        "headline_claims", session.options().jsonPath.empty());
    heartbeat.setTotal(suite.size() * 9);

    const std::vector<std::pair<dee::ModelKind, int>> points{
        {dee::ModelKind::DEE_CD_MF, 100},
        {dee::ModelKind::DEE_CD_MF, 32},
        {dee::ModelKind::DEE_CD_MF, 8},
        {dee::ModelKind::SP, 100},
        {dee::ModelKind::EE, 100},
        {dee::ModelKind::EE, 256},
        {dee::ModelKind::Oracle, 0}};
    const auto grid = dee::bench::runGrid(
        points.size(), suite, sweep,
        [&](std::size_t p, const dee::BenchmarkInstance &inst) {
            return dee::bench::speedupOf(points[p].first, inst,
                                         points[p].second);
        },
        &heartbeat);

    const double dee100 = dee::harmonicMean(grid[0]);
    const double dee32 = dee::harmonicMean(grid[1]);
    const double dee8 = dee::harmonicMean(grid[2]);
    const double sp100 = dee::harmonicMean(grid[3]);
    const double ee100 = dee::harmonicMean(grid[4]);
    const double ee256 = dee::harmonicMean(grid[5]);
    const double oracle = dee::harmonicMean(grid[6]);

    dee::Table table({"claim", "measured", "paper", "ratio"});
    dee::obs::Json &claims = (session.manifest().results()["claims"] =
                                  dee::obs::Json::object());
    auto claim = [&](const std::string &what, double measured,
                     double paper) {
        dee::bench::compareToPaper(table, what, measured, paper);
        dee::obs::Json entry = dee::obs::Json::object();
        entry["measured"] = dee::obs::Json(measured);
        entry["paper"] = dee::obs::Json(paper);
        claims[what] = std::move(entry);
    };
    claim("DEE-CD-MF @100 (x sequential)", dee100, 31.9);
    claim("DEE-CD-MF @100 / SP @100", dee100 / sp100, 5.8);
    claim("DEE-CD-MF @100 / EE @100", dee100 / ee100, 4.0);
    claim("DEE-CD-MF @8 / EE @256", dee8 / ee256, 1.0);
    claim("DEE-CD-MF @32 (x sequential)", dee32, 26.0);
    claim("DEE-CD-MF @100 / Oracle (%)", 100.0 * dee100 / oracle,
          59.0);
    std::printf("%s", table.render().c_str());

    // Section 5.1's PE estimate: "the maximum number of PE's used at
    // any time ... is likely to be less than 200 (for 100 branch
    // paths), with the average being much lower."
    std::vector<std::uint64_t> peaks(suite.size(), 0);
    std::vector<double> means(suite.size(), 0.0);
    // The issue-stats sim sizes its tree from a fresh clone of the
    // predictor (characteristicAccuracy), not from the state runModel()
    // leaves it in.
    dee::runner::runCells(suite.size(), sweep, [&](std::size_t i) {
        const auto &inst = suite[i];
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        dee::ModelRunOptions options;
        options.profileWorkload = inst.name;
        dee::SimResult r = dee::runModel(dee::ModelKind::DEE_CD_MF,
                                         inst.trace, &inst.cfg, pred,
                                         100, options);
        heartbeat.tick(1, r.instructions);
        dee::SimConfig config;
        config.cd = dee::CdModel::Minimal;
        config.gatherIssueStats = true;
        // Keep this extra issue-stats sim out of the main model scope
        // so its profile does not double-count the runModel() pass.
        config.profileWorkload = inst.name;
        config.profileModel = "DEE-CD-MF-pe";
        config.profileScope = inst.name + ".DEE-CD-MF-pe";
        const double p =
            dee::characteristicAccuracy(inst.trace, pred);
        dee::WindowSim sim(inst.trace,
                           dee::SpecTree::deeStatic(p, 100), config,
                           &inst.cfg);
        dee::TwoBitPredictor pred2(inst.trace.numStatic);
        const dee::SimResult stats = sim.run(pred2);
        heartbeat.tick(1, stats.instructions);
        peaks[i] = stats.peakIssue;
        means[i] = stats.speedup;
    });
    heartbeat.finish();
    std::uint64_t peak = 0;
    for (std::uint64_t p : peaks)
        peak = std::max(peak, p);
    std::printf("\npeak busy PEs at E_T=100 over the suite: %llu "
                "(paper estimate: <200); average busy PEs = the HM "
                "speedup, %.1f (\"much lower\") \n",
                static_cast<unsigned long long>(peak),
                dee::harmonicMean(means));
    session.manifest().results()["peak_busy_pes"] = dee::obs::Json(peak);
    session.manifest().results()["mean_busy_pes"] =
        dee::obs::Json(dee::harmonicMean(means));
    return 0;
}
