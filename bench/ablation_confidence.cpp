/**
 * @file
 * Experiment E9f — confidence-gated DEE (the paper's Section 5.3
 * remark: "performance would be improved if these [below-average-
 * accuracy] branches were DEE'd earlier, at lower levels of E_T ...
 * DEE paths could be usefully employed with many fewer than 32 branch
 * path resources").
 *
 * Compares the fixed static tree against confidence-gated side paths
 * that attach to profiled low-accuracy branches at any depth, with the
 * gate threshold chosen per workload so the *expected* side-path
 * resource usage matches the static tree's budget (equal E_T).
 */

#include <algorithm>
#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"
#include "core/tree/geometry.hh"

namespace
{

/** Execution-weighted accuracy percentile -> gate threshold. */
double
thresholdForFraction(const dee::BenchmarkInstance &inst,
                     const std::vector<double> &accuracy, double fraction)
{
    std::vector<std::uint64_t> count(accuracy.size(), 0);
    std::uint64_t total = 0;
    for (const auto &rec : inst.trace.records) {
        if (rec.isBranch) {
            ++count[rec.sid];
            ++total;
        }
    }
    std::vector<std::pair<double, std::uint64_t>> by_acc;
    for (std::size_t s = 0; s < accuracy.size(); ++s)
        if (count[s] > 0)
            by_acc.emplace_back(accuracy[s], count[s]);
    std::sort(by_acc.begin(), by_acc.end());
    const auto want = static_cast<std::uint64_t>(
        fraction * static_cast<double>(total));
    std::uint64_t seen = 0;
    for (const auto &[acc, n] : by_acc) {
        seen += n;
        if (seen >= want)
            return acc + 1e-9;
    }
    return 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Confidence-gated DEE vs the static tree (DEE-CD-MF)");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_confidence", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);

    const std::vector<int> ets{16, 32, 64, 100};
    dee::Table table({"variant", "ET=16", "ET=32", "ET=64", "ET=100"});

    dee::obs::Json ets_json = dee::obs::Json::array();
    for (int e_t : ets)
        ets_json.push(dee::obs::Json(e_t));
    session.manifest().results()["ets"] = std::move(ets_json);

    const auto grid = dee::bench::runGrid(
        2 * ets.size(), suite, sweep,
        [&](std::size_t point, const dee::BenchmarkInstance &inst) {
            const bool gated = point / ets.size() != 0;
            const int e_t = ets[point % ets.size()];
            dee::TwoBitPredictor pred(inst.trace.numStatic);
            const double p =
                dee::characteristicAccuracy(inst.trace, pred);
            const dee::TreeGeometry g = dee::computeGeometry(p, e_t);

            dee::SimConfig config;
            config.cd = dee::CdModel::Minimal;

            std::vector<double> accuracy;
            dee::SpecTree tree = dee::SpecTree::deeStatic(g);
            if (gated) {
                accuracy = dee::profileBranchAccuracy(inst.trace, pred);
                const int h = std::max(g.deeHeight, 1);
                const double fraction =
                    static_cast<double>(h + 1) /
                    (2.0 * std::max(g.mainLineLength, 1));
                config.confidence.accuracy = &accuracy;
                config.confidence.threshold = thresholdForFraction(
                    inst, accuracy, std::min(fraction, 1.0));
                config.confidence.sideLen = h;
                // ML depth for the gated walk = the same l; the
                // machine's static reach is still E_T resources.
                config.windowReachOverride = e_t;
                tree = dee::SpecTree::singlePath(p, g.mainLineLength);
            }
            dee::WindowSim sim(inst.trace, tree, config, &inst.cfg);
            return sim.run(pred).speedup;
        });
    for (bool gated : {false, true}) {
        std::vector<std::string> row{
            gated ? "confidence-gated side paths" : "static tree"};
        dee::obs::Json series = dee::obs::Json::array();
        for (std::size_t e = 0; e < ets.size(); ++e) {
            const double hm = dee::harmonicMean(
                grid[(gated ? ets.size() : 0) + e]);
            series.push(dee::obs::Json(hm));
            row.push_back(dee::Table::fmt(hm, 2));
        }
        session.manifest().results()[gated ? "gated_speedup"
                                           : "static_speedup"] =
            std::move(series);
        table.addRow(std::move(row));
    }
    std::printf("%s\nfinding: at equal expected resources, confidence "
                "gating roughly ties the static tree at small E_T and "
                "loses at large E_T — position-based side paths already "
                "capture most mispredictions because root-gating "
                "concentrates unresolved branches near the root, and "
                "high-confidence branches still contribute a large "
                "share of mispredicts that gating declines to cover. "
                "The paper's conjecture that smarter placement beats "
                "the heuristic is not supported in this framework.\n",
                table.render().c_str());
    return 0;
}
