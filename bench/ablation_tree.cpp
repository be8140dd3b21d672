/**
 * @file
 * Experiment E9a — tree-shape ablations for the DEE-CD-MF model.
 *
 * Design choices probed (all called out in DESIGN.md):
 *   1. static closed-form heuristic tree vs theory-exact greedy tree
 *      (Section 3: the heuristic gives up little),
 *   2. sensitivity to the characteristic accuracy p used to size the
 *      tree (what if the designer mis-estimates p?),
 *   3. misprediction penalty 0 / 1 / 2 cycles (Levo hopes for 0).
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

namespace
{

/** One DEE-CD-MF sim with an explicit tree shape; the per-instance
 *  body the grid cells below run. */
double
speedupWithTree(const dee::BenchmarkInstance &inst, bool greedy,
                double p_override, int e_t, int penalty)
{
    dee::TwoBitPredictor pred(inst.trace.numStatic);
    double p = p_override;
    if (p <= 0.0)
        p = dee::characteristicAccuracy(inst.trace, pred);
    const dee::SpecTree tree = greedy
                                   ? dee::SpecTree::deeGreedy(p, e_t)
                                   : dee::SpecTree::deeStatic(p, e_t);
    dee::SimConfig config;
    config.cd = dee::CdModel::Minimal;
    config.mispredictPenalty = penalty;
    dee::WindowSim sim(inst.trace, tree, config, &inst.cfg);
    return sim.run(pred).speedup;
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("DEE tree-shape ablations (DEE-CD-MF, harmonic mean)");
    cli.flag("scale", "4", "workload scale factor");
    dee::runner::declareFlags(cli);
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("ablation_tree", cli);
    const dee::runner::SweepOptions sweep = dee::runner::fromCli(cli);
    const auto suite = dee::bench::makeSuiteParallel(
        static_cast<int>(cli.integer("scale", 1, INT_MAX)), sweep);
    const std::vector<int> ets{32, 64, 100, 256};

    dee::obs::Json ets_json = dee::obs::Json::array();
    for (int e_t : ets)
        ets_json.push(dee::obs::Json(e_t));
    session.manifest().results()["ets"] = std::move(ets_json);

    // 1. Heuristic vs greedy tree.
    {
        dee::obs::Json &out = (session.manifest().results()["tree"] =
                                   dee::obs::Json::object());
        dee::Table table({"tree", "ET=32", "ET=64", "ET=100", "ET=256"});
        const auto grid = dee::bench::runGrid(
            2 * ets.size(), suite, sweep,
            [&](std::size_t p, const dee::BenchmarkInstance &inst) {
                return speedupWithTree(inst, p / ets.size() != 0, -1.0,
                                       ets[p % ets.size()], 1);
            });
        for (bool greedy : {false, true}) {
            std::vector<std::string> row{
                greedy ? "greedy (theory-exact)" : "static heuristic"};
            dee::obs::Json series = dee::obs::Json::array();
            for (std::size_t e = 0; e < ets.size(); ++e) {
                const double hm = dee::harmonicMean(
                    grid[(greedy ? ets.size() : 0) + e]);
                series.push(dee::obs::Json(hm));
                row.push_back(dee::Table::fmt(hm, 2));
            }
            out[greedy ? "greedy" : "static"] = std::move(series);
            table.addRow(std::move(row));
        }
        std::printf("== heuristic vs theory tree ==\n%s\n",
                    table.render().c_str());
    }

    // 2. Mis-estimated characteristic p.
    {
        dee::obs::Json &out =
            (session.manifest().results()["p_sensitivity"] =
                 dee::obs::Json::object());
        dee::Table table({"design p", "ET=32", "ET=64", "ET=100",
                          "ET=256"});
        const std::vector<double> ps{0.80, 0.86, 0.9053, 0.95, -1.0};
        const auto grid = dee::bench::runGrid(
            ps.size() * ets.size(), suite, sweep,
            [&](std::size_t point, const dee::BenchmarkInstance &inst) {
                return speedupWithTree(inst, false,
                                       ps[point / ets.size()],
                                       ets[point % ets.size()], 1);
            });
        for (std::size_t pi = 0; pi < ps.size(); ++pi) {
            const double p = ps[pi];
            const std::string label =
                p < 0 ? "measured" : dee::Table::fmt(p, 4);
            std::vector<std::string> row{
                p < 0 ? "measured per workload" : dee::Table::fmt(p, 4)};
            dee::obs::Json series = dee::obs::Json::array();
            for (std::size_t e = 0; e < ets.size(); ++e) {
                const double hm =
                    dee::harmonicMean(grid[pi * ets.size() + e]);
                series.push(dee::obs::Json(hm));
                row.push_back(dee::Table::fmt(hm, 2));
            }
            out[label] = std::move(series);
            table.addRow(std::move(row));
        }
        std::printf("== characteristic-p sensitivity ==\n%s\n",
                    table.render().c_str());
    }

    // 3. Misprediction penalty.
    {
        dee::obs::Json &out = (session.manifest().results()["penalty"] =
                                   dee::obs::Json::object());
        dee::Table table({"penalty", "ET=32", "ET=64", "ET=100",
                          "ET=256"});
        const std::vector<int> penalties{0, 1, 2, 4};
        const auto grid = dee::bench::runGrid(
            penalties.size() * ets.size(), suite, sweep,
            [&](std::size_t point, const dee::BenchmarkInstance &inst) {
                return speedupWithTree(
                    inst, false, -1.0, ets[point % ets.size()],
                    penalties[point / ets.size()]);
            });
        for (std::size_t pi = 0; pi < penalties.size(); ++pi) {
            std::vector<std::string> row{
                std::to_string(penalties[pi])};
            dee::obs::Json series = dee::obs::Json::array();
            for (std::size_t e = 0; e < ets.size(); ++e) {
                const double hm =
                    dee::harmonicMean(grid[pi * ets.size() + e]);
                series.push(dee::obs::Json(hm));
                row.push_back(dee::Table::fmt(hm, 2));
            }
            out[std::to_string(penalties[pi])] = std::move(series);
            table.addRow(std::move(row));
        }
        std::printf("== misprediction penalty (paper: 1 cycle, maybe "
                    "0) ==\n%s",
                    table.render().c_str());
    }
    return 0;
}
