/**
 * @file
 * Static-tree geometry explorer: renders the SP / EE / DEE trees and
 * the closed-form DEE dimensions for any (p, E_T) design point.
 *
 * Usage: tree_explorer [--p 0.9] [--et 34] [--strategy dee|sp|ee|greedy]
 */

#include <climits>
#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "core/tree/geometry.hh"
#include "core/tree/spec_tree.hh"

int
main(int argc, char **argv)
{
    dee::Cli cli("Speculation-tree explorer");
    cli.flag("p", "0.9", "branch prediction accuracy in [0.5, 1)");
    cli.flag("et", "34", "branch-path resource budget E_T");
    cli.flag("strategy", "dee", "dee | greedy | sp | ee | all");
    cli.parse(argc, argv);

    const double p = cli.real("p");
    const int e_t = static_cast<int>(cli.integer("et", 0, INT_MAX));
    const std::string strategy = cli.str("strategy");

    const dee::TreeGeometry g = dee::computeGeometry(p, e_t);
    std::printf("%s\n", g.render().c_str());
    std::printf("  log_p(1-p) = %.2f (ML depth where a side path "
                "first wins)\n\n",
                dee::logP1mp(p));

    auto show = [&](const char *name, const dee::SpecTree &tree) {
        std::printf("--- %s (%d paths, depth %d) ---\n%s\n", name,
                    tree.numPaths(), tree.maxDepth(),
                    tree.render().c_str());
    };
    if (strategy == "sp" || strategy == "all")
        show("SP chain", dee::SpecTree::singlePath(p, e_t));
    if (strategy == "ee" || strategy == "all")
        show("EE level tree", dee::SpecTree::eager(p, e_t));
    if (strategy == "dee" || strategy == "all")
        show("DEE static heuristic", dee::SpecTree::deeStatic(g));
    if (strategy == "greedy" || strategy == "all")
        show("DEE greedy (theory)", dee::SpecTree::deeGreedy(p, e_t));

    // Geometry sweep table around this design point.
    dee::Table sweep({"E_T", "l (ML)", "h_DEE", "DEE paths"});
    for (int et2 : {8, 16, 32, 64, 100, 128, 256}) {
        const dee::TreeGeometry g2 = dee::computeGeometry(p, et2);
        sweep.addRow({std::to_string(et2),
                      std::to_string(g2.mainLineLength),
                      std::to_string(g2.deeHeight),
                      std::to_string(g2.deeHeight *
                                     (g2.deeHeight + 1) / 2)});
    }
    std::printf("geometry sweep at p=%.4f:\n%s", p,
                sweep.render().c_str());
    return 0;
}
