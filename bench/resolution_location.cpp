/**
 * @file
 * Experiment E6 — where in the DEE tree do mispredicted branches
 * resolve? (Section 5.3: "most of the resolving is done at the root of
 * the tree, accounting for around 70-80% of the resolved
 * mispredictions").
 *
 * Measured under both branch-resolution regimes at E_T = 100:
 * serialized resolution (DEE-CD) pins resolution to the root; parallel
 * resolution (DEE-CD-MF) lets some branches resolve while still deep
 * in the tree.
 */

#include <climits>
#include <cstdio>

#include "bench_util.hh"
#include "common/cli.hh"

namespace
{

void
report(const char *title, dee::ModelKind kind,
       const std::vector<dee::BenchmarkInstance> &suite)
{
    dee::Table table({"workload", "mispredicts", "at root", "depth<=2",
                      "depth<=8"});
    std::uint64_t total_mis = 0;
    std::uint64_t total_root = 0;
    for (const auto &inst : suite) {
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        dee::ModelRunOptions options;
        options.gatherResolveStats = true;
        const dee::SimResult r = dee::runModel(kind, inst.trace,
                                               &inst.cfg, pred, 100,
                                               options);
        auto cum = [&](std::size_t max_d) {
            std::uint64_t c = 0;
            for (std::size_t d = 0;
                 d <= max_d && d < r.resolveDepthCounts.size(); ++d)
                c += r.resolveDepthCounts[d];
            return 100.0 * static_cast<double>(c) /
                   static_cast<double>(std::max<std::uint64_t>(
                       r.mispredicted, 1));
        };
        table.addRow({inst.name, std::to_string(r.mispredicted),
                      dee::Table::fmt(cum(0), 1) + "%",
                      dee::Table::fmt(cum(2), 1) + "%",
                      dee::Table::fmt(cum(8), 1) + "%"});
        total_mis += r.mispredicted;
        if (!r.resolveDepthCounts.empty())
            total_root += r.resolveDepthCounts[0];
    }
    std::printf("== %s ==\n%ssuite at-root fraction: %.1f%% "
                "(paper: 70-80%%)\n\n",
                title, table.render().c_str(),
                100.0 * static_cast<double>(total_root) /
                    static_cast<double>(std::max<std::uint64_t>(
                        total_mis, 1)));
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Misprediction resolution location in the DEE tree");
    cli.flag("scale", "4", "workload scale factor");
    cli.parse(argc, argv);
    const auto suite =
        dee::makeSuite(static_cast<int>(cli.integer("scale", 1, INT_MAX)));

    report("DEE-CD (branches resolve serially)", dee::ModelKind::DEE_CD,
           suite);
    report("DEE-CD-MF (branches resolve in parallel)",
           dee::ModelKind::DEE_CD_MF, suite);
    return 0;
}
