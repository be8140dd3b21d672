/**
 * @file
 * Experiment E8 — Levo machine configuration study (Sections 4.3/5.3).
 *
 * Sweeps the paper's hardware design points on the cycle-level Levo
 * model: the 32x8 IQ with 0 / 3x1-column / 11x2-column DEE paths
 * (E_T ~ 32 and ~100 equivalents), misprediction penalty 1 vs 0, and
 * the transistor budget estimates; also reports the loop-capture
 * statistic behind the paper's ">70% of dynamic loops fit an IQ of
 * 32" claim.
 */

#include <climits>
#include <cstdio>
#include <limits>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "levo/levo.hh"
#include "workloads/workloads.hh"

namespace
{

struct DesignPoint
{
    const char *name;
    dee::LevoConfig config;
};

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Levo configuration study");
    cli.flag("scale", "2", "workload scale factor");
    cli.flag("max-instrs", "2000000", "per-run instruction cap");
    cli.parse(argc, argv);
    const int scale = static_cast<int>(cli.integer("scale", 1, INT_MAX));
    const auto cap = static_cast<std::uint64_t>(cli.integer(
        "max-instrs", 1, std::numeric_limits<std::int64_t>::max()));

    std::vector<DesignPoint> points;
    {
        dee::LevoConfig no_dee;
        no_dee.deePaths = 0;
        points.push_back({"IQ 32x8, no DEE paths", no_dee});

        dee::LevoConfig three;
        three.deePaths = 3;
        three.deeColumns = 1;
        points.push_back({"IQ 32x8, 3 1-col DEE (ET~32)", three});

        dee::LevoConfig eleven;
        eleven.deePaths = 11;
        eleven.deeColumns = 2;
        points.push_back({"IQ 32x8, 11 2-col DEE (ET~100)", eleven});

        dee::LevoConfig zero_pen = eleven;
        zero_pen.mispredictPenalty = 0;
        points.push_back({"11 2-col DEE, 0-cycle penalty", zero_pen});

        // The paper's growth projection: "allowing the IQ length to
        // increase to, say, 64, almost all of these dynamic instances
        // of the loops will fit in the Queue."
        dee::LevoConfig sixty_four = eleven;
        sixty_four.iqRows = 64;
        points.push_back({"IQ 64x8, 11 2-col DEE", sixty_four});
    }

    for (const auto &[name, config] : points) {
        dee::Table table({"workload", "ipc", "mispred", "deeCovered",
                          "refills", "loopCapture"});
        std::vector<double> ipcs;
        std::vector<double> captures;
        for (dee::WorkloadId id : dee::allWorkloads()) {
            dee::Program p = dee::makeWorkload(id, scale);
            dee::Cfg cfg(p);
            dee::LevoMachine machine(p, cfg, config);
            const dee::LevoResult r = machine.run(cap);
            ipcs.push_back(r.ipc);
            captures.push_back(r.loopCaptureFraction());
            table.addRow({dee::workloadName(id),
                          dee::Table::fmt(r.ipc, 2),
                          std::to_string(r.mispredicted),
                          std::to_string(r.deeCovered),
                          std::to_string(r.refills),
                          dee::Table::fmt(r.loopCaptureFraction(), 3)});
        }
        std::printf("== %s ==\n(est. %.1fM transistors)\n%s"
                    "harmonic-mean IPC: %.2f   mean loop capture: "
                    "%.1f%%\n\n",
                    name, config.transistorEstimateMillions(),
                    table.render().c_str(), dee::harmonicMean(ipcs),
                    100.0 * dee::arithmeticMean(captures));
    }
    std::printf("paper: >70%% of conditional-backward-branch loops fit "
                "an IQ of 32; each 1-column DEE path ~1M transistors; "
                "misprediction penalty 1 cycle (possibly 0).\n");
    return 0;
}
