/**
 * @file
 * Experiment E15 — software DEE on a VLIW machine (Section 1.1: "For
 * software-based machines, e.g., classic VLIW machines, DEE theory and
 * heuristics indicate which code to execute speculatively. If an ALU
 * is otherwise free in a cycle, DEE indicates which code to assign to
 * it, for the best performance.")
 *
 * Static per-block VLIW schedules with one level of profile-guided
 * speculative hoisting; the hoist policy decides which successor's
 * code fills free slots. Evaluated by trace replay at several machine
 * widths.
 */

#include <climits>
#include <cstdio>

#include "bpred/bpred.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "vliw/vliw.hh"
#include "workloads/suite.hh"

namespace
{

/** Per-static-branch taken frequency from the trace (the profile). */
std::vector<double>
takenProfile(const dee::BenchmarkInstance &inst)
{
    std::vector<double> seen(inst.trace.numStatic, 0.0);
    std::vector<double> taken(inst.trace.numStatic, 0.0);
    for (const auto &rec : inst.trace.records) {
        if (!rec.isBranch)
            continue;
        seen[rec.sid] += 1.0;
        if (rec.taken)
            taken[rec.sid] += 1.0;
    }
    std::vector<double> freq(inst.trace.numStatic, 0.5);
    for (std::size_t s = 0; s < freq.size(); ++s)
        if (seen[s] > 0)
            freq[s] = taken[s] / seen[s];
    return freq;
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Software DEE: VLIW hoist-policy comparison");
    cli.flag("scale", "2", "workload scale factor");
    cli.parse(argc, argv);
    const auto suite =
        dee::makeSuite(static_cast<int>(cli.integer("scale", 1, INT_MAX)));

    for (int width : {2, 4, 8}) {
        dee::Table table({"policy", "HM speedup", "hoisted instrs"});
        for (dee::HoistPolicy policy :
             {dee::HoistPolicy::None, dee::HoistPolicy::SinglePath,
              dee::HoistPolicy::Dee, dee::HoistPolicy::Eager}) {
            std::vector<double> speedups;
            int hoisted = 0;
            for (const auto &inst : suite) {
                dee::VliwConfig config;
                config.width = width;
                config.policy = policy;
                // Scarce speculation slots — the regime where the
                // assignment rule matters.
                config.maxHoistPerBlock = 2;
                dee::VliwScheduler sched(inst.program, inst.cfg, config,
                                         takenProfile(inst));
                const std::uint64_t cycles = sched.evaluate(inst.trace);
                speedups.push_back(
                    static_cast<double>(inst.trace.size()) /
                    static_cast<double>(cycles));
                hoisted += sched.totalHoisted();
            }
            table.addRow({dee::hoistPolicyName(policy),
                          dee::Table::fmt(dee::harmonicMean(speedups),
                                          2),
                          std::to_string(hoisted)});
        }
        std::printf("== %d-wide VLIW ==\n%s\n", width,
                    table.render().c_str());
    }
    std::printf("expected: dee >= single-path >= none, and dee >= "
                "eager once slots are scarce (the paper's free-ALU "
                "assignment rule).\n");
    return 0;
}
