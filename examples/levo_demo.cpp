/**
 * @file
 * Levo machine demo: builds a small program by hand, runs it on the
 * cycle-level Levo model (Section 4 of the paper) and on the
 * sequential interpreter, verifies the architectural state matches,
 * and reports the machine statistics (DEE coverage, VE predication,
 * loop capture, IPC).
 *
 * Usage: levo_demo [--rows 32] [--cols 8] [--dee 3] [--workload ""]
 */

#include <climits>
#include <cstdio>

#include "analysis/absint/bounds.hh"
#include "common/cli.hh"
#include "exec/interp.hh"
#include "isa/builder.hh"
#include "levo/levo.hh"
#include "obs/obs.hh"
#include "workloads/workloads.hh"

namespace
{

/** A loop with an unpredictable if inside — DEE path bait. */
dee::Program
demoProgram()
{
    using dee::Opcode;
    dee::ProgramBuilder pb;
    const auto init = pb.newBlock();
    const auto head = pb.newBlock();
    const auto odd = pb.newBlock();
    const auto latch = pb.newBlock();
    const auto done = pb.newBlock();

    pb.switchTo(init);
    pb.loadImm(1, 0);                       // i
    pb.loadImm(2, 200);                     // limit
    pb.loadImm(3, 0);                       // evens
    pb.loadImm(4, 0);                       // odds
    pb.loadImm(31, 0x9e3779b97f4a7c15ll);   // hash constant

    pb.switchTo(head);
    pb.alu(Opcode::Mul, 5, 1, 31);
    pb.aluImm(Opcode::ShrI, 5, 5, 33);
    pb.aluImm(Opcode::AndI, 5, 5, 1);       // pseudo-random bit
    pb.branch(Opcode::BranchEq, 5, dee::kZeroReg, latch); // skip if even

    pb.switchTo(odd);
    pb.aluImm(Opcode::AddI, 4, 4, 1);       // count "odd" bits
    pb.switchTo(latch);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, head);
    pb.switchTo(done);
    pb.store(4, dee::kZeroReg, 0x100);
    pb.halt();
    return pb.build();
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Levo static-instruction-window machine demo");
    cli.flag("rows", "32", "IQ rows (n)");
    cli.flag("cols", "8", "instance columns (m)");
    cli.flag("dee", "3", "DEE path count");
    cli.flag("workload", "",
             "run a suite workload instead of the demo program "
             "(cc1|compress|eqntott|espresso|xlisp)");
    dee::obs::declareFlags(cli);
    cli.parse(argc, argv);
    dee::obs::Session session("levo_demo", cli);

    dee::Program program = cli.str("workload").empty()
                               ? demoProgram()
                               : dee::makeWorkload(
                                     dee::workloadByName(
                                         cli.str("workload")),
                                     1);
    if (cli.str("workload").empty())
        std::printf("program:\n%s\n", program.disassemble().c_str());

    dee::Cfg cfg(program);
    dee::LevoConfig config;
    config.iqRows = static_cast<int>(cli.integer("rows", 1, INT_MAX));
    config.columns = static_cast<int>(cli.integer("cols", 1, INT_MAX));
    config.deePaths = static_cast<int>(cli.integer("dee", 0, INT_MAX));
    if (!cli.str("workload").empty()) {
        // Scope the perf meter as "<workload>.Levo" and publish the
        // static bounds, so dee_lint --xcheck can hold this run's
        // manifest against the critical-path lower bound.
        const dee::WorkloadId id =
            dee::workloadByName(cli.str("workload"));
        config.profileScope = cli.str("workload") + ".Levo";
        dee::analysis::absint::publishStaticBounds({id}, 1, 0);
    }

    // Golden model.
    dee::Interpreter interp(program);
    const dee::ExecResult ref = interp.run(5'000'000, false);

    // Levo.
    dee::LevoMachine machine(program, cfg, config);
    const dee::LevoResult out = machine.run(5'000'000);

    std::printf("Levo (IQ %dx%d, %d DEE paths, ~%.1fM transistors):\n"
                "  %s\n",
                config.iqRows, config.columns, config.deePaths,
                config.transistorEstimateMillions(),
                out.render().c_str());

    bool match = out.instructions == ref.steps;
    for (int r = 0; r < dee::kNumRegs; ++r)
        match = match && out.finalState.regs[r] == ref.state.regs[r];
    for (const auto &[addr, val] : ref.state.memory)
        match = match && out.finalState.readMem(addr) == val;
    std::printf("architectural state vs interpreter: %s\n",
                match ? "MATCH" : "MISMATCH");

    dee::obs::Json &results = session.manifest().results();
    results["instructions"] =
        dee::obs::Json(static_cast<std::uint64_t>(out.instructions));
    results["cycles"] =
        dee::obs::Json(static_cast<std::uint64_t>(out.cycles));
    results["ipc"] = dee::obs::Json(out.ipc);
    results["dee_covered"] =
        dee::obs::Json(static_cast<std::uint64_t>(out.deeCovered));
    results["state_match"] = dee::obs::Json(match);
    return match ? 0 : 1;
}
