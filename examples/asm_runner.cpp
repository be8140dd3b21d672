/**
 * @file
 * Assemble-and-run: feed a hand-written assembly file (or the built-in
 * demo) through every engine in the repository — interpreter, windowed
 * DEE models, Levo, and the conventional superscalar.
 *
 * Usage: asm_runner [--file prog.s] [--et 100]
 */

#include <climits>
#include <cstdio>

#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "isa/assembler.hh"
#include "levo/levo.hh"
#include "superscalar/superscalar.hh"

namespace
{

const char *kDemo = R"(# dot-product-with-compare demo
B0:
    li r1, 0          # i
    li r2, 3000       # n
    li r3, 0          # acc
    li r31, 2654435761
B1:
    mul r4, r1, r31   # a[i] surrogate
    shri r4, r4, 24
    mul r5, r1, r31
    shri r5, r5, 16
    andi r5, r5, 255
    blt r4, r5, B3    # unpredictable compare
B2:
    add r3, r3, r4
B3:
    addi r1, r1, 1
    blt r1, r2, B1
B4:
    sw r3, 256(r0)
    halt
)";

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Assemble a program and run it on every engine");
    cli.flag("file", "", "assembly file (empty: built-in demo)");
    cli.flag("et", "100", "branch-path resources for windowed models");
    cli.parse(argc, argv);

    dee::Program program = cli.str("file").empty()
                               ? dee::parseAssembly(kDemo)
                               : dee::parseAssemblyFile(cli.str("file"));
    std::printf("program (%zu static instructions):\n%s\n",
                program.numInstrs(), program.disassemble().c_str());

    dee::Cfg cfg(program);
    dee::Interpreter interp(program);
    const dee::ExecResult run = interp.run(50'000'000);
    if (!run.halted)
        dee_fatal("program did not halt within the step cap");
    std::printf("executed %llu dynamic instructions\n\n",
                static_cast<unsigned long long>(run.steps));

    const int e_t = static_cast<int>(cli.integer("et", 0, INT_MAX));
    dee::Table table({"engine", "speedup/ipc", "cycles"});
    for (dee::ModelKind kind :
         {dee::ModelKind::SP, dee::ModelKind::EE, dee::ModelKind::DEE,
          dee::ModelKind::SP_CD_MF, dee::ModelKind::DEE_CD_MF,
          dee::ModelKind::Oracle}) {
        dee::TwoBitPredictor pred(run.trace.numStatic);
        const dee::SimResult r =
            dee::runModel(kind, run.trace, &cfg, pred, e_t);
        table.addRow({std::string("window ") + dee::modelName(kind),
                      dee::Table::fmt(r.speedup, 2),
                      std::to_string(r.cycles)});
    }
    {
        const dee::SuperscalarResult r =
            dee::superscalarSim(run.trace, dee::SuperscalarConfig{});
        table.addRow({"superscalar 4-wide", dee::Table::fmt(r.ipc, 2),
                      std::to_string(r.cycles)});
    }
    {
        dee::LevoMachine machine(program, cfg, dee::LevoConfig{});
        const dee::LevoResult r = machine.run(50'000'000);
        table.addRow({"Levo 32x8", dee::Table::fmt(r.ipc, 2),
                      std::to_string(r.cycles)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
