/**
 * @file
 * Trace capture / inspection / replay utility.
 *
 * Subcommands (via --mode):
 *   capture  generate a workload, run it, write the binary trace file
 *   info     print statistics of a trace file
 *   replay   run the ILP model suite over a previously captured trace
 *
 * This is the capture-once / sweep-many workflow the paper used with
 * its benchmark traces.
 *
 * Examples:
 *   trace_tool --mode capture --workload eqntott --scale 2 --file t.dee
 *   trace_tool --mode info --file t.dee
 *   trace_tool --mode replay --file t.dee --et 100
 */

#include <climits>
#include <cstdio>
#include <string>

#include "bpred/bpred.hh"
#include "common/logging.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "mem/cache.hh"
#include "trace/trace_io.hh"
#include "workloads/workloads.hh"

namespace
{

int
doCapture(const dee::Cli &cli)
{
    const dee::WorkloadId id =
        dee::workloadByName(cli.str("workload"));
    dee::Program program = dee::makeWorkload(
        id, static_cast<int>(cli.integer("scale", 1, INT_MAX)));
    dee::Interpreter interp(program);
    const dee::ExecResult run = interp.run(100'000'000);
    dee::writeTrace(run.trace, cli.str("file"));
    std::printf("captured %zu instructions of %s to %s\n",
                run.trace.size(), dee::workloadName(id),
                cli.str("file").c_str());
    return 0;
}

/** The trace in --file; prints the reader's error and exits 1. */
dee::Trace
loadTrace(const dee::Cli &cli)
{
    dee::Trace trace;
    std::string err;
    if (!dee::readTrace(cli.str("file"), &trace, &err))
        dee_fatal(err);
    return trace;
}

int
doInfo(const dee::Cli &cli)
{
    const dee::Trace trace = loadTrace(cli);
    const dee::TraceStats stats = dee::computeStats(trace);
    std::printf("%s\n", stats.render().c_str());

    dee::TwoBitPredictor pred(trace.numStatic);
    const dee::AccuracyReport acc = dee::measureAccuracy(trace, pred);
    std::printf("2-bit accuracy: %.4f over %llu branches\n",
                acc.accuracy,
                static_cast<unsigned long long>(acc.branches));

    const dee::MemoryStats mem =
        dee::computeMemoryLatencies(trace, dee::MemoryConfig{}, nullptr);
    std::printf("memory: %s\n", mem.render().c_str());
    return 0;
}

int
doReplay(const dee::Cli &cli)
{
    const dee::Trace trace = loadTrace(cli);
    const int e_t = static_cast<int>(cli.integer("et", 0, INT_MAX));

    // No Program is available for a bare trace file, so the CD models
    // are skipped (they need the CFG); the plain models + Oracle run.
    dee::Table table({"model", "speedup", "cycles"});
    for (dee::ModelKind kind :
         {dee::ModelKind::EE, dee::ModelKind::SP, dee::ModelKind::DEE,
          dee::ModelKind::Oracle}) {
        dee::TwoBitPredictor pred(trace.numStatic);
        const dee::SimResult r =
            dee::runModel(kind, trace, nullptr, pred, e_t);
        table.addRow({dee::modelName(kind),
                      dee::Table::fmt(r.speedup, 2),
                      std::to_string(r.cycles)});
    }
    std::printf("replay of %s at E_T=%d:\n%s",
                cli.str("file").c_str(), e_t, table.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("Trace capture / inspection / replay");
    cli.flag("mode", "info", "capture | info | replay");
    cli.flag("file", "trace.dee", "trace file path");
    cli.flag("workload", "compress", "workload for capture mode");
    cli.flag("scale", "2", "workload scale for capture mode");
    cli.flag("et", "100", "resource budget for replay mode");
    cli.parse(argc, argv);

    const std::string mode = cli.str("mode");
    if (mode == "capture")
        return doCapture(cli);
    if (mode == "info")
        return doInfo(cli);
    if (mode == "replay")
        return doReplay(cli);
    dee_fatal("unknown --mode '", mode, "'");
}
