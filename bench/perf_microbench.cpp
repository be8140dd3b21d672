/**
 * @file
 * google-benchmark microbenchmarks of the simulation engines
 * themselves: interpreter, oracle pass, windowed simulator per model,
 * Levo machine, tree construction. These measure the *tool's* speed
 * (instructions simulated per second), not the paper's results.
 *
 * Accepts the standard observability flags (--json/--trace-out/
 * --stats) in addition to the google-benchmark ones; they are
 * stripped from argv before benchmark::Initialize sees them.
 *
 * An "item" is one simulated (or interpreted) instruction actually
 * executed, not an iterations x trace-size estimate. Every simulated
 * run meters itself (obs/perf/perf.hh: scopes "Oracle", "<model>" and
 * "Levo" in the --json manifest); the interpreter, which has no meter
 * of its own, runs under "microbench.interpreter".
 *
 * With --hotspots each kernel's timed loop also runs under a
 * HotspotPhase marker (scope "bench"), the engines' own nested phase
 * markers attribute the samples, and the per-phase share table is
 * printed after the google-benchmark report.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "core/tree/spec_tree.hh"
#include "exec/interp.hh"
#include "levo/levo.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/obs.hh"
#include "workloads/suite.hh"

namespace
{

const dee::BenchmarkInstance &
compressInstance()
{
    static const dee::BenchmarkInstance inst =
        dee::makeInstance(dee::WorkloadId::Compress, 2);
    return inst;
}

void
BM_Interpreter(benchmark::State &state)
{
    const auto &inst = compressInstance();
    dee::Interpreter interp(inst.program);
    dee::obs::perf::ThroughputMeter meter("microbench.interpreter");
    for (auto _ : state) {
        const dee::obs::hotspot::HotspotPhase hot(
            "bench", dee::obs::hotspot::Phase::Issue);
        auto r = interp.run(10'000'000, false);
        benchmark::DoNotOptimize(r.steps);
        meter.addInstructions(r.steps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(meter.instructions()));
}
BENCHMARK(BM_Interpreter);

void
BM_OracleSim(benchmark::State &state)
{
    const auto &inst = compressInstance();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const dee::obs::hotspot::HotspotPhase hot(
            "bench", dee::obs::hotspot::Phase::Issue);
        auto r = dee::oracleSim(inst.trace);
        benchmark::DoNotOptimize(r.cycles);
        instructions += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_OracleSim);

void
BM_WindowSim(benchmark::State &state)
{
    const auto &inst = compressInstance();
    const auto kind = static_cast<dee::ModelKind>(state.range(0));
    dee::TwoBitPredictor pred(inst.trace.numStatic);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const dee::obs::hotspot::HotspotPhase hot(
            "bench", dee::obs::hotspot::Phase::Issue);
        auto r = dee::runModel(kind, inst.trace, &inst.cfg, pred, 256);
        benchmark::DoNotOptimize(r.cycles);
        instructions += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_WindowSim)
    ->Arg(static_cast<int>(dee::ModelKind::SP))
    ->Arg(static_cast<int>(dee::ModelKind::EE))
    ->Arg(static_cast<int>(dee::ModelKind::DEE))
    ->Arg(static_cast<int>(dee::ModelKind::DEE_CD_MF));

void
BM_LevoMachine(benchmark::State &state)
{
    const auto &inst = compressInstance();
    dee::LevoMachine machine(inst.program, inst.cfg, dee::LevoConfig{});
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const dee::obs::hotspot::HotspotPhase hot(
            "bench", dee::obs::hotspot::Phase::Issue);
        auto r = machine.run(10'000'000);
        benchmark::DoNotOptimize(r.cycles);
        instructions += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_LevoMachine);

void
BM_TreeConstruction(benchmark::State &state)
{
    const int e_t = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const dee::obs::hotspot::HotspotPhase hot(
            "bench", dee::obs::hotspot::Phase::TreeMove);
        auto tree = dee::SpecTree::deeGreedy(0.9053, e_t);
        benchmark::DoNotOptimize(tree.numPaths());
    }
}
BENCHMARK(BM_TreeConstruction)->Arg(32)->Arg(256)->Arg(2048);

/**
 * Pulls the obs flags out of argv (google-benchmark aborts on flags
 * it does not know). Accepts both "--flag value" and "--flag=value".
 */
dee::obs::SessionOptions
extractObsFlags(int &argc, char **argv)
{
    dee::obs::SessionOptions options;
    // Matches "--name VALUE" (consuming the next arg) or "--name=VALUE".
    auto match = [&](int &i, const char *name,
                     std::string &value) -> bool {
        const std::string arg = argv[i];
        if (arg == name) {
            if (i + 1 < argc)
                value = argv[++i];
            return true;
        }
        const std::string prefix = std::string(name) + "=";
        if (arg.rfind(prefix, 0) == 0) {
            value = arg.substr(prefix.size());
            return true;
        }
        return false;
    };
    std::vector<char *> kept;
    kept.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string interval;
        if (match(i, "--json", options.jsonPath) ||
            match(i, "--trace-out", options.traceOutPath) ||
            match(i, "--hotspot-out", options.hotspotOutPath)) {
            continue;
        }
        if (match(i, "--hotspot-interval", interval)) {
            options.hotspotIntervalMs = std::stod(interval);
            continue;
        }
        // "--stats" and "--hotspots" are bare switches here (or
        // "--flag=BOOL"): taking a separate value argument would
        // swallow benchmark flags.
        const std::string arg = argv[i];
        if (arg == "--stats" || arg.rfind("--stats=", 0) == 0) {
            const std::string v =
                arg == "--stats" ? "true" : arg.substr(8);
            options.dumpStats = v == "true" || v == "1";
            continue;
        }
        if (arg == "--hotspots" || arg.rfind("--hotspots=", 0) == 0) {
            const std::string v =
                arg == "--hotspots" ? "true" : arg.substr(11);
            options.hotspots = v == "true" || v == "1";
            continue;
        }
        kept.push_back(argv[i]);
    }
    options.hotspots = options.hotspots || !options.hotspotOutPath.empty();
    argc = static_cast<int>(kept.size());
    for (int i = 0; i < argc; ++i)
        argv[i] = kept[i];
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const dee::obs::SessionOptions options =
        extractObsFlags(argc, argv);
    dee::obs::Session session("perf_microbench", options);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // With --hotspots: fold the samples now and show where the host
    // cycles went, phase by phase, under the benchmark report.
    dee::obs::hotspot::Sampler &sampler =
        dee::obs::hotspot::Sampler::process();
    if (sampler.everStarted()) {
        sampler.stop();
        std::fputs(sampler.report().renderTable().c_str(), stdout);
    }
    return 0;
}
