/**
 * @file
 * Cross-module integration tests: the full pipelines a user of the
 * library composes — generate -> trace -> file -> replay; geometry ->
 * tree -> simulation; unroll -> Levo; cache -> models — plus
 * end-to-end determinism and consistency checks between independent
 * engines.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/sim/limits.hh"
#include "core/sim/models.hh"
#include "core/tree/geometry.hh"
#include "exec/interp.hh"
#include "levo/levo.hh"
#include "mem/cache.hh"
#include "superscalar/superscalar.hh"
#include "trace/trace_io.hh"
#include "workloads/suite.hh"
#include "xform/unroll.hh"

namespace dee
{
namespace
{

TEST(Pipeline, CaptureFileReplayMatchesDirect)
{
    // Simulating a trace read back from disk must give bit-identical
    // results to simulating the in-memory trace.
    const std::string path =
        ::testing::TempDir() + "dee_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin";
    const BenchmarkInstance inst = makeInstance(WorkloadId::Eqntott, 1);
    writeTrace(inst.trace, path);
    const Trace loaded = readTrace(path);
    std::remove(path.c_str());

    for (ModelKind kind : {ModelKind::SP, ModelKind::DEE,
                           ModelKind::DEE_CD_MF, ModelKind::Oracle}) {
        TwoBitPredictor pa(inst.trace.numStatic);
        TwoBitPredictor pb(loaded.numStatic);
        const SimResult a =
            runModel(kind, inst.trace, &inst.cfg, pa, 64);
        const SimResult b = runModel(kind, loaded, &inst.cfg, pb, 64);
        EXPECT_EQ(a.cycles, b.cycles) << modelName(kind);
        EXPECT_EQ(a.mispredicted, b.mispredicted) << modelName(kind);
    }
}

TEST(Pipeline, GeometryDrivesTreeDrivesSim)
{
    // The heuristic pipeline end to end: measured p -> geometry ->
    // static tree -> simulation; runModel() must agree with the
    // hand-assembled pipeline.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 1);
    TwoBitPredictor pred(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, pred);
    const TreeGeometry g = computeGeometry(p, 100);
    const SpecTree tree = SpecTree::deeStatic(g);

    SimConfig config;
    config.cd = CdModel::Minimal;
    WindowSim sim(inst.trace, tree, config, &inst.cfg);
    TwoBitPredictor pa(inst.trace.numStatic);
    const SimResult manual = sim.run(pa);

    TwoBitPredictor pb(inst.trace.numStatic);
    const SimResult packaged =
        runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, pb, 100);
    EXPECT_EQ(manual.cycles, packaged.cycles);
}

TEST(Pipeline, UnrolledProgramThroughEveryEngine)
{
    // The unroll filter's output must be a first-class Program: CFG
    // analysis, interpretation, windowed models, Levo and the
    // superscalar all accept it and agree functionally.
    Program p = makeWorkload(WorkloadId::Compress, 1);
    Program u = unrollProgram(p, UnrollOptions{2, 48});
    Cfg cfg(u);
    Interpreter interp(u);
    const ExecResult run = interp.run(5'000'000);
    ASSERT_TRUE(run.halted);

    TwoBitPredictor pred(run.trace.numStatic);
    const SimResult windowed =
        runModel(ModelKind::DEE_CD_MF, run.trace, &cfg, pred, 100);
    EXPECT_GT(windowed.speedup, 1.0);

    const SuperscalarResult ss =
        superscalarSim(run.trace, SuperscalarConfig{});
    EXPECT_GT(ss.ipc, 1.0);

    LevoMachine levo(u, cfg, LevoConfig{});
    const LevoResult lr = levo.run(5'000'000);
    EXPECT_EQ(lr.instructions, run.steps);
}

TEST(Pipeline, CacheLatenciesFlowThroughEveryModel)
{
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 1);
    std::vector<int> latencies;
    computeMemoryLatencies(inst.trace, MemoryConfig::small(),
                           &latencies);
    ModelRunOptions options;
    options.loadLatencies = &latencies;
    const SimResult oracle = oracleSim(inst.trace, LatencyModel::unit(),
                                       &latencies);
    for (ModelKind kind : constrainedModels()) {
        TwoBitPredictor pred(inst.trace.numStatic);
        const SimResult r =
            runModel(kind, inst.trace, &inst.cfg, pred, 64, options);
        EXPECT_LE(r.speedup, oracle.speedup * 1.0001)
            << modelName(kind);
        EXPECT_GE(r.cycles, 1u);
    }
}

TEST(Consistency, EnginesAgreeOnSequentialLowerBound)
{
    // Every engine's cycle count is bounded below by the dataflow
    // height and above by the sequential execution length.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Cc1, 1);
    const std::uint64_t n = inst.trace.size();
    const SimResult oracle = oracleSim(inst.trace);

    TwoBitPredictor pred(inst.trace.numStatic);
    const SimResult windowed =
        runModel(ModelKind::SP, inst.trace, &inst.cfg, pred, 16);
    const SuperscalarResult ss =
        superscalarSim(inst.trace, SuperscalarConfig{});

    for (std::uint64_t cycles :
         {windowed.cycles, ss.cycles}) {
        EXPECT_GE(cycles, oracle.cycles);
        EXPECT_LE(cycles, 3 * n) << "sanity: not absurdly slow";
    }
}

TEST(Consistency, HierarchyOfModels)
{
    // Oracle >= LW-SP-CD-MF >= constrained DEE-CD-MF >= DEE >= 1.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Espresso, 1);
    TwoBitPredictor p1(inst.trace.numStatic);
    TwoBitPredictor p2(inst.trace.numStatic);
    TwoBitPredictor p3(inst.trace.numStatic);
    const double oracle = oracleSim(inst.trace).speedup;
    const double lw =
        lamWilsonStudy(inst.trace, inst.cfg, LwModel::SP_CD_MF, p1)
            .speedup;
    const double dee_mf =
        runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, p2, 256)
            .speedup;
    const double dee =
        runModel(ModelKind::DEE, inst.trace, &inst.cfg, p3, 256)
            .speedup;
    EXPECT_GE(oracle, lw * 0.999);
    EXPECT_GE(lw, dee_mf * 0.999);
    EXPECT_GE(dee_mf, dee * 0.999);
    EXPECT_GE(dee, 1.0);
}

TEST(Determinism, WholeSuiteTwice)
{
    // Full end-to-end determinism: two independent constructions of
    // the same experiment produce identical numbers.
    auto run_once = [] {
        std::vector<std::uint64_t> cycles;
        for (auto &inst : makeSuite(1)) {
            TwoBitPredictor pred(inst.trace.numStatic);
            cycles.push_back(runModel(ModelKind::DEE_CD_MF, inst.trace,
                                      &inst.cfg, pred, 100)
                                 .cycles);
        }
        return cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Determinism, LevoTwice)
{
    Program p = makeWorkload(WorkloadId::Eqntott, 1);
    Cfg cfg(p);
    const LevoResult a = LevoMachine(p, cfg, LevoConfig{}).run(500'000);
    const LevoResult b = LevoMachine(p, cfg, LevoConfig{}).run(500'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.vePredications, b.vePredications);
}

TEST(ResourceMonotonicity, SpeedupNondecreasingInEt)
{
    // More branch-path resources never hurt, for any model/workload.
    for (WorkloadId id : {WorkloadId::Compress, WorkloadId::Espresso}) {
        const BenchmarkInstance inst = makeInstance(id, 1);
        for (ModelKind kind :
             {ModelKind::SP, ModelKind::EE, ModelKind::DEE,
              ModelKind::DEE_CD_MF}) {
            double prev = 0.0;
            for (int e_t : {4, 8, 16, 32, 64, 128, 256}) {
                TwoBitPredictor pred(inst.trace.numStatic);
                const double s =
                    runModel(kind, inst.trace, &inst.cfg, pred, e_t)
                        .speedup;
                EXPECT_GE(s, prev * 0.995)
                    << modelName(kind) << " at " << e_t << " on "
                    << inst.name;
                prev = s;
            }
        }
    }
}

} // namespace
} // namespace dee
