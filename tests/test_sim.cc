/**
 * @file
 * Tests for the windowed ILP simulator (src/core/sim): exact cycle
 * counts on hand-built traces, misprediction and side-path mechanics,
 * the Oracle model, and cross-model invariants swept over (model, E_T)
 * with parameterized tests.
 */

#include <gtest/gtest.h>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "exec/interp.hh"
#include "obs/registry.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

TraceRecord
chainAdd(RegId dst, RegId src)
{
    TraceRecord r;
    r.op = Opcode::Add;
    r.rd = dst;
    r.rs1 = src;
    r.rs2 = src;
    return r;
}

TraceRecord
indepImm(RegId dst)
{
    TraceRecord r;
    r.op = Opcode::LoadImm;
    r.rd = dst;
    return r;
}

TraceRecord
branchOn(RegId src, bool taken, BlockId block = 0)
{
    TraceRecord r;
    r.op = Opcode::BranchEq;
    r.rs1 = src;
    r.rs2 = src;
    r.isBranch = true;
    r.taken = taken;
    r.block = block;
    return r;
}

SimResult
runPlain(const Trace &t, const SpecTree &tree, BranchPredictor &pred,
         int penalty = 1)
{
    SimConfig config;
    config.cd = CdModel::Restrictive;
    config.mispredictPenalty = penalty;
    WindowSim sim(t, tree, config);
    return sim.run(pred);
}

// --- Exact-cycle scenarios ------------------------------------------------

TEST(WindowSimExact, SerialChainTakesNCycles)
{
    Trace t;
    t.numStatic = 4;
    t.records = {indepImm(1), chainAdd(1, 1), chainAdd(1, 1),
                 chainAdd(1, 1)};
    AlwaysTakenPredictor pred;
    const SimResult r =
        runPlain(t, SpecTree::singlePath(0.9, 4), pred);
    EXPECT_EQ(r.cycles, 4u);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
}

TEST(WindowSimExact, IndependentOpsInOneCycle)
{
    Trace t;
    t.numStatic = 5;
    for (RegId d = 1; d <= 5; ++d)
        t.records.push_back(indepImm(d));
    AlwaysTakenPredictor pred;
    const SimResult r =
        runPlain(t, SpecTree::singlePath(0.9, 4), pred);
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_DOUBLE_EQ(r.speedup, 5.0);
}

TEST(WindowSimExact, WindowGatesSecondPath)
{
    // path0: li r1; beq(r1) taken-correct; path1: li r2.
    Trace t;
    t.numStatic = 3;
    t.records = {indepImm(1), branchOn(1, true), indepImm(2)};
    AlwaysTakenPredictor pred;

    // With one speculative path, path1 executes at cycle 0 and the
    // branch (dependent on r1) resolves at 2: total 2 cycles... branch
    // exec at 1 (r1 ready), resolve 2; root movement to 2.
    const SimResult wide =
        runPlain(t, SpecTree::singlePath(0.9, 1), pred);
    EXPECT_EQ(wide.cycles, 2u);

    // With an empty tree (no speculation), path1 waits for the root to
    // pass the branch: fetch 2, exec 2, done 3.
    const SimResult narrow =
        runPlain(t, SpecTree::singlePath(0.9, 0), pred);
    EXPECT_EQ(narrow.cycles, 3u);
}

TEST(WindowSimExact, MispredictPenaltyDelaysRefetch)
{
    // Branch resolves not-taken but the predictor says taken.
    Trace t;
    t.numStatic = 3;
    t.records = {indepImm(1), branchOn(1, false), indepImm(2)};
    AlwaysTakenPredictor pred;

    // exec(br)=1 (waits r1), resolve=2, penalty 1 -> path1 fetch 3.
    const SimResult pen1 =
        runPlain(t, SpecTree::singlePath(0.9, 4), pred, 1);
    EXPECT_EQ(pen1.cycles, 4u);
    EXPECT_EQ(pen1.mispredicted, 1u);

    const SimResult pen0 =
        runPlain(t, SpecTree::singlePath(0.9, 4), pred, 0);
    EXPECT_EQ(pen0.cycles, 3u);

    const SimResult pen5 =
        runPlain(t, SpecTree::singlePath(0.9, 4), pred, 5);
    EXPECT_EQ(pen5.cycles, 8u);
}

TEST(WindowSimExact, DeeSidePathHidesMispredict)
{
    // Same mispredicted branch; a DEE tree with a side path off the
    // origin holds the not-predicted code, so path1 executes during
    // branch resolution.
    Trace t;
    t.numStatic = 3;
    t.records = {indepImm(1), branchOn(1, false), indepImm(2)};
    AlwaysTakenPredictor pred;

    const SpecTree dee = SpecTree::deeGreedy(0.6, 3);
    ASSERT_NE(dee.child(SpecTree::kOrigin, false), kNoNode);
    const SimResult r = runPlain(t, dee, pred, 1);
    // path1's instruction executed at cycle 0 (side-path covered);
    // completion is bounded by tree movement: resolve 2 + penalty 1.
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_EQ(r.sidePathFetches, 1u);

    // SP at the same resource count pays the full refetch.
    const SimResult sp =
        runPlain(t, SpecTree::singlePath(0.6, 3), pred, 1);
    EXPECT_GT(sp.cycles, r.cycles - 1);
    EXPECT_EQ(sp.sidePathFetches, 0u);
}

TEST(WindowSimExact, MemoryFlowDependence)
{
    // store to A; load from A depends on it; load from B does not.
    Trace t;
    t.numStatic = 4;
    TraceRecord st;
    st.op = Opcode::Store;
    st.rs1 = kZeroReg;
    st.rs2 = kZeroReg;
    st.memAddr = 100;
    TraceRecord ld_a;
    ld_a.op = Opcode::Load;
    ld_a.rd = 2;
    ld_a.rs1 = kZeroReg;
    ld_a.memAddr = 100;
    TraceRecord ld_b = ld_a;
    ld_b.rd = 3;
    ld_b.memAddr = 200;
    t.records = {st, ld_a, ld_b};
    AlwaysTakenPredictor pred;
    const SimResult r =
        runPlain(t, SpecTree::singlePath(0.9, 2), pred);
    // store at 0; dependent load at 1; independent load at 0.
    EXPECT_EQ(r.cycles, 2u);
}

TEST(WindowSimExact, LatencyModelStretchesLoads)
{
    Trace t;
    t.numStatic = 3;
    TraceRecord ld;
    ld.op = Opcode::Load;
    ld.rd = 1;
    ld.rs1 = kZeroReg;
    ld.memAddr = 4;
    t.records = {ld, chainAdd(2, 1)};
    AlwaysTakenPredictor pred;

    SimConfig config;
    config.latency = LatencyModel::realistic(); // 3-cycle loads
    WindowSim sim(t, SpecTree::singlePath(0.9, 2), config);
    const SimResult r = sim.run(pred);
    // load 0..2, add at 3, completes 4.
    EXPECT_EQ(r.cycles, 4u);
}

TEST(WindowSimExact, EmptyTraceIsHarmless)
{
    Trace t;
    AlwaysTakenPredictor pred;
    const SimResult r =
        runPlain(t, SpecTree::singlePath(0.9, 2), pred);
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

// --- Oracle ----------------------------------------------------------------

TEST(OracleSim, DataflowHeightOnly)
{
    Trace t;
    t.numStatic = 6;
    t.records = {indepImm(1), chainAdd(1, 1), branchOn(2, true),
                 indepImm(3), chainAdd(1, 1), branchOn(3, false)};
    const SimResult r = oracleSim(t);
    // Chain: li r1 (1) -> add (2) -> add (3). Branches and li r3 are
    // off-chain. Height 3.
    EXPECT_EQ(r.cycles, 3u);
    EXPECT_DOUBLE_EQ(r.speedup, 2.0);
}

TEST(OracleSim, BranchesDoNotConstrain)
{
    // 50 mispredictable branches between independent instructions.
    Trace t;
    t.numStatic = 2;
    for (int i = 0; i < 50; ++i) {
        t.records.push_back(indepImm(1));
        t.records.push_back(branchOn(2, i % 2 == 0));
    }
    const SimResult r = oracleSim(t);
    EXPECT_EQ(r.cycles, 1u);
}

TEST(OracleSim, MemoryChainsRespected)
{
    Trace t;
    t.numStatic = 4;
    TraceRecord st;
    st.op = Opcode::Store;
    st.rs1 = kZeroReg;
    st.rs2 = kZeroReg;
    st.memAddr = 8;
    TraceRecord ld;
    ld.op = Opcode::Load;
    ld.rd = 1;
    ld.rs1 = kZeroReg;
    ld.memAddr = 8;
    // store; load (dep); store (dep on prior store via output order).
    t.records = {st, ld, st};
    const SimResult r = oracleSim(t);
    EXPECT_EQ(r.cycles, 2u);
}

// --- Model-level API --------------------------------------------------------

TEST(Models, NamesAndSets)
{
    EXPECT_STREQ(modelName(ModelKind::DEE_CD_MF), "DEE-CD-MF");
    EXPECT_STREQ(modelName(ModelKind::Oracle), "Oracle");
    EXPECT_EQ(allModels().size(), 8u);
    EXPECT_EQ(constrainedModels().size(), 7u);
    EXPECT_TRUE(usesDeeTree(ModelKind::DEE_CD));
    EXPECT_FALSE(usesDeeTree(ModelKind::SP_CD_MF));
    EXPECT_EQ(cdModelOf(ModelKind::DEE), CdModel::Restrictive);
    EXPECT_EQ(cdModelOf(ModelKind::SP_CD), CdModel::Reduced);
    EXPECT_EQ(cdModelOf(ModelKind::DEE_CD_MF), CdModel::Minimal);
}

TEST(Models, TreeShapesPerModel)
{
    EXPECT_EQ(treeForModel(ModelKind::SP, 0.9, 20).maxDepth(), 20);
    EXPECT_LT(treeForModel(ModelKind::EE, 0.9, 20).maxDepth(), 20);
    const SpecTree dee = treeForModel(ModelKind::DEE_CD_MF, 0.9, 34);
    EXPECT_EQ(dee.numPaths(), 34);
    EXPECT_NE(dee.child(SpecTree::kOrigin, false), kNoNode);
}

TEST(Models, CharacteristicAccuracyClamped)
{
    Trace t;
    t.numStatic = 1;
    for (int i = 0; i < 100; ++i)
        t.records.push_back(branchOn(1, true)); // perfectly predictable
    TwoBitPredictor pred(1);
    const double p = characteristicAccuracy(t, pred);
    EXPECT_LE(p, 0.995);
    EXPECT_GE(p, 0.5);
}

TEST(PredictPaths, BtfntSeesEachBranchsDirection)
{
    // BTFNT predicts taken exactly for backward branches, so it misses
    // every branch whose outcome differs from its direction.
    for (const WorkloadId id : allWorkloads()) {
        const BenchmarkInstance inst = makeInstance(id, 1);
        std::uint64_t expect = 0;
        for (const TraceRecord &rec : inst.trace.records)
            expect += rec.isBranch && rec.taken != rec.backward;
        BtfntPredictor btfnt;
        const PathPredictions got = predictPaths(inst.trace, btfnt);
        EXPECT_EQ(got.mispredicted, expect) << inst.name;
    }
}

TEST(Models, CdModelsRequireCfg)
{
    Trace t;
    t.numStatic = 1;
    t.records = {indepImm(1)};
    SimConfig config;
    config.cd = CdModel::Minimal;
    const SpecTree tree = SpecTree::singlePath(0.9, 2);
    EXPECT_EXIT(WindowSim(t, tree, config, nullptr),
                ::testing::ExitedWithCode(1), "need a Cfg");
}

// --- Invariants over (model, E_T), on a real generated workload -----------

struct SweepParam
{
    ModelKind kind;
    int resources;
};

class ModelSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    static const BenchmarkInstance &
    instance()
    {
        static const BenchmarkInstance inst =
            makeInstance(WorkloadId::Compress, 1);
        return inst;
    }
};

TEST_P(ModelSweep, BasicInvariants)
{
    const auto &[kind, resources] = GetParam();
    const auto &inst = instance();
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherResolveStats = true;
    const SimResult r =
        runModel(kind, inst.trace, &inst.cfg, pred, resources, options);

    EXPECT_EQ(r.instructions, inst.trace.size());
    EXPECT_GE(r.cycles, 1u);
    EXPECT_GT(r.speedup, 0.9) << "never slower than sequential - eps";

    // Never beats the dataflow limit.
    const SimResult oracle = oracleSim(inst.trace);
    EXPECT_LE(r.speedup, oracle.speedup * 1.0001);

    if (kind != ModelKind::Oracle) {
        EXPECT_GT(r.branches, 0u);
        EXPECT_LE(r.mispredicted, r.branches);
        if (!r.resolveDepthCounts.empty()) {
            std::uint64_t total = 0;
            for (auto c : r.resolveDepthCounts)
                total += c;
            EXPECT_EQ(total, r.mispredicted);
        }
    }
}

TEST_P(ModelSweep, Deterministic)
{
    const auto &[kind, resources] = GetParam();
    const auto &inst = instance();
    TwoBitPredictor pred_a(inst.trace.numStatic);
    TwoBitPredictor pred_b(inst.trace.numStatic);
    const SimResult a =
        runModel(kind, inst.trace, &inst.cfg, pred_a, resources);
    const SimResult b =
        runModel(kind, inst.trace, &inst.cfg, pred_b, resources);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
}

std::vector<SweepParam>
sweepParams()
{
    std::vector<SweepParam> params;
    for (ModelKind kind : allModels())
        for (int e_t : {8, 32, 128})
            params.push_back(SweepParam{kind, e_t});
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweep, ::testing::ValuesIn(sweepParams()),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        std::string name = modelName(info.param.kind);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_ET" + std::to_string(info.param.resources);
    });

class WorkloadOrdering : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(WorkloadOrdering, PaperModelOrderingHolds)
{
    // The qualitative Figure 5 relationships, per benchmark, at 256
    // paths: DEE >= SP, DEE-CD >= DEE (approximately), the CD-MF
    // models on top, and DEE-CD-MF >= SP-CD-MF.
    const BenchmarkInstance inst = makeInstance(GetParam(), 1);
    auto speedup = [&](ModelKind kind) {
        TwoBitPredictor pred(inst.trace.numStatic);
        return runModel(kind, inst.trace, &inst.cfg, pred, 256).speedup;
    };
    const double sp = speedup(ModelKind::SP);
    const double dee = speedup(ModelKind::DEE);
    const double sp_cd = speedup(ModelKind::SP_CD);
    const double dee_cd = speedup(ModelKind::DEE_CD);
    const double sp_cd_mf = speedup(ModelKind::SP_CD_MF);
    const double dee_cd_mf = speedup(ModelKind::DEE_CD_MF);

    EXPECT_GE(dee, sp * 0.999);
    EXPECT_GE(dee_cd, sp_cd * 0.999);
    EXPECT_GE(dee_cd_mf, sp_cd_mf * 0.999);
    EXPECT_GE(sp_cd_mf, sp_cd * 0.999);
    EXPECT_GE(sp_cd, sp * 0.999);
    EXPECT_GE(dee_cd_mf, dee * 0.999);
}

TEST_P(WorkloadOrdering, SpPlateausDeeKeepsGrowing)
{
    const BenchmarkInstance inst = makeInstance(GetParam(), 1);
    auto speedup = [&](ModelKind kind, int e_t) {
        TwoBitPredictor pred(inst.trace.numStatic);
        return runModel(kind, inst.trace, &inst.cfg, pred, e_t).speedup;
    };
    // SP stops improving above ~16 paths (the paper's plateau).
    const double sp16 = speedup(ModelKind::SP, 16);
    const double sp256 = speedup(ModelKind::SP, 256);
    EXPECT_LT(sp256, sp16 * 1.15);

    // DEE-CD-MF keeps gaining from 16 to 256.
    const double dee16 = speedup(ModelKind::DEE_CD_MF, 16);
    const double dee256 = speedup(ModelKind::DEE_CD_MF, 256);
    EXPECT_GT(dee256, dee16 * 1.2);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadOrdering,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return std::string(workloadName(info.param));
    });

TEST(ModelEquivalences, DeeEqualsSpBelowThreshold)
{
    // With E_T below log_p(1-p) the DEE tree degenerates to the SP
    // chain, so the models must give identical results.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 1);
    TwoBitPredictor pa(inst.trace.numStatic);
    TwoBitPredictor pb(inst.trace.numStatic);
    ModelRunOptions options;
    options.characteristicP = 0.93; // threshold ~ 36 paths
    const SimResult dee = runModel(ModelKind::DEE, inst.trace, &inst.cfg,
                                   pa, 8, options);
    const SimResult sp = runModel(ModelKind::SP, inst.trace, &inst.cfg,
                                  pb, 8, options);
    EXPECT_EQ(dee.cycles, sp.cycles);
}

TEST(ModelEquivalences, PerfectPredictionMakesSpAtLeastDee)
{
    // With an oracle predictor there are no mispredicts; the SP chain
    // is deeper than the DEE ML at equal E_T, so SP can only win.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 1);
    OraclePredictor pa, pb;
    ModelRunOptions options;
    options.characteristicP = 0.9;
    const SimResult sp = runModel(ModelKind::SP, inst.trace, &inst.cfg,
                                  pa, 64, options);
    const SimResult dee = runModel(ModelKind::DEE, inst.trace,
                                   &inst.cfg, pb, 64, options);
    EXPECT_EQ(sp.mispredicted, 0u);
    EXPECT_GE(sp.speedup, dee.speedup * 0.999);
}

TEST(ResolveStats, MostMispredictsResolveAtRootUnderSerialResolution)
{
    // The paper's Section 5.3 statistic (70-80% of mispredictions
    // resolve at the tree root). With serialized branch resolution
    // (the CD regime) the root tracks resolution exactly, so the
    // at-root fraction must dominate.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 2);
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherResolveStats = true;
    const SimResult r = runModel(ModelKind::DEE_CD, inst.trace,
                                 &inst.cfg, pred, 100, options);
    ASSERT_GT(r.mispredicted, 0u);
    ASSERT_FALSE(r.resolveDepthCounts.empty());
    EXPECT_GT(r.resolveAtRootFraction(), 0.7);
}

TEST(ResolveStats, ParallelResolutionResolvesDeeper)
{
    // Under CD-MF branches resolve out of order, so some
    // mispredictions resolve before the root reaches them — the
    // histogram spreads beyond depth 0.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 2);
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherResolveStats = true;
    const SimResult r = runModel(ModelKind::DEE_CD_MF, inst.trace,
                                 &inst.cfg, pred, 100, options);
    ASSERT_GT(r.mispredicted, 0u);
    std::uint64_t total = 0;
    for (auto c : r.resolveDepthCounts)
        total += c;
    EXPECT_EQ(total, r.mispredicted);
    EXPECT_LT(r.resolveAtRootFraction(), 1.0);
}

TEST(Observability, RegistryCountersMatchSimResult)
{
    // The window simulator publishes its run totals into the global
    // stats registry; they must agree exactly with the legacy
    // SimResult fields the benches print.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 1);
    obs::Registry &reg = obs::Registry::global();
    reg.clear();

    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherIssueStats = true;
    const SimResult r = runModel(ModelKind::DEE_CD_MF, inst.trace,
                                 &inst.cfg, pred, 64, options);

    EXPECT_EQ(reg.counter("sim.window.runs"), 1u);
    EXPECT_EQ(reg.counter("sim.window.instructions"), r.instructions);
    EXPECT_EQ(reg.counter("sim.window.cycles"), r.cycles);
    EXPECT_EQ(reg.counter("sim.window.branches"), r.branches);
    EXPECT_EQ(reg.counter("sim.window.mispredicts"), r.mispredicted);
    EXPECT_EQ(reg.counter("sim.window.side_path_fetches"),
              r.sidePathFetches);
    EXPECT_EQ(reg.stat("sim.window.speedup").count(), 1u);
    EXPECT_DOUBLE_EQ(reg.stat("sim.window.speedup").mean(), r.speedup);
    EXPECT_EQ(reg.stat("sim.window.peak_issue").count(), 1u);
    EXPECT_DOUBLE_EQ(reg.stat("sim.window.peak_issue").mean(),
                     static_cast<double>(r.peakIssue));

    // A second run accumulates rather than overwrites.
    TwoBitPredictor pred2(inst.trace.numStatic);
    runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, pred2, 64,
             options);
    EXPECT_EQ(reg.counter("sim.window.runs"), 2u);
    EXPECT_EQ(reg.counter("sim.window.instructions"),
              2 * r.instructions);

    // The oracle pass publishes under its own subtree.
    reg.clear();
    const SimResult oracle = oracleSim(inst.trace);
    EXPECT_EQ(reg.counter("sim.oracle.runs"), 1u);
    EXPECT_EQ(reg.counter("sim.oracle.instructions"),
              oracle.instructions);
    EXPECT_DOUBLE_EQ(reg.stat("sim.oracle.speedup").mean(),
                     oracle.speedup);
    reg.clear();
}

} // namespace
} // namespace dee
