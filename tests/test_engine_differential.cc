/**
 * @file
 * Reference-vs-fast engine differential harness.
 *
 * The data-oriented fast engine (src/core/sim/fast_engine.cc) must be
 * *provably* bit-exact against the seed reference kernel it replaced —
 * not statistically close, identical. These tests run both engines
 * in-process over:
 *
 *   - the full model grid: all eight Section-5.2 models x all five
 *     workloads x scales {1, 2, 4, 16},
 *   - 100 seed-perturbed random cells drawn through the runner's
 *     runner::cellSeed derivation (the same stream the sweep tools
 *     use), cycling models, scales and E_T budgets,
 *   - targeted configurations that exercise every optional engine
 *     input: confidence-gated DEE, an explicit PE limit, realistic
 *     latencies with per-record load-latency overrides, resolve/issue
 *     stats, and full speculation profiling,
 *
 * asserting bit-exact SimResult equality (every field, doubles
 * compared by value produced from identical integer operands), equal
 * CycleAccounts with the acct.* identity closed on both sides, equal
 * registry snapshots, and byte-equal normalized dee.run.v2 manifests
 * whether the grid ran serially (--jobs 1) or on the parallel runner
 * (--jobs 8).
 *
 * The last tests pin the cell-sink merge-order contract the manifest
 * equality rests on: Histogram / RunningStat samples must be replayed
 * in grid order when parallel sinks fold back into the process
 * registry (order-sensitive floating-point accumulations would
 * otherwise drift bit-wise at --jobs 4/8).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "obs/manifest.hh"
#include "obs/obs.hh"
#include "runner/seed.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

// ------------------------------------------------------- equality

void
expectSameAccount(const obs::CycleAccount &a, const obs::CycleAccount &b,
                  const std::string &ctx)
{
    ASSERT_EQ(a.valid(), b.valid()) << ctx;
    if (!a.valid())
        return;
    EXPECT_EQ(a.pes(), b.pes()) << ctx;
    EXPECT_EQ(a.cycles(), b.cycles()) << ctx;
    EXPECT_EQ(a.peSlotCycles(), b.peSlotCycles()) << ctx;
    for (std::size_t i = 0; i < obs::kNumSlotClasses; ++i) {
        const auto cls = static_cast<obs::SlotClass>(i);
        EXPECT_EQ(a.slots(cls), b.slots(cls))
            << ctx << " class " << obs::slotClassName(cls);
    }
    for (std::size_t i = 0; i < obs::kNumConfidenceBuckets; ++i) {
        EXPECT_EQ(a.squashedInBucket(i), b.squashedInBucket(i))
            << ctx << " bucket " << i;
    }
    // The closed-taxonomy identity must hold on both sides, not just
    // match across them.
    std::string why;
    EXPECT_TRUE(a.identityHolds(&why)) << ctx << ": " << why;
    EXPECT_TRUE(b.identityHolds(&why)) << ctx << ": " << why;
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &ctx)
{
    EXPECT_EQ(a.instructions, b.instructions) << ctx;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.speedup, b.speedup) << ctx; // bitwise: same operands
    EXPECT_EQ(a.branches, b.branches) << ctx;
    EXPECT_EQ(a.mispredicted, b.mispredicted) << ctx;
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy) << ctx;
    EXPECT_EQ(a.resolveDepthCounts, b.resolveDepthCounts) << ctx;
    EXPECT_EQ(a.sidePathFetches, b.sidePathFetches) << ctx;
    EXPECT_EQ(a.peakIssue, b.peakIssue) << ctx;
    expectSameAccount(a.account, b.account, ctx);
    // The speculation profile carries every per-branch counter the
    // manifest serializes; its canonical JSON form is the comparison.
    EXPECT_EQ(a.profile.toJson().dump(), b.profile.toJson().dump())
        << ctx;
}

/**
 * Canonical text form of every deterministic registry leaf (the
 * test_runner idiom): counters and histogram buckets as integers,
 * scalars and stat moments as %a hex-floats so comparison is bitwise.
 * Wall-clock and host-dependent subtrees are skipped.
 */
std::string
snapshotRegistry(const obs::Registry &reg)
{
    std::string out;
    char line[512];
    for (const std::string &path : reg.paths()) {
        if (path.compare(0, 7, "runner.") == 0 ||
            path.compare(0, 5, "perf.") == 0 ||
            path.compare(0, 4, "hot.") == 0)
            continue;
        if (path.size() >= 6 &&
            path.compare(path.size() - 6, 6, "run_ms") == 0)
            continue;
        if (const std::uint64_t *c = reg.findCounter(path)) {
            std::snprintf(line, sizeof line, "%s c %llu\n",
                          path.c_str(),
                          static_cast<unsigned long long>(*c));
        } else if (const double *s = reg.findScalar(path)) {
            std::snprintf(line, sizeof line, "%s s %a\n", path.c_str(),
                          *s);
        } else if (const RunningStat *st = reg.findStat(path)) {
            std::snprintf(
                line, sizeof line, "%s t %llu %a %a %a %a %a\n",
                path.c_str(),
                static_cast<unsigned long long>(st->count()),
                st->mean(), st->min(), st->max(), st->stddev(),
                st->sum());
        } else if (const Histogram *h = reg.findHistogram(path)) {
            std::string counts;
            for (std::size_t i = 0; i < h->numBuckets(); ++i)
                counts += " " + std::to_string(h->bucketCount(i));
            std::snprintf(
                line, sizeof line, "%s h %a %a%s u%llu o%llu\n",
                path.c_str(), h->lo(), h->hi(), counts.c_str(),
                static_cast<unsigned long long>(h->underflow()),
                static_cast<unsigned long long>(h->overflow()));
        } else {
            continue;
        }
        out += line;
    }
    return out;
}

SimResult
runCell(Engine engine, ModelKind kind, const BenchmarkInstance &inst,
        int e_t, bool profile = false)
{
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.engine = engine;
    options.gatherResolveStats = true;
    options.gatherIssueStats = true;
    options.gatherProfile = profile;
    if (profile)
        options.profileWorkload = inst.name;
    return runModel(kind, inst.trace, &inst.cfg, pred, e_t, options);
}

// ------------------------------------------------- the full grid

constexpr std::uint64_t kGridMaxInstrs = 8'000;

class EngineGrid : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(EngineGrid, AllModelsAllScalesBitExact)
{
    for (int scale : {1, 2, 4, 16}) {
        const BenchmarkInstance inst =
            makeInstance(GetParam(), scale, kGridMaxInstrs);
        ASSERT_FALSE(inst.trace.empty());
        for (ModelKind kind : allModels()) {
            const std::string ctx = inst.name + "/" +
                                    modelName(kind) + "/scale" +
                                    std::to_string(scale);
            const SimResult fast =
                runCell(Engine::Fast, kind, inst, 32);
            const SimResult ref =
                runCell(Engine::Reference, kind, inst, 32);
            expectSameResult(fast, ref, ctx);
        }
    }
}

TEST_P(EngineGrid, RegistryOutputBitExactAcrossEngines)
{
    // Everything the epilogue publishes (acct.*, sim.*, prof.*
    // counters, stats and histograms) must be identical too, not just
    // the returned SimResult — the manifests are rendered from the
    // registry.
    const BenchmarkInstance inst =
        makeInstance(GetParam(), 1, kGridMaxInstrs);
    const auto grid_snapshot = [&inst](Engine engine) {
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        for (ModelKind kind : allModels())
            runCell(engine, kind, inst, 32, /*profile=*/true);
        std::string snap =
            snapshotRegistry(obs::Registry::process()) + "--\n" +
            obs::ProfileStore::process().toJson().dump();
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        return snap;
    };
    const std::string fast = grid_snapshot(Engine::Fast);
    const std::string ref = grid_snapshot(Engine::Reference);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, ref) << inst.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EngineGrid, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return std::string(workloadName(info.param));
    });

// ------------------------------------------- randomized cells

TEST(EngineDifferential, HundredRandomCellsBitExact)
{
    // The sweep tools' own per-cell seed derivation, so these cells
    // are drawn from the exact population a figure sweep would
    // simulate.
    const std::vector<WorkloadId> ids = allWorkloads();
    const std::vector<ModelKind> kinds = allModels();
    constexpr std::uint64_t kMaster = 0xD1FFE2E2u;
    constexpr std::uint64_t kCellMaxInstrs = 5'000;
    for (int draw = 0; draw < 100; ++draw) {
        const WorkloadId id =
            ids[static_cast<std::size_t>(draw) % ids.size()];
        const ModelKind kind =
            kinds[static_cast<std::size_t>(draw) % kinds.size()];
        const int scale = 1 + draw % 3;
        const int e_t = 8 << (draw % 3 * 2); // 8, 32, 128
        const std::uint64_t seed = runner::cellSeed(
            kMaster + static_cast<std::uint64_t>(draw),
            workloadName(id), modelName(kind),
            static_cast<std::uint64_t>(scale));
        const BenchmarkInstance inst =
            makeInstance(id, scale, kCellMaxInstrs, seed);
        ASSERT_FALSE(inst.trace.empty()) << "draw " << draw;
        const std::string ctx = "draw " + std::to_string(draw) + " " +
                                inst.name + "/" + modelName(kind) +
                                "/et" + std::to_string(e_t);
        const SimResult fast = runCell(Engine::Fast, kind, inst, e_t);
        const SimResult ref =
            runCell(Engine::Reference, kind, inst, e_t);
        expectSameResult(fast, ref, ctx);
    }
}

// ------------------------------------------- targeted configs

/** Direct WindowSim comparison for a hand-built SimConfig. */
void
expectEnginesAgree(const BenchmarkInstance &inst, SimConfig config,
                   const SpecTree &tree, const std::string &ctx)
{
    config.engine = Engine::Fast;
    WindowSim fast_sim(inst.trace, tree, config, &inst.cfg);
    TwoBitPredictor fast_pred(inst.trace.numStatic);
    const SimResult fast = fast_sim.run(fast_pred);

    config.engine = Engine::Reference;
    WindowSim ref_sim(inst.trace, tree, config, &inst.cfg);
    TwoBitPredictor ref_pred(inst.trace.numStatic);
    const SimResult ref = ref_sim.run(ref_pred);

    expectSameResult(fast, ref, ctx);
}

TEST(EngineDifferential, ConfidenceGatedDeeBitExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, 20'000);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    const std::vector<double> acc =
        profileBranchAccuracy(inst.trace, probe);
    for (double threshold : {0.0, 0.9, 1.1}) {
        SimConfig config;
        config.cd = CdModel::Minimal;
        config.gatherResolveStats = true;
        config.confidence.accuracy = &acc;
        config.confidence.threshold = threshold;
        config.confidence.sideLen = 6;
        expectEnginesAgree(inst, config, SpecTree::singlePath(p, 24),
                           "confidence threshold " +
                               std::to_string(threshold));
    }
}

TEST(EngineDifferential, PeLimitAndStarvationBitExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Espresso, 1, 20'000);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    for (int pe_limit : {1, 4, 16}) {
        SimConfig config;
        config.cd = CdModel::Minimal;
        config.peLimit = pe_limit;
        config.gatherAccounting = true;
        config.gatherIssueStats = true;
        expectEnginesAgree(inst, config, SpecTree::deeStatic(p, 32),
                           "peLimit " + std::to_string(pe_limit));
    }
}

TEST(EngineDifferential, RealisticLatencyAndLoadOverridesBitExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, 20'000);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);

    // Deterministic per-record "cache model": loads alternate between
    // hit and miss latencies.
    std::vector<int> load_lat(inst.trace.records.size());
    for (std::size_t i = 0; i < load_lat.size(); ++i)
        load_lat[i] = i % 7 == 0 ? 12 : 3;

    SimConfig config;
    config.cd = CdModel::Reduced;
    config.latency = LatencyModel::realistic();
    config.loadLatencies = &load_lat;
    config.mispredictPenalty = 3;
    config.gatherResolveStats = true;
    expectEnginesAgree(inst, config, SpecTree::deeStatic(p, 48),
                       "realistic latency + load overrides");
}

TEST(EngineDifferential, ProfilingSurfaceBitExact)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Cc1, 1, 20'000);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    for (ModelKind kind :
         {ModelKind::SP, ModelKind::EE, ModelKind::DEE_CD_MF}) {
        SimConfig config;
        config.cd = cdModelOf(kind);
        config.gatherProfile = true;
        config.gatherAccounting = true;
        config.profileScope = std::string(inst.name) + ".diff." +
                              modelName(kind);
        config.profileWorkload = inst.name;
        config.profileModel = modelName(kind);
        obs::ProfileStore::process().clear();
        expectEnginesAgree(inst, config, treeForModel(kind, p, 32),
                           std::string("profiling ") +
                               modelName(kind));
        obs::ProfileStore::process().clear();
    }
}

// ------------------------------- manifests across engines and jobs

/** Runs a 2-workload x 8-model grid through runner::runCells and
 *  renders the normalized manifest plus the registry snapshot. */
struct GridOutput
{
    std::string manifest;
    std::string registry;
};

GridOutput
runManifestGrid(Engine engine, int jobs)
{
    static const std::vector<BenchmarkInstance> *insts = [] {
        auto *v = new std::vector<BenchmarkInstance>;
        v->push_back(
            makeInstance(WorkloadId::Compress, 1, kGridMaxInstrs));
        v->push_back(
            makeInstance(WorkloadId::Eqntott, 1, kGridMaxInstrs));
        return v;
    }();
    obs::Registry::process().clear();
    obs::ProfileStore::process().clear();
    const std::vector<ModelKind> kinds = allModels();
    const std::size_t cells = insts->size() * kinds.size();
    runner::SweepOptions options;
    options.jobs = jobs;
    runner::runCells(cells, options, [&kinds, engine](std::size_t c) {
        const BenchmarkInstance &inst = (*insts)[c / kinds.size()];
        runCell(engine, kinds[c % kinds.size()], inst, 32,
                /*profile=*/true);
    });
    GridOutput out;
    out.manifest =
        obs::withoutHostMeasured(obs::Manifest("engine_differential")
                                     .toJson(obs::Registry::process()))
            .dump(2);
    out.registry = snapshotRegistry(obs::Registry::process());
    obs::Registry::process().clear();
    obs::ProfileStore::process().clear();
    return out;
}

TEST(EngineDifferential, ManifestsByteEqualAcrossEnginesAndJobs)
{
    const GridOutput fast1 = runManifestGrid(Engine::Fast, 1);
    const GridOutput fast8 = runManifestGrid(Engine::Fast, 8);
    const GridOutput ref1 = runManifestGrid(Engine::Reference, 1);
    const GridOutput ref8 = runManifestGrid(Engine::Reference, 8);

    ASSERT_FALSE(fast1.registry.empty());

    // Parallelism must not perturb either engine's output...
    EXPECT_EQ(fast1.manifest, fast8.manifest);
    EXPECT_EQ(fast1.registry, fast8.registry);
    EXPECT_EQ(ref1.manifest, ref8.manifest);
    EXPECT_EQ(ref1.registry, ref8.registry);
    // ...and the engines must agree with each other byte for byte.
    EXPECT_EQ(fast1.manifest, ref1.manifest);
    EXPECT_EQ(fast1.registry, ref1.registry);
}

// --------------------------------- cell-sink merge-order contract

/**
 * Floating-point accumulation is order-sensitive: replaying these
 * samples in any order other than grid order changes RunningStat's
 * mean/m2 bits. The parallel runner must therefore fold cell sinks
 * back in grid order no matter how scheduling interleaves the cells
 * — the regression pinning manifest byte-equality above.
 */
std::string
mergeOrderSnapshot(int jobs)
{
    obs::Registry::process().clear();
    constexpr std::size_t kCells = 24;
    runner::SweepOptions options;
    options.jobs = jobs;
    runner::runCells(kCells, options, [](std::size_t i) {
        obs::Registry &reg = obs::Registry::global();
        // Magnitudes spread over 20 orders so Welford updates lose
        // different low bits depending on arrival order.
        const double x = static_cast<double>(i + 1);
        reg.stat("diff.order.stat").add(x * 1e16);
        reg.stat("diff.order.stat").add(1.0 / x);
        reg.stat("diff.order.stat").add(-x * 1e16 + x);
        reg.histogram("diff.order.hist", 0.0, 64.0, 16)
            .add(static_cast<double>(i * 3 % 64));
        reg.counter("diff.order.cells") += 1;
    });
    std::string snap = snapshotRegistry(obs::Registry::process());
    obs::Registry::process().clear();
    return snap;
}

TEST(MergeOrder, SamplesReplayInGridOrderAtJobs4And8)
{
    const std::string serial = mergeOrderSnapshot(1);
    ASSERT_NE(serial.find("diff.order.stat"), std::string::npos);
    EXPECT_EQ(serial, mergeOrderSnapshot(4)) << "jobs 4";
    EXPECT_EQ(serial, mergeOrderSnapshot(8)) << "jobs 8";
}

} // namespace
} // namespace dee
