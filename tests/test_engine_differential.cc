/**
 * @file
 * Reference-vs-fast engine differential harness.
 *
 * The data-oriented fast kernels (src/core/sim/fast_engine.cc) must be
 * *provably* bit-exact against the seed reference kernels they
 * replaced (tests/reference_engine.cc) — not statistically close,
 * identical. These tests pass both kernel pairs to the simulators'
 * internal entry points (core/sim/forward_pass.hh) in-process over:
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
 *   - the edges of the fast kernel's window-sized state: confidence
 *     side paths longer than the tree, route-B reaches of 1, 3 and 999
 *     paths, a zero mispredict penalty, and a trace with fewer paths
 *     than the tree,
 *   - route B's cached stall scans: the CD models at E_T 64 to 256 on
 *     100k-instruction traces, and a hand-built loop whose mispredicts'
 *     joins fall inside the next path,
 *   - the per-trace run memo: every Figure-5 cell at scales 1 and 4,
 *     run forward and in reverse so donors and hits swap, 100 seeded
 *     random cells with penalty, latency, PE-limit and stats overrides,
 *     each against the reference kernel on an unprepared copy of the
 *     trace with its registry delta, and a gshare cell after 2-bit
 *     cells of the same trace,
 *   - one traced cell per control-dependence regime, plus one with
 *     issue stats on,
 *   - a trace that spans several of the record store's id chunks, and
 *     load latencies that push issue cycles past the slot ledger's
 *     limit,
 *
 * asserting bit-exact SimResult equality (every field, doubles
 * compared by value produced from identical integer operands), equal
 * CycleAccounts with the acct.* identity closed on both sides, equal
 * registry snapshots, byte-equal trace events, and byte-equal
 * normalized manifests whether the grid ran serially (--jobs 1) or on
 * the parallel runner (--jobs 8).
 *
 * The last tests pin the cell-sink merge-order contract the manifest
 * equality rests on: RunningStat samples must be replayed
 * in grid order when parallel sinks fold back into the process
 * registry (order-sensitive floating-point accumulations would
 * otherwise drift bit-wise at --jobs 4/8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/forward_pass.hh"
#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "exec/interp.hh"
#include "isa/assembler.hh"
#include "obs/manifest.hh"
#include "obs/obs.hh"
#include "reference_engine.hh"
#include "runner/seed.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using sim_detail::Kernels;

/** The two kernel pairs under comparison. */
constexpr Kernels kFast = sim_detail::kFastKernels;
constexpr Kernels kReference = sim_detail::kReferenceKernels;

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
 * test_runner idiom): counters as integers, stat moments as %a
 * hex-floats so comparison is bitwise. Wall-clock and host-dependent
 * subtrees are skipped.
 */
std::string
snapshotRegistry(const obs::Registry &reg)
{
    std::string out;
    char line[512];
    for (const std::string &path : reg.paths()) {
        if (path.compare(0, 7, "runner.") == 0 ||
            path.compare(0, 5, "perf.") == 0)
            continue;
        if (path.size() >= 6 &&
            path.compare(path.size() - 6, 6, "run_ms") == 0)
            continue;
        if (const std::uint64_t *c = reg.findCounter(path)) {
            std::snprintf(line, sizeof line, "%s c %llu\n",
                          path.c_str(),
                          static_cast<unsigned long long>(*c));
        } else {
            const RunningStat &st = *reg.findStat(path);
            std::snprintf(
                line, sizeof line, "%s t %llu %a %a %a %a %a\n",
                path.c_str(),
                static_cast<unsigned long long>(st.count()),
                st.mean(), st.min(), st.max(), st.stddev(), st.sum());
        }
        out += line;
    }
    return out;
}

SimResult
runCell(const Kernels &kernels, ModelKind kind,
        const BenchmarkInstance &inst, int e_t,
        const std::vector<int> *load_latencies = nullptr)
{
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherResolveStats = true;
    options.gatherIssueStats = true;
    options.loadLatencies = load_latencies;
    options.profileWorkload = inst.name;
    return sim_detail::runModelWith(kind, inst.trace, &inst.cfg, pred,
                                    e_t, options, kernels);
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
            const SimResult fast = runCell(kFast, kind, inst, 32);
            const SimResult ref = runCell(kReference, kind, inst, 32);
            expectSameResult(fast, ref, ctx);
        }
    }
}

TEST_P(EngineGrid, RegistryOutputBitExactAcrossEngines)
{
    // Everything the epilogue publishes (acct.* and sim.* counters
    // and stats, and the profile store) must be identical too, not
    // just the returned SimResult — the manifests are rendered from
    // both.
    const BenchmarkInstance inst =
        makeInstance(GetParam(), 1, kGridMaxInstrs);
    const auto grid_snapshot = [&inst](const Kernels &kernels) {
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        {
            const obs::ScopedProfilingRequest profiling;
            for (ModelKind kind : allModels())
                runCell(kernels, kind, inst, 32);
        }
        std::string snap =
            snapshotRegistry(obs::Registry::process()) + "--\n" +
            obs::ProfileStore::process().toJson().dump();
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        return snap;
    };
    const std::string fast = grid_snapshot(kFast);
    const std::string ref = grid_snapshot(kReference);
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
        const SimResult fast = runCell(kFast, kind, inst, e_t);
        const SimResult ref = runCell(kReference, kind, inst, e_t);
        expectSameResult(fast, ref, ctx);
    }
}

// ------------------------------------------- targeted configs

/** Direct WindowSim comparison for a hand-built SimConfig. */
void
expectEnginesAgree(const BenchmarkInstance &inst, const SimConfig &config,
                   const SpecTree &tree, const std::string &ctx)
{
    const WindowSim sim(inst.trace, tree, config, &inst.cfg);

    TwoBitPredictor fast_pred(inst.trace.numStatic);
    const SimResult fast = sim_detail::runWindowWith(
        sim, predictPaths(inst.trace, fast_pred), kFast.forward);

    TwoBitPredictor ref_pred(inst.trace.numStatic);
    const SimResult ref = sim_detail::runWindowWith(
        sim, predictPaths(inst.trace, ref_pred), kReference.forward);

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
    // Side paths of 64 hanging off an 8-deep main line reach far past
    // the tree: a walk fetches up to maxDepth + sideLen + 1 paths on.
    struct Shape
    {
        int sideLen;
        int mainLine;
    };
    for (const Shape shape : {Shape{6, 24}, Shape{64, 8}}) {
        for (double threshold : {0.0, 0.9, 1.1}) {
            SimConfig config;
            config.cd = CdModel::Minimal;
            config.gatherResolveStats = true;
            config.confidence.accuracy = &acc;
            config.confidence.threshold = threshold;
            config.confidence.sideLen = shape.sideLen;
            expectEnginesAgree(
                inst, config, SpecTree::singlePath(p, shape.mainLine),
                "confidence threshold " + std::to_string(threshold) +
                    ", sideLen " + std::to_string(shape.sideLen));
        }
    }
}

TEST(EngineDifferential, WindowReachOverridesBitExact)
{
    // Route B's reach decides how far back root times are read and how
    // long a mispredict stays pending: 1 retires each one a path on, 3
    // is shorter than the tree, and 999 exceeds this trace's paths.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, 2'000);
    ASSERT_LT(inst.trace.prepared().numPaths(), 999u);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    for (ModelKind kind : {ModelKind::SP_CD, ModelKind::DEE_CD_MF}) {
        for (int reach : {1, 3, 999}) {
            SimConfig config;
            config.cd = cdModelOf(kind);
            config.windowReachOverride = reach;
            config.gatherResolveStats = true;
            expectEnginesAgree(inst, config, treeForModel(kind, p, 8),
                               std::string(modelName(kind)) +
                                   " reach " + std::to_string(reach));
        }
    }
}

TEST(EngineDifferential, ZeroPenaltyResolveDepthsBitExact)
{
    // Without a repair penalty the root can leave a mispredicted path
    // at its resolve cycle, so a resolve can find the root already
    // past its path.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Eqntott, 1, kGridMaxInstrs);
    ModelRunOptions options;
    options.mispredictPenalty = 0;
    options.gatherResolveStats = true;
    for (ModelKind kind : allModels()) {
        const std::string ctx =
            std::string(modelName(kind)) + " penalty 0";
        TwoBitPredictor fast_pred(inst.trace.numStatic);
        const SimResult fast = sim_detail::runModelWith(
            kind, inst.trace, &inst.cfg, fast_pred, 32, options, kFast);
        TwoBitPredictor ref_pred(inst.trace.numStatic);
        const SimResult ref = sim_detail::runModelWith(
            kind, inst.trace, &inst.cfg, ref_pred, 32, options,
            kReference);
        expectSameResult(fast, ref, ctx);
        if (kind == ModelKind::Oracle)
            continue;
        std::uint64_t binned = 0;
        for (const std::uint64_t c : fast.resolveDepthCounts)
            binned += c;
        EXPECT_EQ(binned, fast.mispredicted) << ctx;
    }
}

TEST(EngineDifferential, FewerPathsThanTheTreeBitExact)
{
    // A few dozen records hold fewer paths than a 256-path tree, so
    // every window state covers the whole trace.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Cc1, 1, 40);
    ASSERT_FALSE(inst.trace.empty());
    ASSERT_LT(inst.trace.prepared().numPaths(), 256u);
    for (ModelKind kind : allModels()) {
        const SimResult fast = runCell(kFast, kind, inst, 256);
        const SimResult ref = runCell(kReference, kind, inst, 256);
        expectSameResult(fast, ref,
                         std::string(modelName(kind)) + " at E_T 256");
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
        config.gatherAccounting = true;
        config.profileScope = std::string(inst.name) + ".diff." +
                              modelName(kind);
        config.profileWorkload = inst.name;
        config.profileModel = modelName(kind);
        obs::ProfileStore::process().clear();
        {
            const obs::ScopedProfilingRequest profiling;
            expectEnginesAgree(inst, config, treeForModel(kind, p, 32),
                               std::string("profiling ") +
                                   modelName(kind));
        }
        obs::ProfileStore::process().clear();
    }
}

TEST(EngineDifferential, AcrossIdChunksBitExact)
{
    // Every other trace here fits in the record store's first id chunk;
    // this one spans four, so the issue loops' walk from one chunk to
    // the next, inside a path and between oracle blocks, is compared
    // too.
    constexpr std::uint64_t kChunk = RecordStore::kChunkRecords;
    constexpr std::uint64_t kRecords = 3 * kChunk + 17;
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kRecords);
    ASSERT_EQ(inst.trace.size(), kRecords);
    const PreparedTrace &prep = inst.trace.prepared();
    std::uint64_t straddling = 0;
    for (std::uint64_t k = 0; k < prep.numPaths(); ++k) {
        const BranchPath p = prep.path(k);
        if (p.begin / kChunk != (p.end - 1) / kChunk)
            ++straddling;
    }
    EXPECT_GE(straddling, 1u) << "no path crosses a chunk boundary";
    for (ModelKind kind : allModels()) {
        const SimResult fast = runCell(kFast, kind, inst, 32);
        const SimResult ref = runCell(kReference, kind, inst, 32);
        expectSameResult(fast, ref,
                         std::string(modelName(kind)) + " across chunks");
    }
}

TEST(EngineDifferential, LedgerLimitFallbackBitExact)
{
    // Loads this slow push issue cycles past the slot ledger's limit:
    // the fast kernels' issue bound does too, so they fall back to the
    // checked SlotLedger::issue(), and every run's account is skipped
    // on both kernels alike.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, kGridMaxInstrs);
    const std::vector<int> load_lat(inst.trace.size(), 1 << 26);
    obs::Registry &reg = obs::Registry::global();
    for (ModelKind kind : allModels()) {
        const std::string ctx = modelName(kind);
        const std::uint64_t skipped = reg.counter("acct.skipped_runs");
        const SimResult fast = runCell(kFast, kind, inst, 32, &load_lat);
        EXPECT_EQ(reg.counter("acct.skipped_runs"), skipped + 1) << ctx;
        const SimResult ref = runCell(kReference, kind, inst, 32, &load_lat);
        EXPECT_EQ(reg.counter("acct.skipped_runs"), skipped + 2) << ctx;
        expectSameResult(fast, ref, ctx);
        EXPECT_GT(fast.cycles, obs::SlotLedger::kMaxCycles) << ctx;
        EXPECT_FALSE(fast.account.valid()) << ctx;
        EXPECT_EQ(fast.peakIssue, 0u) << ctx;
    }
}

/** The four models that take route B, the reconvergent window. */
constexpr ModelKind kCdModels[] = {ModelKind::SP_CD, ModelKind::DEE_CD,
                                   ModelKind::SP_CD_MF,
                                   ModelKind::DEE_CD_MF};

TEST(EngineDifferential, DeepCdWindowsBitExact)
{
    // The grid above runs E_T 32 on short traces. At E_T 256 on these,
    // xlisp and espresso keep ~20 mispredicts pending and DEE-CD
    // fetches most roots through a side path, so route B's stall
    // changes with the bypass filter from root to root while its
    // cached scans are reused across long stretches of paths.
    constexpr std::uint64_t kDeepMaxInstrs = 100'000;
    for (WorkloadId id : allWorkloads()) {
        const BenchmarkInstance inst =
            makeInstance(id, 4, kDeepMaxInstrs);
        ASSERT_EQ(inst.trace.size(), kDeepMaxInstrs) << inst.name;
        for (ModelKind kind : kCdModels) {
            for (int e_t : {64, 100, 128, 256}) {
                const std::string ctx = inst.name + "/" +
                                        modelName(kind) + "/et" +
                                        std::to_string(e_t);
                const SimResult fast = runCell(kFast, kind, inst, e_t);
                const SimResult ref = runCell(kReference, kind, inst, e_t);
                expectSameResult(fast, ref, ctx);
            }
        }
    }
}

TEST(EngineDifferential, StallDropsInsideAPathBitExact)
{
    // A loop whose forward branch (B1) goes either way at random and
    // rejoins at B4 behind a jump or a one-instruction arm, so its join
    // point lies strictly inside the next path. A mispredict of it
    // stalls only that path's records before B4: route B's stall drops
    // in the middle of the path. The inner loop's latch (B5) diverges
    // each time it exits, and the always-taken branches after it add
    // paths that push no mispredict, so that stall leaves the window
    // by its reach while the rest of the pending set stays as it was.
    const char *src = R"(
B0:
    li r1, 0
    li r2, 600
    li r5, 7
    li r6, 1103515245
    li r13, 3
B1:
    mul r5, r5, r6
    addi r5, r5, 12345
    shri r7, r5, 16
    andi r7, r7, 1
    beq r7, r0, B3
B2:
    addi r3, r3, 1
    j B4
B3:
    addi r4, r4, 1
B4:
    addi r8, r8, 3
    addi r9, r9, 5
    add r10, r8, r9
    li r11, 0
B5:
    addi r11, r11, 1
    mul r12, r12, r6
    blt r11, r13, B5
B6:
    addi r14, r14, 1
    beq r0, r0, B7
B7:
    addi r15, r15, 1
    beq r0, r0, B8
B8:
    addi r16, r16, 1
    beq r0, r0, B9
B9:
    addi r1, r1, 1
    blt r1, r2, B1
B10:
    halt
)";
    Program program = parseAssembly(src);
    Cfg cfg(program);
    ExecResult run = Interpreter(program).run(100'000, true);
    ASSERT_TRUE(run.halted);
    const BenchmarkInstance inst{WorkloadId::Compress, "stall_drop",
                                 std::move(program), std::move(cfg),
                                 std::move(run.trace)};

    // The trace does what the test is for: mispredicted forward
    // branches whose joins lie strictly inside the path after theirs.
    const PreparedTrace &prep = inst.trace.prepared();
    const std::vector<std::uint32_t> &join = prep.joinIndex(inst.cfg);
    TwoBitPredictor probe(inst.trace.numStatic);
    const PathPredictions predictions = predictPaths(inst.trace, probe);
    std::uint64_t drops = 0;
    for (std::uint64_t k = 0; k + 1 < prep.numPaths(); ++k) {
        const BranchPath next = prep.path(k + 1);
        if (predictions.mispredicts.test(k) && !prep.exit(k).backward &&
            join[k] > next.begin && join[k] < next.end)
            ++drops;
    }
    EXPECT_GE(drops, 100u);

    for (ModelKind kind : kCdModels) {
        for (int e_t : {2, 4, 8, 32}) {
            const std::string ctx = std::string(modelName(kind)) +
                                    "/et" + std::to_string(e_t);
            const SimResult fast = runCell(kFast, kind, inst, e_t);
            const SimResult ref = runCell(kReference, kind, inst, e_t);
            expectSameResult(fast, ref, ctx);
        }
    }
}

// ------------------------------------------------- the run memo

/** One cell of a sweep over one trace, and what running it left. */
struct MemoCell
{
    ModelKind kind;
    int et;
    ModelRunOptions options;
    SimResult result;
    std::string registry; ///< the cell's registry delta
    std::uint64_t hits = 0; ///< runs its trace's memo served it
};

/** Memo hits on @p trace so far (the trace's cache, built if need
 *  be: building it publishes nothing). */
std::uint64_t
memoHits(const Trace &trace)
{
    const TwoBitPredictor probe(std::max(trace.numStatic, 1u));
    return sim_detail::SimTraceCache::of(trace, probe).hits();
}

/** Runs @p cells in order on @p trace, each with a 2-bit predictor
 *  and in a CellSink of its own, through @p kernels. */
void
runMemoCells(const Kernels &kernels, const Trace &trace, const Cfg &cfg,
             std::vector<MemoCell> &cells)
{
    for (MemoCell &cell : cells) {
        const std::uint64_t before = memoHits(trace);
        obs::CellSink sink;
        {
            const obs::IsolationScope scope(sink);
            TwoBitPredictor pred(trace.numStatic);
            cell.result = sim_detail::runModelWith(cell.kind, trace, &cfg,
                                                   pred, cell.et,
                                                   cell.options, kernels);
        }
        cell.hits = memoHits(trace) - before;
        cell.registry = snapshotRegistry(sink.registry);
    }
}

/** The same model on the other tree: SP-family <-> DEE-family. */
ModelKind
treePartner(ModelKind kind)
{
    switch (kind) {
      case ModelKind::SP: return ModelKind::DEE;
      case ModelKind::DEE: return ModelKind::SP;
      case ModelKind::SP_CD: return ModelKind::DEE_CD;
      case ModelKind::DEE_CD: return ModelKind::SP_CD;
      case ModelKind::SP_CD_MF: return ModelKind::DEE_CD_MF;
      case ModelKind::DEE_CD_MF: return ModelKind::SP_CD_MF;
      default: return kind;
    }
}

/** Compares @p got with @p want cell by cell: result and registry. */
void
expectSameCells(const std::vector<MemoCell> &got,
                const std::vector<MemoCell> &want, const std::string &ctx)
{
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (std::size_t c = 0; c < got.size(); ++c) {
        const std::string cell = ctx + " cell " + std::to_string(c) +
                                 " " + modelName(got[c].kind) + "@" +
                                 std::to_string(got[c].et);
        expectSameResult(got[c].result, want[c].result, cell);
        EXPECT_EQ(got[c].registry, want[c].registry) << cell;
    }
}

/**
 * The most paths a coverage walk from any root of @p trace steps
 * across under a power-on 2-bit predictor, walk by walk: from root r it
 * crosses each branch predicted right and stops at the first
 * mispredicted one or at the last path.
 */
std::uint64_t
longestWalk(const Trace &trace)
{
    TwoBitPredictor pred(trace.numStatic);
    const PathPredictions predictions = predictPaths(trace, pred);
    const PreparedTrace &prep = trace.prepared();
    std::uint64_t longest = 0;
    for (std::uint64_t r = 0; r < prep.numPaths(); ++r) {
        std::uint64_t x = r;
        while (x + 1 < prep.numPaths() && x < prep.numBranches() &&
               !predictions.mispredicts.test(x))
            ++x;
        longest = std::max(longest, x - r);
    }
    return longest;
}

/** One instance per (workload, scale), built on first use. */
const BenchmarkInstance &
cachedInstance(WorkloadId id, int scale)
{
    static std::map<std::pair<WorkloadId, int>,
                    std::unique_ptr<BenchmarkInstance>>
        cache;
    auto &slot = cache[{id, scale}];
    if (!slot)
        slot = std::make_unique<BenchmarkInstance>(makeInstance(id, scale));
    return *slot;
}

/** (workload, scale, E_T): one column of one trace's Figure-5 grid. */
using MemoColumn = std::tuple<WorkloadId, int, int>;

class MemoGrid : public ::testing::TestWithParam<MemoColumn>
{
};

TEST_P(MemoGrid, Fig5CellsMatchTheReferenceInEitherOrder)
{
    // fig5_speedups' cells of one trace at one E_T (the Oracle's one
    // point rides E_T 8), run forward (SP-family cells donate to
    // DEE-family ones) and in reverse (the other way round), each on a
    // fresh copy of the trace, against the reference kernel on a third
    // copy: every SimResult field and every cell's registry delta. A
    // memo key holds the tree's shape, so cells of one E_T share runs,
    // and across E_T only plain SP chains past the trace's longest walk
    // do: past E_T 8, the column's cells come after the SP-family cells
    // of the column before, as in fig5's model-major sweep, and of
    // those only plain SP may give or take a run. The six columns of a
    // trace are six tests.
    const auto [id, scale, e_t] = GetParam();
    const BenchmarkInstance &inst = cachedInstance(id, scale);
    ModelRunOptions options;
    options.profileWorkload = inst.name;
    std::vector<MemoCell> ref;
    const bool column_before = e_t > 8;
    if (column_before) {
        for (ModelKind kind :
             {ModelKind::SP, ModelKind::SP_CD, ModelKind::SP_CD_MF})
            ref.push_back(MemoCell{kind, e_t / 2, options, {}, {}, 0});
    }
    const std::size_t before_cells = ref.size();
    for (ModelKind kind : allModels()) {
        if (kind != ModelKind::Oracle || e_t == 8)
            ref.push_back(MemoCell{kind, e_t, options, {}, {}, 0});
    }
    std::vector<MemoCell> forward = ref;
    std::vector<MemoCell> reverse(ref.rbegin(), ref.rend());
    {
        const Trace copy = inst.trace;
        runMemoCells(kReference, copy, inst.cfg, ref);
    }
    {
        const Trace copy = inst.trace;
        runMemoCells(kFast, copy, inst.cfg, forward);
    }
    {
        const Trace copy = inst.trace;
        runMemoCells(kFast, copy, inst.cfg, reverse);
    }
    std::reverse(reverse.begin(), reverse.end());
    expectSameCells(forward, ref, inst.name + " forward");
    expectSameCells(reverse, ref, inst.name + " reverse");

    // The memo serves exactly the cells whose static DEE tree is SP's
    // chain (h_DEE == 0): the DEE-family cell going forward, its SP
    // partner in reverse. And a plain SP chain at least as long as the
    // trace's longest walk repeats the run on the chain that long: when
    // the column before's SP chain already is (E_T / 2 >= the walk),
    // the column's SP cell takes its run going forward, and gives it
    // in reverse. The CD chains never share across E_T. Reference runs
    // never read the memo.
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    const bool chain = computeGeometry(p, e_t).deeHeight == 0;
    const std::uint64_t walk = longestWalk(inst.trace);
    const bool long_chains = column_before &&
                             static_cast<std::uint64_t>(e_t / 2) >= walk;
    if (scale == 4) {
        // 30 of the 210 window cells at scale 4: E_T 8 on cc1 and
        // compress, 8-16 on espresso and xlisp, 8-64 on eqntott.
        const std::map<WorkloadId, int> kChainUpTo = {
            {WorkloadId::Cc1, 8},       {WorkloadId::Compress, 8},
            {WorkloadId::Espresso, 16}, {WorkloadId::Xlisp, 16},
            {WorkloadId::Eqntott, 64},
        };
        EXPECT_EQ(chain, e_t <= kChainUpTo.at(id)) << inst.name;
        // And 8 more: SP at 128 and 256 on cc1, espresso and xlisp, at
        // 256 on compress and eqntott.
        const std::map<WorkloadId, std::uint64_t> kLongestWalk = {
            {WorkloadId::Cc1, 64},      {WorkloadId::Compress, 91},
            {WorkloadId::Eqntott, 70},  {WorkloadId::Espresso, 39},
            {WorkloadId::Xlisp, 63},
        };
        EXPECT_EQ(walk, kLongestWalk.at(id)) << inst.name;
    }
    EXPECT_EQ(sim_detail::SimTraceCache::of(inst.trace, probe).longestWalk(),
              walk)
        << inst.name;
    for (std::size_t c = 0; c < ref.size(); ++c) {
        const ModelKind kind = ref[c].kind;
        const bool paired = chain && kind != ModelKind::Oracle &&
                            kind != ModelKind::EE;
        const std::string cell = inst.name + " " + modelName(kind) +
                                 "@" + std::to_string(ref[c].et);
        const bool takes_long_chain = long_chains && kind == ModelKind::SP;
        EXPECT_EQ(ref[c].hits, 0u) << cell;
        if (c < before_cells) {
            EXPECT_EQ(forward[c].hits, 0u) << cell;
            EXPECT_EQ(reverse[c].hits, takes_long_chain ? 1u : 0u) << cell;
            continue;
        }
        EXPECT_EQ(forward[c].hits,
                  (paired && usesDeeTree(kind)) || takes_long_chain ? 1u
                                                                    : 0u)
            << cell;
        EXPECT_EQ(reverse[c].hits, paired && !usesDeeTree(kind) ? 1u : 0u)
            << cell;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scales1And4, MemoGrid,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values(1, 4),
                       ::testing::Values(8, 16, 32, 64, 128, 256)),
    [](const ::testing::TestParamInfo<MemoColumn> &info) {
        return std::string(workloadName(std::get<0>(info.param))) +
               "_scale" + std::to_string(std::get<1>(info.param)) +
               "_et" + std::to_string(std::get<2>(info.param));
    });

TEST(EngineDifferential, HundredRandomMemoCellsBitExact)
{
    // Ten fresh traces with ten cells each, so a trace's cells share
    // its memo: a third of the cells repeat an earlier cell of the
    // trace and a third take an earlier cell's model onto the other
    // tree, so the memo serves cells under every override.
    std::mt19937_64 rng(0x3E30CE11u);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<ModelKind> kinds = allModels();
    const std::array kEts{2, 4, 8, 16, 32, 64, 100, 128, 256};
    const std::vector<WorkloadId> ids = allWorkloads();
    std::uint64_t repeats = 0;
    std::uint64_t served = 0;
    for (int t = 0; t < 10; ++t) {
        const BenchmarkInstance inst = makeInstance(
            ids[static_cast<std::size_t>(t) % ids.size()], 1 + t / 5,
            20'000);
        std::vector<MemoCell> cells;
        for (int c = 0; c < 10; ++c) {
            if (c % 3 != 0) {
                MemoCell again = cells[pick(cells.size())];
                if (c % 3 == 2)
                    again.kind = treePartner(again.kind);
                else if (again.kind != ModelKind::Oracle)
                    ++repeats;
                cells.push_back(again);
                continue;
            }
            ModelRunOptions options;
            options.mispredictPenalty = std::array{0, 1, 2, 5}[pick(4)];
            switch (pick(3)) {
              case 0: break;
              case 1: options.latency = LatencyModel::realistic(); break;
              default:
                options.latency.intAlu = 1 + static_cast<int>(pick(3));
                options.latency.load = 1 + static_cast<int>(pick(4));
                options.latency.store = 1 + static_cast<int>(pick(2));
                options.latency.branch = 1 + static_cast<int>(pick(2));
                options.latency.other = 1 + static_cast<int>(pick(3));
            }
            options.peLimit = std::array{0, 0, 1, 4, 16}[pick(5)];
            options.gatherResolveStats = pick(2) == 0;
            options.gatherIssueStats = pick(2) == 0;
            options.gatherAccounting = pick(4) != 0;
            cells.push_back(MemoCell{kinds[pick(kinds.size())],
                                     kEts[pick(kEts.size())], options,
                                     {}, {}, 0});
        }
        std::vector<MemoCell> ref = cells;
        {
            const Trace copy = inst.trace;
            runMemoCells(kReference, copy, inst.cfg, ref);
        }
        {
            const Trace copy = inst.trace;
            runMemoCells(kFast, copy, inst.cfg, cells);
        }
        expectSameCells(cells, ref, "trace " + std::to_string(t));
        for (const MemoCell &cell : cells)
            served += cell.hits;
    }
    EXPECT_GE(served, repeats);
    EXPECT_GT(repeats, 0u);
}

TEST(EngineDifferential, GshareAfterTwoBitCellsGetsItsOwnPredictions)
{
    // 2-bit cells fill the trace's cached pass and memo; a gshare cell
    // of the same model and E_T must still run on gshare's outcomes.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, 20'000);
    const Trace trace = inst.trace;
    for (ModelKind kind : {ModelKind::SP, ModelKind::DEE}) {
        TwoBitPredictor pred(trace.numStatic);
        (void)sim_detail::runModelWith(kind, trace, &inst.cfg, pred, 8,
                                       {}, kFast);
    }
    const std::uint64_t hits = memoHits(trace);
    const auto gshare = makePredictor("gshare", trace.numStatic);
    const SimResult got = sim_detail::runModelWith(
        ModelKind::SP, trace, &inst.cfg, *gshare, 8, {}, kFast);
    EXPECT_EQ(memoHits(trace), hits);

    const Trace copy = inst.trace;
    const auto gshare_ref = makePredictor("gshare", copy.numStatic);
    const SimResult want = sim_detail::runModelWith(
        ModelKind::SP, copy, &inst.cfg, *gshare_ref, 8, {}, kReference);
    expectSameResult(got, want, "gshare SP@8");

    const auto probe = makePredictor("gshare", trace.numStatic);
    EXPECT_EQ(got.mispredicted,
              predictPaths(trace, *probe).mispredicted);
    TwoBitPredictor twobit(trace.numStatic);
    EXPECT_NE(got.mispredicted,
              predictPaths(trace, twobit).mispredicted);
}

// ------------------------------------------------- the retire step

TEST(PathRetirer, MatchesTheWholeRunEpilogueOnRandomRuns)
{
    // Both kernels share the retire step, so the differential cases
    // above cannot catch a fault in it. This checks it against the
    // whole-run epilogue it replaced, which kept every path's fetch,
    // root and resolve times: an upper_bound over all root times for
    // the resolve depth, one squash mark per mispredict in path order,
    // and one pass over the branches for the profile.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kGridMaxInstrs);
    const PreparedTrace &prep = inst.trace.prepared();
    const std::uint64_t num_paths = prep.numPaths();
    std::mt19937_64 rng(0x5E71E5u);
    const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    for (int run = 0; run < 24; ++run) {
        const int max_depth = std::array{0, 1, 4, 16}[run % 4];
        const int penalty = std::array{0, 1, 3}[run % 3];
        const std::string ctx = "run " + std::to_string(run);

        BitVec64 mispredicts(num_paths);
        ConfidenceEstimator meter(inst.trace.numStatic);
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            const bool wrong = draw(0, 3) == 0;
            if (wrong)
                mispredicts.set(k);
            meter.record(prep.exit(k).sid, !wrong);
        }
        // Root times never decrease; fetches precede their root; a
        // resolve may land before or after the root leaves its path,
        // and rarely before cycle 0.
        std::vector<std::int64_t> root(num_paths + 1, 0);
        std::vector<std::int64_t> fetch(num_paths);
        std::vector<std::int64_t> resolve(num_paths);
        std::vector<std::uint8_t> side(num_paths);
        for (std::uint64_t r = 0; r < num_paths; ++r) {
            root[r + 1] = root[r] + draw(0, 4);
            fetch[r] = std::max<std::int64_t>(0, root[r] - draw(0, 12));
            resolve[r] =
                draw(0, 50) == 0 ? -1 : root[r] + draw(-2, 30);
            side[r] = draw(0, 1) != 0;
        }

        std::vector<std::uint64_t> depths(
            static_cast<std::size_t>(max_depth) + 1, 0);
        obs::SlotLedger ledger(0, 0, /*attribute_sites=*/true);
        obs::SpeculationProfile profile;
        sim_detail::PathRetirer retirer(prep, mispredicts, penalty,
                                        &depths, &ledger, meter,
                                        &profile);
        for (std::uint64_t r = 0; r < num_paths; ++r) {
            ledger.issue(root[r]);
            retirer.retire(r, fetch[r], side[r] != 0, resolve[r],
                           root[r + 1]);
        }

        std::vector<std::uint64_t> want_depths(depths.size(), 0);
        obs::SlotLedger want_ledger(0, 0, /*attribute_sites=*/true);
        obs::SpeculationProfile want_profile;
        for (std::uint64_t r = 0; r < num_paths; ++r)
            want_ledger.issue(root[r]);
        mispredicts.forEachSet([&](std::size_t m) {
            const auto it =
                std::upper_bound(root.begin(), root.end(), resolve[m]);
            const std::uint64_t root_at = static_cast<std::uint64_t>(
                std::distance(root.begin(), it)) - 1;
            const std::uint64_t depth = m >= root_at ? m - root_at : 0;
            ++want_depths[std::min<std::uint64_t>(depth,
                                                  want_depths.size() - 1)];
            const StaticId sid = prep.exit(m).sid;
            want_ledger.mark(obs::SlotClass::SquashedSpec, fetch[m],
                             resolve[m] + penalty,
                             obs::confidenceBucket(meter.estimate(sid)),
                             sid);
        });
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            const StaticId sid = prep.exit(k).sid;
            want_profile.recordResolveLatency(sid, resolve[k] - fetch[k]);
            if (k + 1 < num_paths && resolve[k + 1] > fetch[k + 1]) {
                want_profile.addResidency(
                    sid,
                    static_cast<std::uint64_t>(resolve[k + 1] -
                                               fetch[k + 1]),
                    side[k + 1] != 0);
            }
        }

        EXPECT_EQ(depths, want_depths) << ctx;
        const auto cycles = static_cast<std::uint64_t>(root[num_paths]);
        std::unordered_map<std::uint32_t, std::uint64_t> by_site;
        std::unordered_map<std::uint32_t, std::uint64_t> want_by_site;
        expectSameAccount(ledger.finalize(cycles, nullptr, &by_site),
                          want_ledger.finalize(cycles, nullptr,
                                               &want_by_site),
                          ctx);
        EXPECT_EQ(by_site, want_by_site) << ctx;
        EXPECT_EQ(profile.toJson().dump(), want_profile.toJson().dump())
            << ctx;
    }
}

// ------------------------------------------------- trace events

/** Ring size for one traced cell: far above what a kGridMaxInstrs cell
 *  records, so nothing is ever dropped. */
constexpr std::size_t kTraceCapacity = 1u << 18;

/** Runs one cell through @p kernels with the global tracer on; returns
 *  the trace as JSON-Lines and leaves its events in the ring. */
std::string
tracedCell(const Kernels &kernels, ModelKind kind,
           const BenchmarkInstance &inst, bool issue_stats,
           SimResult *result)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.setCapacity(kTraceCapacity); // empties the ring
    tracer.enable();
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherIssueStats = issue_stats;
    *result = sim_detail::runModelWith(kind, inst.trace, &inst.cfg, pred,
                                       32, options, kernels);
    tracer.disable();
    std::ostringstream os;
    tracer.writeJsonLines(os);
    return os.str();
}

TEST(EngineDifferential, TraceEventsBitExact)
{
    // Every event a window run emits — side-path fetches, copy-backs,
    // root advances, the acct.* tracks and the issue-occupancy track —
    // in the same order with the same arguments under both kernels.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Xlisp, 1, kGridMaxInstrs);
    struct Cell
    {
        ModelKind kind;
        bool issueStats;
    };
    const Cell cells[] = {
        {ModelKind::DEE, false},       // restrictive control deps
        {ModelKind::DEE_CD, false},    // reduced
        {ModelKind::DEE_CD_MF, false}, // minimal
        {ModelKind::DEE_CD_MF, true},
    };
    obs::Tracer &tracer = obs::Tracer::global();
    std::string all_events;
    for (const Cell &cell : cells) {
        const std::string ctx =
            std::string(modelName(cell.kind)) +
            (cell.issueStats ? " with issue stats" : "");
        SimResult ref;
        SimResult fast;
        const std::string ref_events =
            tracedCell(kReference, cell.kind, inst, cell.issueStats, &ref);
        const std::string fast_events =
            tracedCell(kFast, cell.kind, inst, cell.issueStats, &fast);
        EXPECT_EQ(tracer.dropped(), 0u) << ctx;
        ASSERT_FALSE(fast_events.empty()) << ctx;
        EXPECT_EQ(fast_events, ref_events) << ctx;
        expectSameResult(fast, ref, ctx);

        // The occupancy track counts every instruction once, and its
        // peak is the reported peak busy PEs.
        std::uint64_t issued = 0;
        std::uint64_t peak = 0;
        for (std::size_t i = 0; i < tracer.size(); ++i) {
            const obs::TraceEvent &e = tracer.event(i);
            if (std::string_view(e.name) != "sim.issue_occupancy")
                continue;
            issued += static_cast<std::uint64_t>(e.arg1);
            peak = std::max(peak, static_cast<std::uint64_t>(e.arg1));
        }
        if (cell.issueStats) {
            EXPECT_EQ(issued, fast.instructions) << ctx;
            EXPECT_EQ(peak, fast.peakIssue) << ctx;
            EXPECT_GT(fast.peakIssue, 0u) << ctx;
        } else {
            EXPECT_EQ(issued, 0u) << ctx;
        }
        all_events += fast_events;
    }
    tracer.setCapacity(obs::Tracer::kDefaultCapacity);
    for (const char *name :
         {"\"sim.side_path_fetch\"", "\"sim.copyback\"",
          "\"sim.root_advance\"", "\"sim.issue_occupancy\"",
          "\"acct.useful\""}) {
        EXPECT_NE(all_events.find(name), std::string::npos) << name;
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
runManifestGrid(const Kernels &kernels, int jobs)
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
    {
        // Set before any worker starts, cleared after they all join.
        const obs::ScopedProfilingRequest profiling;
        runner::runCells(cells, options,
                         [&kinds, &kernels](std::size_t c) {
                             const BenchmarkInstance &inst =
                                 (*insts)[c / kinds.size()];
                             runCell(kernels, kinds[c % kinds.size()],
                                     inst, 32);
                         });
    }
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
    const GridOutput fast1 = runManifestGrid(kFast, 1);
    const GridOutput fast8 = runManifestGrid(kFast, 8);
    const GridOutput ref1 = runManifestGrid(kReference, 1);
    const GridOutput ref8 = runManifestGrid(kReference, 8);

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

TEST(EngineDifferential, MemoManifestsByteEqualAtJobs1And8)
{
    // Unprofiled cells go through the memo. Each sweep below but the
    // last runs on fresh copies of the traces, so at --jobs 8 a DEE
    // cell may run before, beside or after its SP donor; the last one
    // reruns the warm copies, where the memo serves every window cell.
    // The manifest must not tell them apart.
    const std::vector<BenchmarkInstance> insts = [] {
        std::vector<BenchmarkInstance> v;
        v.push_back(makeInstance(WorkloadId::Compress, 1, kGridMaxInstrs));
        v.push_back(makeInstance(WorkloadId::Eqntott, 1, kGridMaxInstrs));
        return v;
    }();
    const std::vector<ModelKind> kinds = allModels();
    const auto sweep = [&](const std::vector<Trace> &traces, int jobs) {
        obs::Registry::process().clear();
        runner::SweepOptions options;
        options.jobs = jobs;
        runner::runCells(insts.size() * kinds.size(), options,
                         [&](std::size_t c) {
            const std::size_t w = c / kinds.size();
            TwoBitPredictor pred(traces[w].numStatic);
            ModelRunOptions run;
            run.profileWorkload = insts[w].name;
            (void)sim_detail::runModelWith(kinds[c % kinds.size()],
                                           traces[w], &insts[w].cfg,
                                           pred, 8, run, kFast);
        });
        std::string manifest =
            obs::withoutHostMeasured(obs::Manifest("engine_differential")
                                         .toJson(obs::Registry::process()))
                .dump(2);
        obs::Registry::process().clear();
        return manifest;
    };
    const auto fresh = [&] {
        std::vector<Trace> traces;
        for (const BenchmarkInstance &inst : insts)
            traces.push_back(inst.trace);
        return traces;
    };
    const std::vector<Trace> serial = fresh();
    const std::vector<Trace> parallel = fresh();
    const std::string jobs1 = sweep(serial, 1);
    std::uint64_t served = 0;
    for (const Trace &trace : serial)
        served += memoHits(trace);
    EXPECT_GT(served, 0u) << "no DEE cell at E_T 8 took SP's run";
    EXPECT_EQ(sweep(parallel, 8), jobs1);

    std::uint64_t before = 0;
    for (const Trace &trace : parallel)
        before += memoHits(trace);
    EXPECT_EQ(sweep(parallel, 8), jobs1);
    std::uint64_t after = 0;
    for (const Trace &trace : parallel)
        after += memoHits(trace);
    EXPECT_EQ(after - before, insts.size() * (kinds.size() - 1));
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
