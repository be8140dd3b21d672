/**
 * @file
 * Tests for the window simulator's per-trace cache
 * (sim_detail::SimTraceCache, core/sim/forward_pass.hh) and its run
 * memo:
 *
 *  - runKey() separates runs by every SimConfig field but the three
 *    profile names, by tree shape and by join table, and gives SP's
 *    chain and a static DEE tree without side paths one key, and every
 *    plain chain at least as long as the trace's longest walk the key
 *    of the chain that long, unless the run takes route B, gathers
 *    resolve stats or gates side paths by confidence;
 *  - eight threads racing one SP/DEE pair on a fresh trace all get the
 *    same results and the same registry deltas, whichever of them made
 *    the run and whichever the memo served;
 *  - the cache lives with the trace's prepared view: a copy of the
 *    trace starts without one, a move keeps it;
 *  - runModel() leaves a 2-bit predictor reset and any other predictor
 *    trained;
 *  - WindowSim::run(predictor) takes the cached pass and memo for a
 *    2-bit predictor and gives what a run on the predictor's own pass
 *    gives, for 2-bit and gshare alike.
 *
 * The bit-exactness of memo hits against the reference kernel is
 * tests/test_engine_differential.cc's job (MemoGrid and the random
 * memo cells).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/forward_pass.hh"
#include "core/sim/models.hh"
#include "obs/isolate.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using sim_detail::runKey;
using sim_detail::SimTraceCache;

/** A longest walk no tree here reaches: every chain keeps its length. */
constexpr std::uint64_t kLongWalks = UINT64_MAX;

/** Every registry leaf of @p reg but the host-timed perf.* ones. */
std::string
registryText(const obs::Registry &reg)
{
    std::string out;
    for (const std::string &path : reg.paths()) {
        if (path.rfind("perf.", 0) == 0)
            continue;
        out += path;
        if (const std::uint64_t *c = reg.findCounter(path)) {
            out += " " + std::to_string(*c) + "\n";
        } else {
            const RunningStat &st = *reg.findStat(path);
            char line[160];
            std::snprintf(line, sizeof line, " %llu %a %a %a\n",
                          static_cast<unsigned long long>(st.count()),
                          st.mean(), st.min(), st.max());
            out += line;
        }
    }
    return out;
}

TEST(RunKey, EveryFieldButTheProfileNamesSeparatesRuns)
{
    const SpecTree tree = SpecTree::singlePath(0.9, 8);
    const std::vector<std::uint32_t> joins;
    const SimConfig base;
    const std::string key = runKey(tree, base, joins, kLongWalks);
    const std::vector<double> accuracy(4, 0.5);
    const std::vector<int> latencies(4, 2);

    // One change per field: each must move the key.
    std::vector<SimConfig> changed(17, base);
    changed[0].cd = CdModel::Minimal;
    changed[1].mispredictPenalty = 2;
    changed[2].latency.intAlu = 2;
    changed[3].latency.load = 3;
    changed[4].latency.store = 2;
    changed[5].latency.branch = 2;
    changed[6].latency.other = 2;
    changed[7].gatherResolveStats = true;
    changed[8].gatherIssueStats = true;
    changed[9].gatherAccounting = false;
    changed[10].gatherProfile = true;
    changed[11].peLimit = 4;
    changed[12].windowReachOverride = 3;
    changed[13].loadLatencies = &latencies;
    changed[14].confidence.accuracy = &accuracy;
    changed[15].confidence.threshold = 0.75;
    changed[16].confidence.sideLen = 2;
    for (std::size_t i = 0; i < changed.size(); ++i)
        EXPECT_NE(runKey(tree, changed[i], joins, kLongWalks), key)
            << "field " << i;

    // The profile names label a profiled run's output only.
    SimConfig named = base;
    named.profileScope = "cc1.DEE";
    named.profileWorkload = "cc1";
    named.profileModel = "DEE";
    EXPECT_EQ(runKey(tree, named, joins, kLongWalks), key);

    // Another join table is another run.
    const std::vector<std::uint32_t> other_joins;
    EXPECT_NE(runKey(tree, base, other_joins, kLongWalks), key);
}

TEST(RunKey, TreeShapeDecidesAndChainsAgree)
{
    const std::vector<std::uint32_t> joins;
    const SimConfig config;
    const auto key = [&](const SpecTree &tree) {
        return runKey(tree, config, joins, kLongWalks);
    };
    // p = 0.99: log_p(1-p) is ~458 paths, so the static DEE tree at
    // E_T 16 has no side path and is SP's chain.
    ASSERT_EQ(computeGeometry(0.99, 16).deeHeight, 0);
    EXPECT_EQ(key(SpecTree::deeStatic(0.99, 16)),
              key(SpecTree::singlePath(0.99, 16)));
    // Cumulative probabilities are not part of the shape.
    EXPECT_EQ(key(SpecTree::singlePath(0.7, 16)),
              key(SpecTree::singlePath(0.99, 16)));
    EXPECT_NE(key(SpecTree::singlePath(0.99, 17)),
              key(SpecTree::singlePath(0.99, 16)));
    EXPECT_NE(key(SpecTree::eager(0.99, 16)),
              key(SpecTree::singlePath(0.99, 16)));
    ASSERT_GT(computeGeometry(0.7, 16).deeHeight, 0);
    EXPECT_NE(key(SpecTree::deeStatic(0.7, 16)),
              key(SpecTree::singlePath(0.7, 16)));
}

TEST(RunKey, PlainChainsFromTheLongestWalkOnShareOneKey)
{
    // A trace whose longest walk crosses 20 paths: every plain chain of
    // 20 paths or more is the chain of 20, and shorter chains are not.
    constexpr std::uint64_t kWalk = 20;
    const std::vector<std::uint32_t> joins;
    const auto key = [&](const SpecTree &tree, const SimConfig &config) {
        return runKey(tree, config, joins, kWalk);
    };
    const SimConfig plain;
    const std::string at_walk = key(SpecTree::singlePath(0.9, 20), plain);
    for (const int e_t : {21, 32, 64, 256}) {
        EXPECT_EQ(key(SpecTree::singlePath(0.9, e_t), plain), at_walk)
            << e_t;
    }
    for (const int e_t : {8, 16, 19}) {
        EXPECT_NE(key(SpecTree::singlePath(0.9, e_t), plain), at_walk)
            << e_t;
    }
    EXPECT_NE(key(SpecTree::singlePath(0.9, 19), plain),
              key(SpecTree::singlePath(0.9, 16), plain));
    // A static DEE tree without side paths is a chain like any other.
    ASSERT_EQ(computeGeometry(0.99, 64).deeHeight, 0);
    EXPECT_EQ(key(SpecTree::deeStatic(0.99, 64), plain), at_walk);
    // Trees with not-predicted edges keep their shape.
    EXPECT_NE(key(SpecTree::eager(0.9, 64), plain),
              key(SpecTree::eager(0.9, 32), plain));
    ASSERT_GT(computeGeometry(0.7, 64).deeHeight, 0);
    EXPECT_NE(key(SpecTree::deeStatic(0.7, 64), plain),
              key(SpecTree::deeStatic(0.7, 32), plain));

    // Route B reads E_T, the resolve-depth histogram is as long as the
    // tree is deep, and a confidence-gated walk crosses mispredicts:
    // such runs keep every chain's own length.
    SimConfig cd = plain;
    cd.cd = CdModel::Reduced;
    SimConfig mf = plain;
    mf.cd = CdModel::Minimal;
    SimConfig resolve = plain;
    resolve.gatherResolveStats = true;
    const std::vector<double> accuracy(4, 0.5);
    SimConfig gated = plain;
    gated.confidence.accuracy = &accuracy;
    for (const SimConfig &config : {cd, mf, resolve, gated}) {
        const std::string at_32 = key(SpecTree::singlePath(0.9, 32), config);
        EXPECT_NE(key(SpecTree::singlePath(0.9, 64), config), at_32);
        EXPECT_NE(key(SpecTree::singlePath(0.9, 20), config), at_32);
        EXPECT_EQ(runKey(SpecTree::singlePath(0.9, 32), config, joins,
                         kLongWalks),
                  at_32);
    }
}

TEST(SimTraceCache, RacingSpDeePairsAgree)
{
    // Eqntott's static DEE tree at E_T 8 is SP's chain, so the pair is
    // one distinct run: each thread runs it in its own order, and
    // whether the memo or the kernel serves a run depends only on the
    // race.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Eqntott, 1, 200'000);
    TwoBitPredictor probe(inst.trace.numStatic);
    const double p = characteristicAccuracy(inst.trace, probe);
    ASSERT_EQ(computeGeometry(p, 8).deeHeight, 0);
    const Trace trace = inst.trace;

    constexpr int kThreads = 8;
    struct Out
    {
        SimResult sp;
        SimResult dee;
        std::string spRegistry;
        std::string deeRegistry;
    };
    std::vector<Out> outs(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Out &out = outs[static_cast<std::size_t>(t)];
            const auto run = [&](ModelKind kind, SimResult &result,
                                 std::string &registry) {
                obs::CellSink sink;
                const obs::IsolationScope scope(sink);
                TwoBitPredictor pred(trace.numStatic);
                result = runModel(kind, trace, &inst.cfg, pred, 8);
                registry = registryText(sink.registry);
            };
            start.arrive_and_wait();
            if (t % 2 == 0) {
                run(ModelKind::SP, out.sp, out.spRegistry);
                run(ModelKind::DEE, out.dee, out.deeRegistry);
            } else {
                run(ModelKind::DEE, out.dee, out.deeRegistry);
                run(ModelKind::SP, out.sp, out.spRegistry);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    // The same pair, serially, on a copy with a cache of its own.
    const Trace copy = inst.trace;
    TwoBitPredictor pred(copy.numStatic);
    const SimResult want =
        runModel(ModelKind::SP, copy, &inst.cfg, pred, 8);
    ASSERT_TRUE(want.account.valid());
    for (const Out &out : outs) {
        for (const SimResult *got : {&out.sp, &out.dee}) {
            EXPECT_EQ(got->cycles, want.cycles);
            EXPECT_EQ(got->speedup, want.speedup);
            EXPECT_EQ(got->mispredicted, want.mispredicted);
            EXPECT_EQ(got->sidePathFetches, want.sidePathFetches);
            ASSERT_TRUE(got->account.valid());
            for (std::size_t i = 0; i < obs::kNumSlotClasses; ++i) {
                const auto cls = static_cast<obs::SlotClass>(i);
                EXPECT_EQ(got->account.slots(cls),
                          want.account.slots(cls));
            }
        }
        EXPECT_EQ(out.spRegistry, outs.front().spRegistry);
        EXPECT_EQ(out.deeRegistry, outs.front().deeRegistry);
    }
    EXPECT_FALSE(outs.front().spRegistry.empty());
    const std::uint64_t hits = SimTraceCache::of(trace, probe).hits();
    EXPECT_LT(hits, 2u * kThreads);
}

TEST(SimTraceCache, LivesWithThePreparedView)
{
    BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 1, 50'000);
    const TwoBitPredictor probe(inst.trace.numStatic);
    SimTraceCache &cache = SimTraceCache::of(inst.trace, probe);
    EXPECT_EQ(&SimTraceCache::of(inst.trace, probe), &cache);
    EXPECT_EQ(cache.twoBit().mispredicts.size(),
              inst.trace.prepared().numPaths());

    const Trace copy = inst.trace;
    EXPECT_NE(&SimTraceCache::of(copy, probe), &cache);

    const Trace moved = std::move(inst.trace);
    EXPECT_EQ(&SimTraceCache::of(moved, probe), &cache);
}

TEST(WindowSimRun, TwoBitRunsReadTheTraceCacheAndEqualTheirOwnPass)
{
    // run(predictor) equals run(predictPaths()) for a 2-bit predictor,
    // which takes the trace's cached pass and memo, and for gshare,
    // which makes its own; a repeated 2-bit run is a memo hit with the
    // same registry writes.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Espresso, 1, 100'000);
    SimConfig config;
    config.cd = CdModel::Minimal;
    config.gatherIssueStats = true;
    TwoBitPredictor probe(inst.trace.numStatic);
    const SpecTree tree = SpecTree::deeStatic(
        characteristicAccuracy(inst.trace, probe), 32);
    for (const char *name : {"2bit", "gshare"}) {
        SCOPED_TRACE(name);
        const Trace trace = inst.trace;
        const WindowSim sim(trace, tree, config, &inst.cfg);
        const auto own = makePredictor(name, trace.numStatic);
        const SimResult want = sim.run(predictPaths(trace, *own));

        const auto run = [&](std::string &registry) {
            obs::CellSink sink;
            const obs::IsolationScope scope(sink);
            const auto pred = makePredictor(name, trace.numStatic);
            const SimResult result = sim.run(*pred);
            registry = registryText(sink.registry);
            return result;
        };
        std::string first_registry;
        const std::uint64_t hits = SimTraceCache::of(trace, probe).hits();
        const SimResult got = run(first_registry);
        EXPECT_EQ(SimTraceCache::of(trace, probe).hits(), hits);
        std::string again_registry;
        const SimResult again = run(again_registry);
        const bool twobit = std::string(name) == "2bit";
        EXPECT_EQ(SimTraceCache::of(trace, probe).hits(),
                  hits + (twobit ? 1 : 0));
        EXPECT_EQ(again_registry, first_registry);

        for (const SimResult *r : {&got, &again}) {
            EXPECT_EQ(r->instructions, want.instructions);
            EXPECT_EQ(r->cycles, want.cycles);
            EXPECT_EQ(r->speedup, want.speedup);
            EXPECT_EQ(r->branches, want.branches);
            EXPECT_EQ(r->mispredicted, want.mispredicted);
            EXPECT_EQ(r->predictionAccuracy, want.predictionAccuracy);
            EXPECT_EQ(r->sidePathFetches, want.sidePathFetches);
            EXPECT_EQ(r->peakIssue, want.peakIssue);
            ASSERT_TRUE(r->account.valid());
            for (std::size_t i = 0; i < obs::kNumSlotClasses; ++i) {
                const auto cls = static_cast<obs::SlotClass>(i);
                EXPECT_EQ(r->account.slots(cls), want.account.slots(cls));
            }
        }
        EXPECT_GT(want.peakIssue, 0u);
    }
}

TEST(RunModel, LeavesATwoBitPredictorResetAndOthersTrained)
{
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Cc1, 1, 50'000);
    const PreparedTrace &prep = inst.trace.prepared();
    // What a predictor in a given state predicts for each branch of
    // the trace, without training it.
    const auto outcomes = [&](BranchPredictor &pred) {
        std::vector<bool> out;
        for (std::uint64_t k = 0; k < prep.numBranches(); ++k) {
            BranchQuery q;
            q.sid = prep.exit(k).sid;
            q.backward = prep.exit(k).backward;
            q.actual = prep.exit(k).taken;
            out.push_back(pred.predict(q));
        }
        return out;
    };
    for (const char *name : {"2bit", "1bit"}) {
        const auto used = makePredictor(name, inst.trace.numStatic);
        (void)runModel(ModelKind::DEE, inst.trace, &inst.cfg, *used, 16);
        const auto fresh = makePredictor(name, inst.trace.numStatic);
        const auto trained = makePredictor(name, inst.trace.numStatic);
        (void)predictPaths(inst.trace, *trained);
        ASSERT_NE(outcomes(*trained), outcomes(*fresh)) << name;
        if (std::string(name) == "2bit") {
            EXPECT_EQ(outcomes(*used), outcomes(*fresh)) << name;
        } else {
            EXPECT_EQ(outcomes(*used), outcomes(*trained)) << name;
        }
    }
}

} // namespace
} // namespace dee
