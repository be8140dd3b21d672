/**
 * @file
 * Unit tests for the host-performance observability layer
 * (obs/perf/): ThroughputMeter arithmetic and scope isolation at any
 * --jobs value, one meter per simulated run, and perf.* carried once
 * in the dee.run.v9 manifest, under stats.perf.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "levo/levo.hh"
#include "obs/obs.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using obs::CellSink;
using obs::Heartbeat;
using obs::IsolationScope;
using obs::Json;
using obs::LoadedManifest;
using obs::Manifest;
using obs::parseManifest;
using obs::Registry;
using obs::perf::ThroughputMeter;

// ------------------------------------------------- ThroughputMeter

TEST(ThroughputMeter, PublishesCountersStatsAndDerivedScalars)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        ThroughputMeter meter("compress.SP");
        EXPECT_EQ(meter.scope(), "compress.SP");
        meter.addInstructions(1000);
        meter.addInstructions(500);
        meter.addCycles(300);
        EXPECT_EQ(meter.instructions(), 1500u);
        EXPECT_EQ(meter.cycles(), 300u);
        EXPECT_GE(meter.elapsedMs(), 0.0);
    }
    const Registry &reg = sink.registry;
    const std::uint64_t *runs =
        reg.findCounter("perf.compress.SP.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(*runs, 1u);
    const std::uint64_t *instrs =
        reg.findCounter("perf.compress.SP.sim_instructions");
    ASSERT_NE(instrs, nullptr);
    EXPECT_EQ(*instrs, 1500u);
    const std::uint64_t *cycles =
        reg.findCounter("perf.compress.SP.sim_cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(*cycles, 300u);

    const RunningStat *wall =
        reg.findStat("perf.compress.SP.run_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), 1u);
    ASSERT_GT(wall->sum(), 0.0);

    // Throughput is a ratio a reader derives (KIPS is
    // sim_instructions / run_ms.sum); the meter stores no copy of it.
    EXPECT_EQ(reg.paths(), (std::vector<std::string>{
                               "perf.compress.SP.run_ms",
                               "perf.compress.SP.runs",
                               "perf.compress.SP.sim_cycles",
                               "perf.compress.SP.sim_instructions",
                           }));
}

TEST(ThroughputMeter, AccumulatesAcrossRunsOfTheSameScope)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        for (int i = 0; i < 3; ++i) {
            ThroughputMeter meter("w.DEE");
            meter.addInstructions(100);
            meter.addCycles(10);
        }
    }
    const Registry &reg = sink.registry;
    EXPECT_EQ(*reg.findCounter("perf.w.DEE.runs"), 3u);
    EXPECT_EQ(*reg.findCounter("perf.w.DEE.sim_instructions"), 300u);
    EXPECT_EQ(reg.findStat("perf.w.DEE.run_ms")->count(), 3u);
}

TEST(ThroughputMeter, ScopesDoNotBleedIntoEachOther)
{
    CellSink sink;
    {
        IsolationScope scope(sink);
        {
            ThroughputMeter meter("a.SP");
            meter.addInstructions(111);
        }
        {
            ThroughputMeter meter("b.DEE");
            meter.addInstructions(222);
        }
    }
    EXPECT_EQ(*sink.registry.findCounter("perf.a.SP.sim_instructions"),
              111u);
    EXPECT_EQ(*sink.registry.findCounter("perf.b.DEE.sim_instructions"),
              222u);
    EXPECT_EQ(*sink.registry.findCounter("perf.a.SP.runs"), 1u);
    EXPECT_EQ(*sink.registry.findCounter("perf.b.DEE.runs"), 1u);
}

/** Runs a tiny metered sweep at @p jobs and returns the merged
 *  deterministic perf counters (timing excluded). */
std::string
meteredSweepCounters(int jobs)
{
    obs::Registry::process().clear();
    runner::SweepOptions options;
    options.jobs = jobs;
    runner::runCells(8, options, [](std::size_t i) {
        ThroughputMeter meter(i % 2 == 0 ? "even.SP" : "odd.DEE");
        meter.addInstructions(100 * (i + 1));
        meter.addCycles(10 * (i + 1));
    });
    std::string out;
    for (const std::string &path : obs::Registry::process().paths()) {
        if (path.compare(0, 5, "perf.") != 0)
            continue;
        if (const std::uint64_t *c =
                obs::Registry::process().findCounter(path))
            out += path + "=" + std::to_string(*c) + "\n";
    }
    obs::Registry::process().clear();
    return out;
}

TEST(ThroughputMeter, ScopeCountersIdenticalAcrossJobs)
{
    const std::string serial = meteredSweepCounters(1);
    const std::string parallel = meteredSweepCounters(4);
    EXPECT_EQ(serial, parallel);
    // 8 cells split over two scopes: 4 runs each, instruction totals
    // 100*(1+3+5+7) and 100*(2+4+6+8).
    EXPECT_NE(serial.find("perf.even.SP.runs=4"), std::string::npos)
        << serial;
    EXPECT_NE(serial.find("perf.even.SP.sim_instructions=1600"),
              std::string::npos)
        << serial;
    EXPECT_NE(serial.find("perf.odd.DEE.sim_instructions=2000"),
              std::string::npos)
        << serial;
}

TEST(ThroughputMeter, EveryRunPassesExactlyOneClock)
{
    // Each simulated run's host time is recorded once, by one meter:
    // runModel (window and Oracle), a direct WindowSim::run under its
    // profile scope, a direct oracleSim and LevoMachine::run.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 1);
    CellSink sink;
    {
        IsolationScope scope(sink);
        ModelRunOptions options;
        options.profileWorkload = "compress";
        TwoBitPredictor pred(inst.trace.numStatic);
        runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, pred, 8,
                 options);
        runModel(ModelKind::Oracle, inst.trace, &inst.cfg, pred, 8,
                 options);

        SimConfig config;
        config.profileScope = "direct.SP";
        const WindowSim sim(inst.trace, SpecTree::singlePath(0.9, 8),
                            config, &inst.cfg);
        TwoBitPredictor direct_pred(inst.trace.numStatic);
        sim.run(direct_pred);
        oracleSim(inst.trace);
        LevoMachine(inst.program, inst.cfg, LevoConfig{}).run();
    }
    std::vector<std::string> clocks;
    for (const std::string &path : sink.registry.paths()) {
        if (path.size() < 6 ||
            path.compare(path.size() - 6, 6, "run_ms") != 0)
            continue;
        clocks.push_back(path);
        EXPECT_EQ(sink.registry.findStat(path)->count(), 1u) << path;
    }
    EXPECT_EQ(clocks, (std::vector<std::string>{
                          "perf.Levo.run_ms",
                          "perf.Oracle.run_ms",
                          "perf.compress.DEE-CD-MF.run_ms",
                          "perf.compress.Oracle.run_ms",
                          "perf.direct.SP.run_ms",
                      }));
}

// ------------------------------------------------- manifest schema

TEST(ManifestPerf, V4CarriesHostPerfSection)
{
    Registry reg;
    {
        Registry *prev = Registry::setCurrent(&reg);
        {
            ThroughputMeter meter("compress.SP");
            meter.addInstructions(5000);
        }
        Registry::setCurrent(prev);
    }
    Manifest manifest("test_tool");
    const Json doc = manifest.toJson(reg);
    EXPECT_EQ(doc.find("schema")->asString(), "dee.run.v9");
    // perf.* lives once, under stats.perf: no host_perf copy.
    EXPECT_EQ(doc.find("host_perf"), nullptr);

    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(doc.dump(2), "t.json", &back, &err))
        << err;
    double value = 0.0;
    ASSERT_TRUE(
        back.metric("stats.perf.compress.SP.sim_instructions", &value));
    EXPECT_DOUBLE_EQ(value, 5000.0);
}

TEST(ManifestPerf, V3DocumentsAreRejected)
{
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v3");
    doc["tool"] = Json("old_tool");
    Json results = Json::object();
    results["speedup"] = Json(3.1);
    doc["results"] = std::move(results);

    // A refused document leaves an already loaded manifest untouched.
    Registry reg;
    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(Manifest("test_tool").toJson(reg).dump(2),
                              "new.json", &back, &err))
        << err;
    const std::size_t metrics = back.metrics.size();
    EXPECT_FALSE(parseManifest(doc.dump(2), "old.json", &back, &err));
    EXPECT_NE(err.find("dee.run.v3"), std::string::npos) << err;
    EXPECT_EQ(back.doc.find("schema")->asString(), "dee.run.v9");
    EXPECT_EQ(back.path, "new.json");
    EXPECT_EQ(back.metrics.size(), metrics);
    double value = 0.0;
    EXPECT_FALSE(back.metric("results.speedup", &value));
}

// -------------------------------------------------- heartbeat KIPS

TEST(HeartbeatPerf, StatusLineCarriesKipsWhenInstructionsTicked)
{
    Heartbeat plain("bench", false);
    plain.tick(1);
    EXPECT_EQ(plain.statusLine().find("KIPS"), std::string::npos);

    Heartbeat metered("bench", false);
    metered.tick(1, 50'000);
    EXPECT_EQ(metered.done(), 1u);
    EXPECT_NE(metered.statusLine().find("KIPS"), std::string::npos);
}

} // namespace
} // namespace dee
