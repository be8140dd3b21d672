/**
 * @file
 * Tests for the telemetry layer (obs/telemetry): series summaries, Hub
 * lifecycle and behavior while stopped, the dee.telemetry.v1 JSONL
 * stream round-trip, Heartbeat feeding the hub, and the determinism
 * gate: --jobs 1 and --jobs 8 manifests are bit-identical once their
 * host-measured keys are dropped.
 *
 * Every test but StartSampleStopRestart asserts on the final tick
 * that stop() always takes, so none waits on the sampler's clock.
 *
 * Ordering note: Hub::process() is a process singleton and
 * summaryJson() reports enabled=true forever after the first start();
 * the never-started assertions therefore run in the first tests below
 * (gtest executes tests in declaration order).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/registry.hh"
#include "obs/telemetry/telemetry.hh"
#include "runner/sweep.hh"

namespace dee::obs::telemetry
{
namespace
{

std::string
tempPath(const std::string &stem)
{
    return ::testing::TempDir() + stem;
}

void
waitForSamples(Hub &hub, std::uint64_t n)
{
    for (int i = 0; i < 500 && hub.samples() < n; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_GE(hub.samples(), n);
}

/** Field @p field of series @p name in a summary document; fails the
 *  test (and returns -1) when either is absent. */
double
seriesField(const Json &summary, const std::string &name,
            const char *field = "last")
{
    const Json *series = summary.find("series");
    const Json *node = series != nullptr ? series->find(name) : nullptr;
    const Json *value = node != nullptr ? node->find(field) : nullptr;
    EXPECT_NE(value, nullptr) << "no " << name << "." << field;
    return value != nullptr ? value->asDouble() : -1.0;
}

// ------------------------------------------- never-started invariants

TEST(TelemetryDisabled, HooksAreNoOpsBeforeFirstStart)
{
    Hub &hub = Hub::process();
    ASSERT_FALSE(hub.active());
    // None of these may create state or crash while the hub is off.
    hub.addCells(32);
    hub.cellDone();
    hub.addInstructions(1'000);
    EXPECT_EQ(hub.samples(), 0u);
    EXPECT_EQ(hub.elapsedMs(), 0.0);

    const Json summary = hub.summaryJson();
    ASSERT_NE(summary.find("enabled"), nullptr);
    EXPECT_FALSE(summary.find("enabled")->asBool());
    EXPECT_EQ(summary.find("series"), nullptr);
}

TEST(TelemetryDisabled, ManifestSaysDisabledBeforeFirstStart)
{
    Registry reg;
    const Json doc = Manifest("test_tool").toJson(reg);
    const Json *telemetry = doc.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_FALSE(telemetry->find("enabled")->asBool());
}

TEST(TelemetryDisabled, HeartbeatSelfClocksWithoutSampler)
{
    Heartbeat hb("idle_test", /*enabled=*/false);
    hb.tick(1, 500);
    EXPECT_EQ(hb.done(), 1u);
}

// ------------------------------------------------------ Series summary

TEST(TelemetrySeries, SummaryTracksCountMinMaxLast)
{
    SeriesSummary s;
    for (int i = 10; i >= 1; --i)
        s.add(static_cast<double>(i * i));
    s.add(49.0);
    EXPECT_EQ(s.count, 11u);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 100.0);
    EXPECT_EQ(s.last, 49.0);

    const Json node = s.toJson();
    EXPECT_EQ(node.find("count")->asInt(), 11);
    EXPECT_EQ(node.find("min")->asDouble(), 1.0);
    EXPECT_EQ(node.find("max")->asDouble(), 100.0);
    EXPECT_EQ(node.find("last")->asDouble(), 49.0);
}

TEST(TelemetrySeries, NegativeValuesAndSingleSample)
{
    SeriesSummary s;
    s.add(-3.5);
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.min, -3.5);
    EXPECT_EQ(s.max, -3.5);
    EXPECT_EQ(s.last, -3.5);
}

// ------------------------------------------------------- Hub lifecycle

TEST(TelemetryHub, StartSampleStopRestart)
{
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    opts.tool = "test_telemetry";
    ASSERT_TRUE(hub.start(opts));
    EXPECT_TRUE(hub.active());
    EXPECT_FALSE(hub.start(opts)) << "double start must be rejected";

    hub.addCells(4);
    hub.cellDone();
    hub.addInstructions(10'000);
    // The sampler thread ticks on its own, before stop()'s final tick.
    waitForSamples(hub, 2);
    hub.stop();
    EXPECT_FALSE(hub.active());
    hub.stop(); // idempotent

    const Json summary = hub.summaryJson();
    EXPECT_TRUE(summary.find("enabled")->asBool());
    EXPECT_EQ(summary.find("interval_ms")->asDouble(), 5.0);
    EXPECT_GE(summary.find("samples")->asInt(), 3);
    EXPECT_EQ(seriesField(summary, "cells.total"), 4.0);
    EXPECT_EQ(seriesField(summary, "cells.done"), 1.0);
    EXPECT_EQ(seriesField(summary, "sim.instructions"), 10'000.0);
    EXPECT_EQ(seriesField(summary, "cells.done", "count"),
              summary.find("samples")->asDouble())
        << "every tick samples every progress series";

    // Restart resets progress and series: nothing of the first run's
    // 10,000 instructions survives, not even in a series' max.
    ASSERT_TRUE(hub.start(opts));
    hub.stop();
    const Json fresh = hub.summaryJson();
    EXPECT_EQ(seriesField(fresh, "cells.total"), 0.0);
    EXPECT_EQ(seriesField(fresh, "sim.instructions", "max"), 0.0);
}

TEST(TelemetryHub, RejectsNonPositiveInterval)
{
    // NaN passes a plain "<= 0" test; it must be refused all the same.
    for (const double ms : {0.0, -5.0, std::nan(""), HUGE_VAL}) {
        Options opts;
        opts.intervalMs = ms;
        EXPECT_FALSE(Hub::process().start(opts)) << ms;
        EXPECT_FALSE(Hub::process().active()) << ms;
    }
}

TEST(TelemetryHub, HooksDropWhenStopped)
{
    Hub &hub = Hub::process();
    ASSERT_FALSE(hub.active());
    const std::string before = hub.summaryJson().dump();
    hub.addCells(99);
    hub.cellDone();
    hub.addInstructions(7);
    EXPECT_EQ(hub.summaryJson().dump(), before);

    // Nothing fed while stopped reaches the next run either.
    Options opts;
    opts.intervalMs = 5.0;
    ASSERT_TRUE(hub.start(opts));
    hub.stop();
    const Json summary = hub.summaryJson();
    EXPECT_EQ(seriesField(summary, "cells.total"), 0.0);
    EXPECT_EQ(seriesField(summary, "cells.done"), 0.0);
    EXPECT_EQ(seriesField(summary, "sim.instructions"), 0.0);
}

// ------------------------------------------------- JSONL event stream

TEST(TelemetryJsonl, StreamRoundTrips)
{
    const std::string path = tempPath("telemetry_stream.jsonl");
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    opts.tool = "jsonl_tool";
    opts.jsonlPath = path;
    ASSERT_TRUE(hub.start(opts));
    hub.addCells(2);
    hub.cellDone();
    hub.addInstructions(5'000);
    hub.stop();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<Json> docs;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        Json doc;
        std::string err;
        ASSERT_TRUE(Json::parse(line, &doc, &err)) << err;
        docs.push_back(std::move(doc));
    }
    // start, at least stop()'s final sample, finish.
    ASSERT_GE(docs.size(), 3u) << "expected start + samples + finish";

    const Json &head = docs.front();
    EXPECT_EQ(head.find("schema")->asString(), "dee.telemetry.v1");
    EXPECT_EQ(head.find("event")->asString(), "start");
    EXPECT_EQ(head.find("tool")->asString(), "jsonl_tool");
    EXPECT_EQ(head.find("interval_ms")->asDouble(), 5.0);

    double prev_t = -1.0;
    for (std::size_t i = 1; i + 1 < docs.size(); ++i) {
        const Json &sample = docs[i];
        EXPECT_EQ(sample.find("event")->asString(), "sample");
        const double t = sample.find("t_ms")->asDouble();
        EXPECT_GT(t, prev_t) << "timestamps must be monotonic";
        prev_t = t;
        ASSERT_NE(sample.find("series"), nullptr);
        ASSERT_NE(sample.find("series")->find("cells.total"), nullptr);
    }

    const Json &foot = docs.back();
    EXPECT_EQ(foot.find("event")->asString(), "finish");
    const Json *series = foot.find("series");
    ASSERT_NE(series, nullptr);
    const Json *done = series->find("cells.done");
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("last")->asDouble(), 1.0);
    const Json *instrs = series->find("sim.instructions");
    ASSERT_NE(instrs, nullptr);
    EXPECT_EQ(instrs->find("max")->asDouble(), 5'000.0);
}

// ------------------------------------------------ Heartbeat coupling

TEST(TelemetryHeartbeat, FeedsInstructionsToTheLiveHub)
{
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    ASSERT_TRUE(hub.start(opts));
    {
        Heartbeat hb("hb_test", /*enabled=*/false);
        hb.tick(3, 2'500);
        hb.tick(1);
        EXPECT_EQ(hb.done(), 4u);
    }
    hub.stop();
    EXPECT_EQ(seriesField(hub.summaryJson(), "sim.instructions"), 2'500.0);
}

// --------------------------------------- determinism across --jobs

TEST(TelemetryDeterminism, ManifestsMatchAcrossJobsAfterNormalize)
{
    const auto manifest_for = [](int jobs) {
        Registry::process().clear();
        Hub &hub = Hub::process();
        Options opts;
        opts.intervalMs = 5.0;
        opts.tool = "determinism_tool";
        EXPECT_TRUE(hub.start(opts));
        {
            Heartbeat hb("det_test", /*enabled=*/false);
            runner::SweepOptions sweep;
            sweep.jobs = jobs;
            runner::runCells(12, sweep, [&hb](std::size_t i) {
                Registry &reg = Registry::global();
                reg.counter("acct.cell" + std::to_string(i) +
                            ".useful") = 100 + i;
                reg.counter("sim.test.runs") += 1;
                reg.stat("sim.test.cost").add(
                    static_cast<double>(i));
                hb.tick(1, 1'000);
            });
            hb.finish();
        }
        hub.stop();
        const Json doc =
            Manifest("determinism_tool").toJson(Registry::process());
        Registry::process().clear();
        return doc;
    };

    const Json serial = manifest_for(1);
    const Json parallel = manifest_for(8);

    // The raw documents differ (telemetry sample counts, worker
    // stats, wall clocks); the normalized ones must not.
    EXPECT_EQ(withoutHostMeasured(serial).dump(2),
              withoutHostMeasured(parallel).dump(2));

    // Sanity: normalization did not empty the document.
    const Json norm = withoutHostMeasured(serial);
    ASSERT_NE(norm.find("stats"), nullptr);
    ASSERT_NE(norm.find("stats")->find("sim"), nullptr);
    EXPECT_EQ(norm.find("stats")
                  ->find("sim")
                  ->find("test")
                  ->find("runs")
                  ->asInt(),
              12);
}

} // namespace
} // namespace dee::obs::telemetry
