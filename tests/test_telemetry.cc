/**
 * @file
 * Tests for the live telemetry layer (obs/telemetry): Series ring
 * semantics, Hub lifecycle and zero-overhead-when-disabled behavior,
 * the dee.telemetry.v1 JSONL stream round-trip, the unix-socket stats
 * endpoint (direct handleRequest units plus a raw AF_UNIX client
 * polling a live parallel sweep), Heartbeat riding the sampler clock,
 * and the determinism gate: --jobs 1 and --jobs 8 manifests are
 * bit-identical once their host-measured keys are dropped.
 *
 * Ordering note: Hub::process() is a process singleton and
 * summaryJson() reports enabled=true forever after the first start();
 * the never-started assertions therefore run in the first tests below
 * (gtest executes tests in declaration order).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DEE_TEST_HAVE_UNIX_SOCKETS 1
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define DEE_TEST_HAVE_UNIX_SOCKETS 0
#endif

#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/registry.hh"
#include "obs/telemetry/stats_server.hh"
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

// ------------------------------------------- never-started invariants

TEST(TelemetryDisabled, HooksAreNoOpsBeforeFirstStart)
{
    Hub &hub = Hub::process();
    ASSERT_FALSE(hub.active());
    // None of these may create state or crash while the hub is off.
    hub.addCells(32);
    hub.cellDone();
    hub.addInstructions(1'000);
    hub.record("sim.kips", 42.0);
    EXPECT_EQ(hub.samples(), 0u);
    EXPECT_EQ(hub.elapsedMs(), 0.0);
    EXPECT_TRUE(hub.seriesTail("sim.kips", 8).empty());

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
    EXPECT_FALSE(hb.ridesSamplerClock());
    hb.tick(1, 500);
    EXPECT_EQ(hb.done(), 1u);
}

// --------------------------------------------------------- Series ring

TEST(TelemetrySeries, SummaryTracksEverythingRingKeepsTail)
{
    Series s(4);
    for (int i = 1; i <= 10; ++i)
        s.add(static_cast<double>(i), static_cast<double>(i * i));
    EXPECT_EQ(s.count(), 10u);
    EXPECT_EQ(s.buffered(), 4u);
    EXPECT_EQ(s.summary().min, 1.0);
    EXPECT_EQ(s.summary().max, 100.0);
    EXPECT_EQ(s.summary().last, 100.0);

    // tail(2) is the most recent two, oldest first.
    const std::vector<Sample> two = s.tail(2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].value, 81.0);
    EXPECT_EQ(two[1].value, 100.0);

    // Asking for more than buffered returns exactly the ring.
    const std::vector<Sample> all = s.tail(64);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].value, 49.0);
    EXPECT_EQ(all[3].value, 100.0);
}

TEST(TelemetrySeries, NegativeValuesAndSingleSample)
{
    Series s(8);
    s.add(0.0, -3.5);
    EXPECT_EQ(s.summary().min, -3.5);
    EXPECT_EQ(s.summary().max, -3.5);
    EXPECT_EQ(s.summary().last, -3.5);
    ASSERT_EQ(s.tail(1).size(), 1u);
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
    hub.record("test.custom", 7.0);
    waitForSamples(hub, 2);
    hub.stop();
    EXPECT_FALSE(hub.active());
    hub.stop(); // idempotent

    const Json snap = hub.snapshotJson();
    EXPECT_EQ(snap.find("schema")->asString(), "dee.telemetry.v1");
    EXPECT_EQ(snap.find("tool")->asString(), "test_telemetry");
    const Json *progress = snap.find("progress");
    ASSERT_NE(progress, nullptr);
    EXPECT_EQ(progress->find("cells_total")->asInt(), 4);
    EXPECT_EQ(progress->find("cells_done")->asInt(), 1);
    EXPECT_EQ(progress->find("instructions")->asInt(), 10'000);
    const Json *series = snap.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_NE(series->find("test.custom"), nullptr);
    EXPECT_EQ(series->find("test.custom")->find("last")->asDouble(),
              7.0);
    ASSERT_NE(series->find("cells.done"), nullptr);
    ASSERT_NE(series->find("sim.instructions"), nullptr);

    const Json summary = hub.summaryJson();
    EXPECT_TRUE(summary.find("enabled")->asBool());
    EXPECT_GE(summary.find("samples")->asInt(), 2);

    // Restart resets progress and series.
    ASSERT_TRUE(hub.start(opts));
    const Json fresh = hub.snapshotJson();
    EXPECT_EQ(fresh.find("progress")->find("cells_total")->asInt(), 0);
    EXPECT_EQ(fresh.find("series")->find("test.custom"), nullptr);
    hub.stop();
}

TEST(TelemetryHub, RejectsNonPositiveInterval)
{
    Options opts;
    opts.intervalMs = 0.0;
    EXPECT_FALSE(Hub::process().start(opts));
    EXPECT_FALSE(Hub::process().active());
}

TEST(TelemetryHub, HooksDropWhenStopped)
{
    Hub &hub = Hub::process();
    ASSERT_FALSE(hub.active());
    const Json before = hub.snapshotJson();
    hub.addCells(99);
    hub.record("test.dropped", 1.0);
    const Json after = hub.snapshotJson();
    EXPECT_EQ(before.find("progress")->find("cells_total")->asInt(),
              after.find("progress")->find("cells_total")->asInt());
    EXPECT_EQ(after.find("series")->find("test.dropped"), nullptr);
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
    waitForSamples(hub, 3);
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

TEST(TelemetryHeartbeat, RidesSamplerClockAndFeedsInstructions)
{
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    ASSERT_TRUE(hub.start(opts));
    {
        Heartbeat hb("hb_test", /*enabled=*/false);
        EXPECT_TRUE(hb.ridesSamplerClock());
        hb.tick(3, 2'500);
        EXPECT_EQ(hb.done(), 3u);
        waitForSamples(hub, 2);
        const Json snap = hub.snapshotJson();
        EXPECT_EQ(
            snap.find("progress")->find("instructions")->asInt(),
            2'500);
    } // dtor unregisters from the live hub
    hub.stop();
    Heartbeat after("hb_after", /*enabled=*/false);
    EXPECT_FALSE(after.ridesSamplerClock());
}

// --------------------------------------------------- stats endpoint

TEST(TelemetryServer, HandleRequestUnits)
{
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    ASSERT_TRUE(hub.start(opts));
    hub.record("unit.series", 1.0);
    hub.record("unit.series", 2.0);

    StatsServer server(hub);

    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(server.handleRequest("ping"), &doc, &err))
        << err;
    EXPECT_TRUE(doc.find("ok")->asBool());

    ASSERT_TRUE(
        Json::parse(server.handleRequest("snapshot"), &doc, &err))
        << err;
    EXPECT_EQ(doc.find("schema")->asString(), "dee.telemetry.v1");
    ASSERT_NE(doc.find("series")->find("unit.series"), nullptr);

    ASSERT_TRUE(Json::parse(
        server.handleRequest("tail unit.series 8"), &doc, &err))
        << err;
    EXPECT_EQ(doc.find("name")->asString(), "unit.series");
    ASSERT_EQ(doc.find("v")->size(), 2u);
    EXPECT_EQ(doc.find("v")->items()[1].asDouble(), 2.0);

    ASSERT_TRUE(Json::parse(server.handleRequest("tail"), &doc, &err));
    ASSERT_NE(doc.find("error"), nullptr);
    ASSERT_TRUE(Json::parse(server.handleRequest("bogus"), &doc, &err));
    ASSERT_NE(doc.find("error"), nullptr);

    hub.stop();
}

#if DEE_TEST_HAVE_UNIX_SOCKETS

/** One-shot raw client: connect, send @p line, read one reply line. */
std::string
rawRequest(const std::string &path, const std::string &line)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string out = line + "\n";
    if (::send(fd, out.data(), out.size(), 0) !=
        static_cast<ssize_t>(out.size())) {
        ::close(fd);
        return "";
    }
    std::string reply;
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
        const std::size_t nl = reply.find('\n');
        if (nl != std::string::npos) {
            reply.resize(nl);
            break;
        }
    }
    ::close(fd);
    return reply;
}

TEST(TelemetryServer, ServesSnapshotsWhileParallelSweepRuns)
{
    const std::string sock = tempPath("telemetry_live.sock");
    Registry::process().clear();
    Hub &hub = Hub::process();
    Options opts;
    opts.intervalMs = 5.0;
    opts.tool = "sweep_tool";
    opts.socketPath = sock;
    ASSERT_TRUE(hub.start(opts));

    // A parallel sweep whose cells take long enough that snapshot
    // polls genuinely overlap the run.
    std::atomic<bool> sweep_done{false};
    std::thread sweeper([&sweep_done] {
        runner::SweepOptions sweep;
        sweep.jobs = 4;
        runner::runCells(16, sweep, [](std::size_t i) {
            Registry::global().counter("test.cell." +
                                       std::to_string(i)) = i + 1;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        });
        sweep_done = true;
    });

    // Poll snapshots until the sweep registers; every reply must be a
    // complete, parseable document whatever the sweep is doing.
    bool saw_progress = false;
    for (int i = 0; i < 500 && !sweep_done; ++i) {
        const std::string reply = rawRequest(sock, "snapshot");
        ASSERT_FALSE(reply.empty());
        Json doc;
        std::string err;
        ASSERT_TRUE(Json::parse(reply, &doc, &err)) << err;
        EXPECT_EQ(doc.find("schema")->asString(), "dee.telemetry.v1");
        if (doc.find("progress")->find("cells_total")->asInt() == 16)
            saw_progress = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sweeper.join();
    EXPECT_TRUE(saw_progress)
        << "no snapshot observed the sweep in flight";

    // After the sweep: final state visible, concurrent clients OK.
    const std::string reply = rawRequest(sock, "snapshot");
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(reply, &doc, &err)) << err;
    EXPECT_EQ(doc.find("progress")->find("cells_done")->asInt(), 16);
    EXPECT_EQ(rawRequest(sock, "ping"), "{\"ok\":true}");

    hub.stop();
    // Socket file is unlinked on stop.
    EXPECT_TRUE(rawRequest(sock, "ping").empty());
    Registry::process().clear();
}

#endif // DEE_TEST_HAVE_UNIX_SOCKETS

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
