/**
 * @file
 * Tests for the host hot-path sampling profiler (obs/hotspot): the
 * pure buildReport() fold (per-phase self/total shares, attribution
 * identity, folded-stack golden, every fold kept), phase nesting
 * invariants, the manifest's hotspots section, the regression gate's
 * advisory per-phase share check (self-diff passes; an injected 2x phase-share
 * skew warns naming the phase and never fails), live sampling during a
 * --jobs 4 parallel sweep (the ASan/TSan signal-safety smoke), ring
 * overflow drop accounting, and the determinism gate: manifests stay
 * byte-identical across --jobs without their host-measured keys, and
 * pass the regression gate, even with the sampler running.
 *
 * Sanitizer note: TSan intercepts signal delivery and defers async
 * signals to interception points, so a TSan build may capture only a
 * handful of samples per thread. Tests therefore never assert minimum
 * sample counts under TSan — the point of running them there is the
 * race/safety check itself, not the sample yield.
 *
 * Ordering note: Sampler::process() is a process singleton and
 * everStarted() stays true after the first start(); the never-started
 * assertions run in the first test below (gtest executes tests in
 * declaration order).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "obs/hotspot/hotspot.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/registry.hh"
#include "runner/sweep.hh"

#if defined(__SANITIZE_THREAD__)
#define DEE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DEE_TEST_TSAN 1
#endif
#endif
#ifndef DEE_TEST_TSAN
#define DEE_TEST_TSAN 0
#endif

namespace dee::obs::hotspot
{
namespace
{

/** The calling thread's CPU time: the clock the sampler's per-thread
 *  timers count. */
std::chrono::nanoseconds
threadCpuTime()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::chrono::seconds(ts.tv_sec) +
           std::chrono::nanoseconds(ts.tv_nsec);
}

/** Spins real CPU work until the calling thread has consumed @p cpu of
 *  CPU time, so its timer fires as often as the interval promises on
 *  a loaded host too. A thread starved past a generous wall cap fails
 *  the test instead of hanging it. The sink keeps the loop alive;
 *  sweep workers spin at once, so it is atomic. */
std::atomic<std::uint64_t> g_spin_sink{0};

void
spinFor(std::chrono::milliseconds cpu)
{
    constexpr auto kWallCap = std::chrono::seconds(60);
    const auto cpu_until = threadCpuTime() + cpu;
    const auto wall_until = std::chrono::steady_clock::now() + kWallCap;
    std::uint64_t x = 1;
    while (threadCpuTime() < cpu_until) {
        if (std::chrono::steady_clock::now() > wall_until) {
            ADD_FAILURE() << "spinFor: the thread got less than "
                          << cpu.count() << " ms of CPU time in "
                          << kWallCap.count() << " s of wall time";
            return;
        }
        for (int i = 0; i < 4096; ++i)
            x = x * 2862933555777941757ull + 3037000493ull;
        g_spin_sink.store(x, std::memory_order_relaxed);
    }
}

// --------------------------------------------- never-started state

TEST(HotspotSampler, NeverStartedSectionSaysDisabled)
{
    Sampler &sampler = Sampler::process();
    ASSERT_FALSE(sampler.everStarted());
    ASSERT_FALSE(sampler.active());
    const Json section = sampler.sectionJson();
    ASSERT_NE(section.find("enabled"), nullptr);
    EXPECT_FALSE(section.find("enabled")->asBool());
    // No phases, no samples: v1-v6 era consumers see only an unknown
    // disabled section.
    EXPECT_EQ(section.find("phases"), nullptr);
}

// ------------------------------------------------- pure fold logic

/** Synthetic 3-phase workload: a scope with fetch-only samples,
 *  fetch>issue nested samples, and one unattributed sample. */
std::vector<RawSample>
syntheticSamples(std::uint8_t scope_idx)
{
    std::vector<RawSample> samples;
    for (int i = 0; i < 3; ++i) {
        RawSample s;
        s.depth = 1;
        s.phaseStack[0] = packEntry(scope_idx, Phase::Fetch);
        samples.push_back(s);
    }
    for (int i = 0; i < 2; ++i) {
        RawSample s;
        s.depth = 2;
        s.phaseStack[0] = packEntry(scope_idx, Phase::Fetch);
        s.phaseStack[1] = packEntry(scope_idx, Phase::Issue);
        samples.push_back(s);
    }
    samples.emplace_back(); // depth 0: unattributed
    return samples;
}

TEST(HotspotReport, SyntheticThreePhaseGolden)
{
    const std::uint8_t scope = internScope("tw");
    ASSERT_STREQ(scopeName(scope), "tw");

    const Report report = buildReport(syntheticSamples(scope),
                                      /*dropped=*/7, /*threads=*/2,
                                      /*intervalMs=*/2.0,
                                      /*symbolize=*/false);
    EXPECT_EQ(report.totalSamples, 6u);
    EXPECT_EQ(report.attributed, 5u);
    EXPECT_EQ(report.dropped, 7u);
    EXPECT_EQ(report.threads, 2u);
    EXPECT_NEAR(report.attributedPct(), 100.0 * 5 / 6, 1e-9);

    ASSERT_EQ(report.phases.size(), 2u);
    const PhaseStat &fetch = report.phases.at("tw.fetch");
    EXPECT_EQ(fetch.self, 3u);  // innermost in 3 samples
    EXPECT_EQ(fetch.total, 5u); // open in all 5 attributed samples
    EXPECT_NEAR(fetch.selfPct, 50.0, 1e-9);
    EXPECT_NEAR(fetch.pct, 100.0 * 5 / 6, 1e-9);
    const PhaseStat &issue = report.phases.at("tw.issue");
    EXPECT_EQ(issue.self, 2u);
    EXPECT_EQ(issue.total, 2u);

    // Folded-stack golden (no frames captured: phase roots only).
    const std::string folded = report.foldedStacks();
    EXPECT_NE(folded.find("host;tw.fetch 3"), std::string::npos)
        << folded;
    EXPECT_NE(folded.find("host;tw.issue 2"), std::string::npos)
        << folded;
    EXPECT_NE(folded.find("host;unattributed 1"), std::string::npos)
        << folded;
}

TEST(HotspotReport, FoldedStacksKeepEverySample)
{
    // 8 scopes x 7 phases, each fold with its own count, plus one
    // unattributed sample: 57 distinct folds, more than any cap on
    // the folded file would keep.
    constexpr std::size_t kScopes = 8;
    static const char *const kNames[kScopes] = {
        "fold0", "fold1", "fold2", "fold3",
        "fold4", "fold5", "fold6", "fold7",
    };
    std::vector<RawSample> samples;
    std::set<std::string> folds = {"host;unattributed"};
    for (std::size_t sc = 0; sc < kScopes; ++sc) {
        const std::uint8_t idx = internScope(kNames[sc]);
        ASSERT_STREQ(scopeName(idx), kNames[sc]) << "scope table full";
        for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
            const auto phase = static_cast<Phase>(ph);
            RawSample s;
            s.depth = 1;
            s.phaseStack[0] = packEntry(idx, phase);
            samples.insert(samples.end(), 1 + (sc + ph) % 3, s);
            folds.insert(std::string("host;") + kNames[sc] + "." +
                         phaseName(phase));
        }
    }
    samples.emplace_back();
    ASSERT_EQ(folds.size(), kScopes * kNumPhases + 1);

    const Report report =
        buildReport(samples, 0, 1, 2.0, /*symbolize=*/false);
    ASSERT_EQ(report.stacks.size(), folds.size());
    std::uint64_t sum = 0;
    for (const auto &[stack, count] : report.stacks) {
        EXPECT_EQ(folds.count(stack), 1u) << stack;
        sum += count;
    }
    EXPECT_EQ(sum, report.totalSamples);

    // The folded file is the same stacks, one line each.
    std::istringstream lines(report.foldedStacks());
    std::string line;
    std::size_t num_lines = 0;
    std::uint64_t line_sum = 0;
    while (std::getline(lines, line)) {
        ++num_lines;
        line_sum += std::stoull(line.substr(line.rfind(' ') + 1));
    }
    EXPECT_EQ(num_lines, folds.size());
    EXPECT_EQ(line_sum, samples.size());
}

TEST(HotspotReport, AttributionAndNestingIdentities)
{
    const std::uint8_t scope = internScope("tw");
    const Report report = buildReport(syntheticSamples(scope), 0, 1,
                                      2.0, /*symbolize=*/false);

    // sum(self) + unattributed == totalSamples.
    std::uint64_t self_sum = 0;
    for (const auto &[key, stat] : report.phases)
        self_sum += stat.self;
    EXPECT_EQ(self_sum, report.attributed);
    EXPECT_EQ(self_sum + (report.totalSamples - report.attributed),
              report.totalSamples);

    // Nested child self never exceeds the parent's total: tw.issue
    // only ever opens under tw.fetch here.
    EXPECT_LE(report.phases.at("tw.issue").self,
              report.phases.at("tw.fetch").total);
}

TEST(HotspotReport, RepeatedPhaseEntryCountsTotalOnce)
{
    const std::uint8_t scope = internScope("tw");
    RawSample s;
    s.depth = 3;
    s.phaseStack[0] = packEntry(scope, Phase::Issue);
    s.phaseStack[1] = packEntry(scope, Phase::Fetch);
    s.phaseStack[2] = packEntry(scope, Phase::Issue); // re-entered
    const Report report =
        buildReport({s}, 0, 1, 2.0, /*symbolize=*/false);
    EXPECT_EQ(report.phases.at("tw.issue").total, 1u);
    EXPECT_EQ(report.phases.at("tw.issue").self, 1u);
    EXPECT_EQ(report.phases.at("tw.fetch").total, 1u);
    EXPECT_EQ(report.phases.at("tw.fetch").self, 0u);
}

// ------------------------------------------- manifest section and diffs

/** A minimal v8 manifest with one hotspots phase entry per (key,
 *  self, self_pct) triple. */
std::string
manifestWithPhases(
    const std::vector<std::tuple<std::string, double, double>> &phases)
{
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v9");
    doc["tool"] = Json("test_hotspot");
    doc["config"] = Json::object();
    doc["results"] = Json::object();
    Json section = Json::object();
    section["enabled"] = Json(true);
    section["samples"] = Json(std::int64_t{1000});
    Json section_phases = Json::object();
    for (const auto &[key, self, self_pct] : phases) {
        Json p = Json::object();
        p["self"] = Json(self);
        p["self_pct"] = Json(self_pct);
        p["total"] = Json(self);
        p["pct"] = Json(self_pct);
        section_phases[key] = std::move(p);
    }
    section["phases"] = std::move(section_phases);
    doc["hotspots"] = std::move(section);
    return doc.dump(2);
}

TEST(HotspotManifest, V7SectionRoundTrip)
{
    Registry reg;
    const Manifest manifest("test_hotspot");
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(manifest.toJson(reg).dump(2), &back, &err))
        << err;
    EXPECT_EQ(back.find("schema")->asString(), "dee.run.v9");
    ASSERT_NE(back.find("hotspots"), nullptr);
    ASSERT_NE(back.find("hotspots")->find("enabled"), nullptr);

    LoadedManifest loaded;
    ASSERT_TRUE(parseManifest(manifest.toJson(reg).dump(2), "mem",
                              &loaded, &err))
        << err;
}

TEST(HotspotManifest, V6DocumentsAreRejected)
{
    // A v6-era document: no hotspots section at all. Gating against it
    // is a usage error that names the schema, not a silent pass.
    const std::string v6 = R"({
      "schema": "dee.run.v6",
      "tool": "old_tool",
      "config": {},
      "results": {"speedup": 3.0}
    })";
    LoadedManifest old_doc;
    std::string err;
    EXPECT_FALSE(parseManifest(v6, "old.json", &old_doc, &err));
    EXPECT_NE(err.find("old.json"), std::string::npos) << err;
    EXPECT_NE(err.find("dee.run.v6"), std::string::npos) << err;
    EXPECT_NE(err.find("regenerate"), std::string::npos) << err;
}

/** The items checkManifest() raises between two hotspot manifests;
 *  host shares only ever warn, so none may be a FAIL. */
std::vector<GateItem>
hotspotWarnings(const std::string &base_text, const std::string &cand_text)
{
    LoadedManifest base, cand;
    std::string err;
    EXPECT_TRUE(parseManifest(base_text, "base.json", &base, &err)) << err;
    EXPECT_TRUE(parseManifest(cand_text, "cand.json", &cand, &err)) << err;
    const std::vector<GateItem> items = checkManifest(base, cand);
    for (const GateItem &item : items)
        EXPECT_FALSE(item.fail) << item.line();
    return items;
}

TEST(HotspotDiff, SelfDiffPassesAndInjectedSkewWarnsNamingPhase)
{
    const std::string base = manifestWithPhases(
        {{"window.issue", 400.0, 40.0}, {"window.fetch", 200.0, 20.0}});
    EXPECT_TRUE(hotspotWarnings(base, base).empty());

    // Injected 2x skew on window.issue: one WARN naming the phase, and
    // no FAIL, so dee_report --check still exits 0.
    const std::vector<GateItem> skew = hotspotWarnings(
        base, manifestWithPhases({{"window.issue", 800.0, 80.0},
                                  {"window.fetch", 200.0, 20.0}}));
    ASSERT_EQ(skew.size(), 1u);
    EXPECT_EQ(skew[0].metric, "hotspots.phases.window.issue.self_pct");
    EXPECT_EQ(skew[0].line().rfind("WARN hotspots.phases.window.issue", 0),
              0u)
        << skew[0].line();
}

TEST(HotspotDiff, MinSamplesFloorSuppressesNoise)
{
    const std::string base =
        manifestWithPhases({{"tree.tree_move", 10.0, 1.0}});
    // Share quadrupled but only 40 self samples: under the 50 floor.
    EXPECT_TRUE(
        hotspotWarnings(base,
                        manifestWithPhases({{"tree.tree_move", 40.0, 4.0}}))
            .empty());
    // The same share over 60 samples clears the floor and the Poisson
    // noise floor (3*sqrt(1/10 + 1/60) ~ 1.02 relative): it warns.
    EXPECT_EQ(
        hotspotWarnings(base,
                        manifestWithPhases({{"tree.tree_move", 60.0, 4.0}}))
            .size(),
        1u);
}

TEST(HotspotDiff, PoissonNoiseFloorWidensGateForSmallCounts)
{
    const std::string base =
        manifestWithPhases({{"window.fetch", 60.0, 6.0}});
    // 6% -> 10% over 60-vs-100 samples is a 67% relative jump — past
    // the 25% threshold, but inside the 3-sigma counting error
    // (3*sqrt(1/60 + 1/100) ~ 0.49): sampling wobble, not a shift.
    EXPECT_TRUE(
        hotspotWarnings(base,
                        manifestWithPhases({{"window.fetch", 100.0, 10.0}}))
            .empty());
    // 6% -> 16% clears threshold + noise floor: a real shift.
    const std::vector<GateItem> shift = hotspotWarnings(
        base, manifestWithPhases({{"window.fetch", 160.0, 16.0}}));
    ASSERT_EQ(shift.size(), 1u);
    EXPECT_EQ(shift[0].metric, "hotspots.phases.window.fetch.self_pct");
    EXPECT_NE(shift[0].line().find("3-sigma"), std::string::npos)
        << shift[0].line();
}

// ------------------------------------------------- live sampling

TEST(HotspotSampler, ParallelSweepSignalSafetySmoke)
{
    if (!Sampler::supported())
        GTEST_SKIP() << "sampler unsupported on this platform";

    Registry::process().clear();
    Sampler &sampler = Sampler::process();
    Options options;
    options.intervalMs = 0.5;
    ASSERT_TRUE(sampler.start(options));
    EXPECT_TRUE(sampler.active());
    EXPECT_FALSE(sampler.start(options)) << "double start must fail";

    // A --jobs 4 sweep with nested phase markers in every cell: the
    // ASan/TSan smoke for handler re-entrancy, thread registration
    // and cross-thread teardown.
    runner::SweepOptions sweep;
    sweep.jobs = 4;
    runner::runCells(8, sweep, [](std::size_t) {
        const HotspotPhase outer("testsweep", Phase::Other);
        for (int rep = 0; rep < 10; ++rep) {
            const HotspotPhase inner("testsweep", Phase::Issue);
            spinFor(std::chrono::milliseconds(5));
        }
    });

    sampler.stop();
    EXPECT_FALSE(sampler.active());
    EXPECT_TRUE(sampler.everStarted());

    const Report &report = sampler.report();
#if !DEE_TEST_TSAN
    // TSan defers async signal delivery, so only a non-TSan build can
    // promise a sample yield from ~400ms of spinning at 0.5ms.
    EXPECT_GT(report.totalSamples, 0u);
    EXPECT_TRUE(report.phases.count("testsweep.issue") == 1 ||
                report.phases.count("testsweep.other") == 1);
#endif
    // The attribution identity holds at any yield, TSan included.
    std::uint64_t self_sum = 0;
    for (const auto &[key, stat] : report.phases)
        self_sum += stat.self;
    EXPECT_EQ(self_sum, report.attributed);
    EXPECT_LE(report.attributed, report.totalSamples);

    // The stopped section carries the phases and the interval.
    const Json section = sampler.sectionJson();
    EXPECT_TRUE(section.find("enabled")->asBool());
    EXPECT_DOUBLE_EQ(section.find("interval_ms")->asDouble(), 0.5);
    Registry::process().clear();
}

TEST(HotspotSampler, StartRefusesANonFiniteOrNonPositiveInterval)
{
    // Refused before any platform check, so on every build.
    Sampler &sampler = Sampler::process();
    for (const double ms : {0.0, -5.0, std::nan(""), HUGE_VAL}) {
        Options options;
        options.intervalMs = ms;
        EXPECT_FALSE(sampler.start(options)) << ms;
        EXPECT_FALSE(sampler.active()) << ms;
    }
}

TEST(HotspotSampler, RingOverflowIsDropCounted)
{
    if (!Sampler::supported())
        GTEST_SKIP() << "sampler unsupported on this platform";
#if DEE_TEST_TSAN
    GTEST_SKIP() << "TSan defers signals; overflow cannot be forced";
#endif

    Sampler &sampler = Sampler::process();
    Options options;
    options.intervalMs = 0.2; // clamped to the 100us floor at worst
    options.ringCapacity = 8; // force overflow fast
    ASSERT_TRUE(sampler.start(options));
    {
        const HotspotPhase marker("testoverflow", Phase::Merge);
        spinFor(std::chrono::milliseconds(200));
    }
    sampler.stop();

    const Report &report = sampler.report();
    // 200 ms of thread CPU time at 0.2 ms claims far more than the 8
    // slots: all 8 are kept, and every claim past them is a drop.
    EXPECT_EQ(report.totalSamples, 8u);
    EXPECT_GT(report.dropped, 0u);
}

// --------------------------------------------------- determinism

TEST(HotspotDeterminism, ManifestsMatchAcrossJobsWithSamplerOn)
{
    if (!Sampler::supported())
        GTEST_SKIP() << "sampler unsupported on this platform";

    const auto manifest_for = [](int jobs) {
        Registry::process().clear();
        Sampler &sampler = Sampler::process();
        Options options;
        options.intervalMs = 0.5;
        EXPECT_TRUE(sampler.start(options));
        runner::SweepOptions sweep;
        sweep.jobs = jobs;
        runner::runCells(8, sweep, [](std::size_t i) {
            const HotspotPhase marker("testdet", Phase::Issue);
            Registry &reg = Registry::global();
            reg.counter("acct.cell" + std::to_string(i) + ".useful") =
                100 + i;
            reg.counter("sim.test.runs") += 1;
            spinFor(std::chrono::milliseconds(2));
        });
        sampler.stop();
        const Json doc =
            Manifest("det_tool").toJson(Registry::process());
        Registry::process().clear();
        return doc;
    };

    const Json serial = manifest_for(1);
    const Json parallel = manifest_for(8);

    // Raw documents differ (sample counts, shares, wall clock); without
    // their host-measured keys they must be byte-identical even with
    // the sampler running, and the regression gate must pass the pair.
    EXPECT_EQ(withoutHostMeasured(serial).dump(2),
              withoutHostMeasured(parallel).dump(2));
    LoadedManifest jobs1, jobs8;
    std::string err;
    ASSERT_TRUE(parseManifest(serial.dump(), "jobs1.json", &jobs1, &err))
        << err;
    ASSERT_TRUE(parseManifest(parallel.dump(), "jobs8.json", &jobs8, &err))
        << err;
    for (const GateItem &item : checkManifest(jobs1, jobs8))
        EXPECT_FALSE(item.fail) << item.line();

    // Sanity: normalization kept the deterministic payload.
    const Json norm = withoutHostMeasured(serial);
    const Json *acct = norm.find("stats")->find("acct");
    ASSERT_NE(acct, nullptr);
    EXPECT_NE(acct->find("cell3"), nullptr);
}

} // namespace
} // namespace dee::obs::hotspot
