/**
 * @file
 * Tests for the deterministic parallel run engine (src/runner):
 * ThreadPool semantics, per-cell seed derivation, exact observability
 * merging, and — the load-bearing property — differential determinism:
 * a Figure-5-style model sweep produces bit-identical registry,
 * profile-store and result-vector state whether it runs serially or
 * through runner::runCells at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bpred/bpred.hh"
#include "common/stats.hh"
#include "core/sim/models.hh"
#include "obs/obs.hh"
#include "runner/seed.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ReportsRequestedThreadCount)
{
    runner::ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    EXPECT_GE(runner::ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPool, StressTenThousandTasks)
{
    std::atomic<int> count{0};
    runner::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(10'000);
    for (int i = 0; i < 10'000; ++i)
        futures.push_back(pool.submit([&count] {
            count.fetch_add(1, std::memory_order_relaxed);
        }));
    for (auto &f : futures)
        pool.wait(f);
    EXPECT_EQ(count.load(), 10'000);
}

TEST(ThreadPool, ExceptionPropagatesThroughWait)
{
    runner::ThreadPool pool(2);
    auto bad = pool.submit(
        [] { throw std::runtime_error("cell exploded"); });
    EXPECT_THROW(pool.wait(bad), std::runtime_error);
    // The pool survives a throwing task.
    std::atomic<int> count{0};
    auto good = pool.submit([&count] { ++count; });
    pool.wait(good);
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock)
{
    // A task that submits subtasks and waits on them would deadlock a
    // naive pool of fewer threads than nesting levels; wait() helps by
    // running pending tasks instead of blocking.
    runner::ThreadPool pool(2);
    std::atomic<int> leaves{0};
    std::vector<std::future<void>> outer;
    for (int i = 0; i < 8; ++i)
        outer.push_back(pool.submit([&pool, &leaves] {
            std::vector<std::future<void>> inner;
            for (int k = 0; k < 8; ++k)
                inner.push_back(pool.submit([&leaves] {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                }));
            for (auto &f : inner)
                pool.wait(f);
        }));
    for (auto &f : outer)
        pool.wait(f);
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    {
        runner::ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            futures.push_back(pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                count.fetch_add(1, std::memory_order_relaxed);
            }));
        // Destructor runs with most tasks still queued.
    }
    EXPECT_EQ(count.load(), 200);
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        f.get();
    }
}

// ---------------------------------------------------------------- seed

TEST(CellSeed, DeterministicAndSensitiveToEveryField)
{
    const std::uint64_t a = runner::cellSeed(1, "cc1", "DEE-CD-MF", 4);
    EXPECT_EQ(a, runner::cellSeed(1, "cc1", "DEE-CD-MF", 4));
    EXPECT_NE(a, runner::cellSeed(2, "cc1", "DEE-CD-MF", 4));
    EXPECT_NE(a, runner::cellSeed(1, "cc2", "DEE-CD-MF", 4));
    EXPECT_NE(a, runner::cellSeed(1, "cc1", "SP", 4));
    EXPECT_NE(a, runner::cellSeed(1, "cc1", "DEE-CD-MF", 5));
    // Field boundaries matter: ("ab","c") != ("a","bc").
    EXPECT_NE(runner::cellSeed(1, "ab", "c", 0),
              runner::cellSeed(1, "a", "bc", 0));
}

TEST(CellSeed, NeverReturnsZero)
{
    // Seed 0 means "unperturbed template workload"; derived cell seeds
    // must never collide with it, whatever the inputs.
    for (std::uint64_t master = 0; master < 64; ++master)
        for (int scale = 0; scale < 4; ++scale)
            EXPECT_NE(runner::cellSeed(master, "", "", scale), 0u);
}

TEST(CellSeed, PerturbedWorkloadsDiffer)
{
    const BenchmarkInstance base =
        makeInstance(WorkloadId::Compress, 1, 20'000, 0);
    const BenchmarkInstance same =
        makeInstance(WorkloadId::Compress, 1, 20'000, 0);
    EXPECT_EQ(base.trace.records.size(), same.trace.records.size());
    const BenchmarkInstance seeded = makeInstance(
        WorkloadId::Compress, 1, 20'000,
        runner::cellSeed(7, "compress", "prop", 1));
    // A nonzero seed perturbs the program, so the traced behaviour
    // diverges from the calibrated template.
    bool differs =
        seeded.trace.records.size() != base.trace.records.size();
    for (std::size_t i = 0;
         !differs && i < base.trace.records.size(); ++i)
        differs =
            seeded.trace.records[i].sid != base.trace.records[i].sid ||
            seeded.trace.records[i].taken != base.trace.records[i].taken;
    EXPECT_TRUE(differs);
}

// --------------------------------------------------------------- merge

TEST(RegistryMerge, CountersScalarsAndHistogramsAreExact)
{
    obs::Registry a;
    obs::Registry b;
    a.counter("x.count") = 3;
    b.counter("x.count") = 39;
    b.counter("x.only_b") = 7;
    a.scalar("x.derived") = 0.25;
    b.scalar("x.derived") = 0.75;
    a.histogram("x.hist", 0.0, 8.0, 4).add(1.0);
    b.histogram("x.hist", 0.0, 8.0, 4).add(1.0);
    b.histogram("x.hist", 0.0, 8.0, 4).add(100.0); // overflow

    a.merge(b);
    EXPECT_EQ(*a.findCounter("x.count"), 42u);
    EXPECT_EQ(*a.findCounter("x.only_b"), 7u);
    // Scalars are overwritten by the merged-in value (the runner
    // re-derives them afterwards).
    EXPECT_EQ(*a.findScalar("x.derived"), 0.75);
    const Histogram *h = a.findHistogram("x.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->bucketCount(0), 2u);
    EXPECT_EQ(h->overflow(), 1u);
    EXPECT_EQ(h->total(), 3u);
}

TEST(RegistryMerge, SampleLoggedStatsReplayBitExactly)
{
    // The awkward samples make naive parallel-Welford combination drift
    // in the last ulp; replay merging must match sequential add()s bit
    // for bit.
    const std::vector<double> samples{0.1, 1e17, -0.1, 3.3333333333,
                                      7.0, 1e-9, 42.0, 0.2};
    RunningStat serial;
    for (double x : samples)
        serial.add(x);

    obs::Registry target;
    RunningStat &merged = target.stat("sim.metric");
    std::size_t half = samples.size() / 2;
    for (std::size_t part = 0; part < 2; ++part) {
        obs::Registry cell;
        cell.logStatSamples();
        RunningStat &s = cell.stat("sim.metric");
        for (std::size_t i = part * half;
             i < (part + 1) * half; ++i)
            s.add(samples[i]);
        target.merge(cell);
    }
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.mean(), serial.mean());     // bitwise
    EXPECT_EQ(merged.stddev(), serial.stddev()); // bitwise
    EXPECT_EQ(merged.min(), serial.min());
    EXPECT_EQ(merged.max(), serial.max());
    EXPECT_EQ(merged.sum(), serial.sum());
}

TEST(RegistryMerge, RefreshRecomputesAccountingFractions)
{
    obs::Registry reg;
    reg.counter("acct.window.useful") = 60;
    reg.counter("acct.window.squashed_spec") = 20;
    reg.counter("acct.window.idle") = 20;
    reg.counter("acct.window.pe_slot_cycles") = 100;
    reg.scalar("acct.window.waste_fraction") = -1.0; // stale
    reg.scalar("acct.window.useful_fraction") = -1.0;
    obs::refreshAccountingScalars(reg);
    EXPECT_EQ(*reg.findScalar("acct.window.waste_fraction"),
              20.0 / 80.0);
    EXPECT_EQ(*reg.findScalar("acct.window.useful_fraction"),
              60.0 / 100.0);
}

// -------------------------------------------------- runCells semantics

TEST(RunCells, SerialPathRunsInIndexOrderWithoutRunnerStats)
{
    obs::Registry::process().clear();
    std::vector<std::size_t> order;
    runner::SweepOptions serial;
    serial.jobs = 1;
    runner::runCells(5, serial, [&order](std::size_t i) {
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    // --jobs 1 is the legacy path: no runner.* bookkeeping at all.
    EXPECT_FALSE(obs::Registry::process().contains("runner.cells"));
}

TEST(RunCells, ParallelPathRunsEveryCellOnceAndPublishesRunnerStats)
{
    obs::Registry::process().clear();
    std::vector<int> hits(64, 0);
    runner::SweepOptions par;
    par.jobs = 4;
    runner::runCells(hits.size(), par, [&hits](std::size_t i) {
        ++hits[i];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    const auto *cells =
        obs::Registry::process().findCounter("runner.cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(*cells, 64u);
    const auto *wall =
        obs::Registry::process().findStat("runner.cell_wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), 64u);
    obs::Registry::process().clear();
}

TEST(RunCells, CellExceptionPropagates)
{
    runner::SweepOptions par;
    par.jobs = 4;
    EXPECT_THROW(
        runner::runCells(8, par,
                         [](std::size_t i) {
                             if (i == 3)
                                 throw std::runtime_error("cell 3");
                         }),
        std::runtime_error);
    obs::Registry::process().clear();
}

TEST(RunCellsDeathTest, NegativeJobsNamesTheValue)
{
    runner::SweepOptions bad;
    bad.jobs = -1;
    EXPECT_EXIT(runner::runCells(1, bad, [](std::size_t) {}),
                ::testing::ExitedWithCode(1),
                "--jobs must be >= 0 \\(got -1\\)");
}

// ------------------------------------------- differential determinism

/**
 * Renders every deterministic registry entry with bit-exact formatting
 * (%a hexfloats). Skips the paths that are nondeterministic by nature:
 * the runner.* wall-clock subtree, the perf.* host-throughput
 * subtree, the hot.* host-sampling subtree and *run_ms timing stats — exactly the set a manifest diff must
 * normalize away.
 */
std::string
snapshotRegistry(const obs::Registry &reg)
{
    std::string out;
    char line[512];
    for (const std::string &path : reg.paths()) {
        if (path.compare(0, 7, "runner.") == 0)
            continue;
        if (path.compare(0, 5, "perf.") == 0)
            continue;
        if (path.compare(0, 4, "hot.") == 0)
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
                counts +=
                    " " + std::to_string(h->bucketCount(i));
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

struct SweepSnapshot
{
    std::string registry;
    std::string profiles;
    std::vector<double> results;
};

/**
 * A miniature Figure-5 grid: every model x E_T in {8, 32} (Oracle
 * once) over two scale-1 workloads, with accounting and profiling on —
 * the full observability surface the runner must merge exactly.
 */
class Determinism : public ::testing::Test
{
  protected:
    struct Cell
    {
        ModelKind kind;
        int et;
    };

    static void
    SetUpTestSuite()
    {
        insts_ = new std::vector<BenchmarkInstance>;
        insts_->push_back(makeInstance(WorkloadId::Cc1, 1, 30'000));
        insts_->push_back(
            makeInstance(WorkloadId::Compress, 1, 30'000));
        cells_ = new std::vector<Cell>;
        for (ModelKind kind : allModels()) {
            if (kind == ModelKind::Oracle) {
                cells_->push_back({kind, 8});
                continue;
            }
            for (int e_t : {8, 32})
                cells_->push_back({kind, e_t});
        }
    }

    static void
    TearDownTestSuite()
    {
        delete insts_;
        delete cells_;
        insts_ = nullptr;
        cells_ = nullptr;
    }

    /** @param jobs 0 = pre-runner direct serial loop (no runCells). */
    static SweepSnapshot
    runSweep(int jobs)
    {
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        const std::size_t stride = cells_->size();
        std::vector<double> results(insts_->size() * stride, 0.0);
        const auto body = [&results, stride](std::size_t c) {
            const BenchmarkInstance &inst = (*insts_)[c / stride];
            const Cell &cell = (*cells_)[c % stride];
            TwoBitPredictor pred(inst.trace.numStatic);
            ModelRunOptions options;
            options.gatherProfile = true;
            options.profileWorkload = inst.name;
            results[c] = runModel(cell.kind, inst.trace, &inst.cfg,
                                  pred, cell.et, options)
                             .speedup;
        };
        if (jobs == 0) {
            for (std::size_t c = 0; c < results.size(); ++c)
                body(c);
        } else {
            runner::SweepOptions options;
            options.jobs = jobs;
            runner::runCells(results.size(), options, body);
        }
        SweepSnapshot snap;
        snap.registry = snapshotRegistry(obs::Registry::process());
        snap.profiles = obs::ProfileStore::process().toJson().dump();
        snap.results = std::move(results);
        obs::Registry::process().clear();
        obs::ProfileStore::process().clear();
        return snap;
    }

    static std::vector<BenchmarkInstance> *insts_;
    static std::vector<Cell> *cells_;
};

std::vector<BenchmarkInstance> *Determinism::insts_ = nullptr;
std::vector<Determinism::Cell> *Determinism::cells_ = nullptr;

TEST_F(Determinism, JobsOneMatchesPreRunnerSerialPath)
{
    const SweepSnapshot direct = runSweep(0);
    const SweepSnapshot jobs1 = runSweep(1);
    EXPECT_EQ(direct.results, jobs1.results);
    EXPECT_EQ(direct.registry, jobs1.registry);
    EXPECT_EQ(direct.profiles, jobs1.profiles);
    ASSERT_FALSE(direct.registry.empty());
    ASSERT_NE(direct.profiles, "{}");
}

TEST_F(Determinism, ParallelSweepIsBitIdenticalToSerial)
{
    const SweepSnapshot serial = runSweep(1);
    for (int jobs : {2, 4, 8}) {
        const SweepSnapshot parallel = runSweep(jobs);
        // Bitwise: results, every counter/stat/histogram, and every
        // re-derived scalar must match the serial run exactly.
        EXPECT_EQ(serial.results, parallel.results)
            << "results differ at jobs=" << jobs;
        EXPECT_EQ(serial.registry, parallel.registry)
            << "registry differs at jobs=" << jobs;
        EXPECT_EQ(serial.profiles, parallel.profiles)
            << "profiles differ at jobs=" << jobs;
    }
}

TEST_F(Determinism, ParallelSweepsAgreeAcrossThreadCounts)
{
    // Scheduling noise between two parallel runs must not leak into
    // the merged state either.
    const SweepSnapshot a = runSweep(4);
    const SweepSnapshot b = runSweep(4);
    EXPECT_EQ(a.registry, b.registry);
    EXPECT_EQ(a.profiles, b.profiles);
    EXPECT_EQ(a.results, b.results);
}

} // namespace
} // namespace dee
