/**
 * @file
 * Tests for the deterministic parallel run engine (src/runner):
 * runCells' failure and concurrency semantics, per-cell seed
 * derivation, exact observability merging, and — the load-bearing
 * property — differential determinism: a Figure-5-style model sweep
 * produces bit-identical registry, profile-store and result-vector
 * state whether it runs serially or through runner::runCells at any
 * thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
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
#include "workloads/suite.hh"

namespace dee
{
namespace
{

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

TEST(RegistryMerge, CountersAreExact)
{
    obs::Registry a;
    obs::Registry b;
    a.counter("x.count") = 3;
    b.counter("x.count") = 39;
    b.counter("x.only_b") = 7;

    a.merge(b);
    EXPECT_EQ(*a.findCounter("x.count"), 42u);
    EXPECT_EQ(*a.findCounter("x.only_b"), 7u);
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
    // Two sweeps, as a tool that builds its suite and then its grid
    // runs: every runner.* entry must cover both.
    for (int sweep = 0; sweep < 2; ++sweep) {
        runner::runCells(hits.size(), par, [&hits](std::size_t i) {
            ++hits[i];
        });
    }
    for (int h : hits)
        EXPECT_EQ(h, 2);
    const obs::Registry &reg = obs::Registry::process();
    const auto *cells = reg.findCounter("runner.cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(*cells, 128u);
    const auto *cell_wall = reg.findStat("runner.cell_wall_ms");
    ASSERT_NE(cell_wall, nullptr);
    EXPECT_EQ(cell_wall->count(), 128u);
    // One wall-clock sample per sweep, not the last sweep's alone.
    const auto *wall = reg.findStat("runner.wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count(), 2u);
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

TEST(RunCells, FirstFailingCellInIndexOrderWins)
{
    obs::Registry::process().clear();
    runner::SweepOptions par;
    par.jobs = 4;
    try {
        runner::runCells(8, par, [](std::size_t i) {
            ++obs::Registry::global().counter("test.merged");
            if (i == 3) {
                // Let cell 5 fail first in time; index order still wins.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("cell 3");
            }
            if (i == 5)
                throw std::runtime_error("cell 5");
        });
        ADD_FAILURE() << "runCells returned";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell 3");
    }
    // Cells 0-2 merged; the failing cell and everything after it did
    // not, whether or not it ran.
    const auto *merged =
        obs::Registry::process().findCounter("test.merged");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(*merged, 3u);
    obs::Registry::process().clear();
}

TEST(RunCells, JoinsEveryWorkerBeforeRethrowing)
{
    std::atomic<int> running{0};
    runner::SweepOptions par;
    par.jobs = 4;
    EXPECT_THROW(runner::runCells(32, par,
                                  [&running](std::size_t i) {
                                      ++running;
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(2));
                                      --running;
                                      if (i == 1)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(running.load(), 0);
    obs::Registry::process().clear();
}

TEST(RunCells, AtMostJobsPlusOneCellsInFlight)
{
    // Workers plus the merging thread: --jobs N never runs more than
    // N + 1 cells at once, and every cell runs exactly once, with fewer
    // cells than workers too. Only upper bounds are asserted, since
    // how many cells overlap depends on the host.
    for (int jobs : {2, 4, 8}) {
        for (std::size_t cells : {3u, 8u, 64u}) {
            std::vector<std::atomic<int>> hits(cells);
            std::atomic<int> in_flight{0};
            std::atomic<int> peak{0};
            runner::SweepOptions par;
            par.jobs = jobs;
            runner::runCells(cells, par, [&](std::size_t i) {
                const int now = ++in_flight;
                int seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                ++hits[i];
                --in_flight;
            });
            for (std::size_t i = 0; i < cells; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "cell " << i << " of " << cells << " at --jobs "
                    << jobs;
            EXPECT_LE(peak.load(), jobs + 1)
                << cells << " cells at --jobs " << jobs;
            EXPECT_LE(peak.load(), static_cast<int>(cells));
        }
    }
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

TEST(RunCellsDeathTest, TooManyJobsNamesTheValue)
{
    runner::SweepOptions bad;
    bad.jobs = runner::kMaxJobs + 1;
    EXPECT_EXIT(runner::runCells(2, bad, [](std::size_t) {}),
                ::testing::ExitedWithCode(1),
                "--jobs must be <= 1024 \\(got 1025\\)");
}

TEST(RunCellsDeathTest, JobsFlagOutsideItsRangeIsFatal)
{
    // The flag path. 2^32 + 1 narrows to 1 as an int, and 10^11 would
    // ask for 1.2 billion workers: each value is rejected while the
    // flag is read, before any worker exists.
    for (const char *value : {"4294967297", "100000000000", "-1", "1025"}) {
        Cli cli("test");
        runner::declareFlags(cli);
        const char *argv[] = {"prog", "--jobs", value};
        cli.parse(3, argv);
        EXPECT_EXIT(runner::fromCli(cli), ::testing::ExitedWithCode(1),
                    std::string("flag --jobs must be in \\[0, 1024\\], "
                                "got ") +
                        value)
            << value;
    }
    Cli cli("test");
    runner::declareFlags(cli);
    const char *argv[] = {"prog", "--jobs", "1024"};
    cli.parse(3, argv);
    EXPECT_EQ(runner::fromCli(cli).jobs, 1024);
}

// ------------------------------------------- differential determinism

/**
 * Renders every deterministic registry entry with bit-exact formatting
 * (%a hexfloats). Skips the paths that are nondeterministic by nature:
 * the runner.* wall-clock subtree, the perf.* host-throughput subtree
 * and *run_ms timing stats — exactly the set a manifest diff must
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
        // Set before any worker starts, cleared after they all join.
        const obs::ScopedProfilingRequest profiling;
        const std::size_t stride = cells_->size();
        std::vector<double> results(insts_->size() * stride, 0.0);
        const auto body = [&results, stride](std::size_t c) {
            const BenchmarkInstance &inst = (*insts_)[c / stride];
            const Cell &cell = (*cells_)[c % stride];
            TwoBitPredictor pred(inst.trace.numStatic);
            ModelRunOptions options;
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
        // Bitwise: results and every counter and stat must match the
        // serial run exactly.
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
