#include "runner/sweep.hh"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/isolate.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"
#include "runner/thread_pool.hh"

namespace dee::runner
{

void
declareFlags(Cli &cli)
{
    cli.flag("jobs", "1",
             "worker threads for the sweep grid (0 = all hardware "
             "threads, 1 = serial, at most 1024); the merging thread "
             "runs cells too, so N > 1 keeps up to N + 1 in flight");
}

SweepOptions
fromCli(const Cli &cli)
{
    SweepOptions options;
    options.jobs = static_cast<int>(cli.integer("jobs", 0, kMaxJobs));
    return options;
}

unsigned
effectiveJobs(const SweepOptions &options)
{
    if (options.jobs < 0)
        dee_fatal("--jobs must be >= 0 (got ", options.jobs, ")");
    if (options.jobs > kMaxJobs)
        dee_fatal("--jobs must be <= ", kMaxJobs, " (got ", options.jobs,
                  ")");
    if (options.jobs == 0)
        return ThreadPool::hardwareConcurrency();
    return static_cast<unsigned>(options.jobs);
}

void
runCells(std::size_t cells, const SweepOptions &options,
         const std::function<void(std::size_t)> &run)
{
    const unsigned jobs = effectiveJobs(options);
    if (jobs == 1 || cells <= 1) {
        // Serial path: identical to the pre-runner loops, including
        // the absence of runner.* bookkeeping, so --jobs 1 output is
        // byte-for-byte what the tools always produced.
        for (std::size_t i = 0; i < cells; ++i)
            run(i);
        return;
    }

    using clock = std::chrono::steady_clock;
    const auto sweep_start = clock::now();

    std::vector<std::unique_ptr<obs::CellSink>> sinks(cells);
    std::vector<double> cell_ms(cells, 0.0);
    std::vector<std::future<void>> futures;
    futures.reserve(cells);

    ThreadPool pool(jobs);

    for (std::size_t i = 0; i < cells; ++i) {
        sinks[i] = std::make_unique<obs::CellSink>();
        futures.push_back(pool.submit([&run, &sinks, &cell_ms, i] {
            const auto cell_start = clock::now();
            obs::IsolationScope scope(*sinks[i]);
            run(i);
            cell_ms[i] = std::chrono::duration<double, std::milli>(
                             clock::now() - cell_start)
                             .count();
        }));
    }

    // Merge strictly in cell-index order on this thread; wait() helps
    // run still-pending cells instead of idling.
    obs::Registry &registry = obs::Registry::process();
    obs::Tracer &tracer = obs::Tracer::process();
    obs::ProfileStore &profiles = obs::ProfileStore::process();
    double merge_ms = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
        pool.wait(futures[i]);
        const auto merge_start = clock::now();
        {
            // Merge only — pool.wait() above may help run cells, whose
            // own sim markers must not nest under runner.merge.
            const obs::hotspot::HotspotPhase hot_merge(
                "runner", obs::hotspot::Phase::Merge);
            sinks[i]->mergeInto(registry, tracer, profiles);
            registry.stat("runner.cell_wall_ms").add(cell_ms[i]);
        }
        merge_ms += std::chrono::duration<double, std::milli>(
                        clock::now() - merge_start)
                        .count();
        sinks[i].reset();
    }

    // Per-worker execution observability: what each worker actually
    // did, how much it stole, how long it sat idle. Snapshotted while
    // the pool is still alive.
    const std::vector<WorkerStats> worker_stats = pool.workerStats();
    for (std::size_t w = 0; w < worker_stats.size(); ++w) {
        const std::string prefix =
            "runner.worker." + std::to_string(w) + ".";
        registry.counter(prefix + "tasks") += worker_stats[w].tasks;
        registry.counter(prefix + "steals") += worker_stats[w].steals;
        registry.stat(prefix + "idle_ms").add(worker_stats[w].idleMs);
    }
    registry.counter("runner.external_tasks") += pool.externalTasks();
    registry.stat("runner.merge_ms").add(merge_ms);

    registry.counter("runner.cells") += cells;
    registry.stat("runner.wall_ms")
        .add(std::chrono::duration<double, std::milli>(clock::now() -
                                                       sweep_start)
                 .count());
}

} // namespace dee::runner
