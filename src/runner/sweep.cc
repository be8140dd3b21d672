#include "runner/sweep.hh"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/accounting.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/isolate.hh"
#include "obs/perf/perf.hh"
#include "obs/profile/profile.hh"
#include "obs/registry.hh"
#include "obs/telemetry/telemetry.hh"
#include "obs/trace_event.hh"
#include "runner/thread_pool.hh"

namespace dee::runner
{

void
declareFlags(Cli &cli)
{
    cli.flag("jobs", "1",
             "worker threads for the sweep grid (0 = all hardware "
             "threads, 1 = serial)");
}

SweepOptions
fromCli(const Cli &cli)
{
    SweepOptions options;
    options.jobs = static_cast<int>(cli.integer("jobs"));
    return options;
}

unsigned
effectiveJobs(const SweepOptions &options)
{
    if (options.jobs < 0)
        dee_fatal("--jobs must be >= 0 (got ", options.jobs, ")");
    if (options.jobs == 0)
        return ThreadPool::hardwareConcurrency();
    return static_cast<unsigned>(options.jobs);
}

void
runCells(std::size_t cells, const SweepOptions &options,
         const std::function<void(std::size_t)> &run)
{
    const unsigned jobs = effectiveJobs(options);
    // Telemetry contract (obs/telemetry/telemetry.hh): the sampler
    // only reads the process registry under registryMutex(), so every
    // stretch of code that mutates it below is bracketed by that lock
    // when (and only when) the hub is live. active() is stable across
    // a sweep — the hub starts/stops in the Session ctor/dtor.
    obs::telemetry::Hub &hub = obs::telemetry::Hub::process();
    const bool live = hub.active();
    if (live)
        hub.addCells(cells);
    if (jobs == 1 || cells <= 1) {
        // Serial path: identical to the pre-runner loops, including
        // the absence of runner.* bookkeeping, so --jobs 1 output is
        // byte-for-byte what the tools always produced. Each run(i)
        // publishes straight into the process registry, hence the
        // whole call sits under the registry lock.
        for (std::size_t i = 0; i < cells; ++i) {
            {
                std::unique_lock<std::mutex> reg_lock(
                    hub.registryMutex(), std::defer_lock);
                if (live)
                    reg_lock.lock();
                run(i);
            }
            if (live)
                hub.cellDone();
        }
        return;
    }

    using clock = std::chrono::steady_clock;
    const auto sweep_start = clock::now();

    std::vector<std::unique_ptr<obs::CellSink>> sinks(cells);
    std::vector<double> cell_ms(cells, 0.0);
    std::vector<std::future<void>> futures;
    futures.reserve(cells);

    ThreadPool pool(jobs);

    // Live per-worker utilization for the telemetry sampler: between
    // consecutive ticks, util = 1 - idle/wall from the pool's
    // atomics-backed stats. Registered for the pool's lifetime only.
    std::uint64_t source_id = 0;
    if (live) {
        auto prev_time = clock::now();
        std::vector<double> prev_idle(jobs, 0.0);
        source_id = hub.addSource(
            [&pool, prev_time, prev_idle](
                std::map<std::string, double> &out) mutable {
                const auto now = clock::now();
                const double wall_ms =
                    std::chrono::duration<double, std::milli>(
                        now - prev_time)
                        .count();
                const std::vector<WorkerStats> stats =
                    pool.workerStats();
                for (std::size_t w = 0; w < stats.size(); ++w) {
                    const std::string prefix =
                        "runner.worker." + std::to_string(w) + ".";
                    const double idle_ms =
                        stats[w].idleMs - prev_idle[w];
                    if (wall_ms > 0.0) {
                        double util = 1.0 - idle_ms / wall_ms;
                        if (util < 0.0)
                            util = 0.0;
                        if (util > 1.0)
                            util = 1.0;
                        out[prefix + "util"] = util;
                    }
                    out[prefix + "tasks"] =
                        static_cast<double>(stats[w].tasks);
                    out[prefix + "steals"] =
                        static_cast<double>(stats[w].steals);
                    prev_idle[w] = stats[w].idleMs;
                }
                prev_time = now;
            });
    }

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
            std::unique_lock<std::mutex> reg_lock(hub.registryMutex(),
                                                  std::defer_lock);
            if (live)
                reg_lock.lock();
            sinks[i]->mergeInto(registry, tracer, profiles);
            registry.stat("runner.cell_wall_ms").add(cell_ms[i]);
        }
        merge_ms += std::chrono::duration<double, std::milli>(
                        clock::now() - merge_start)
                        .count();
        if (live)
            hub.cellDone();
        sinks[i].reset();
    }

    {
        std::unique_lock<std::mutex> reg_lock(hub.registryMutex(),
                                              std::defer_lock);
        if (live)
            reg_lock.lock();

        // Re-derive the publish-time scalars from the merged integers
        // so they match what a serial run would have left behind.
        obs::refreshAccountingScalars(registry);
        obs::refreshProfileScalars(registry);
        obs::perf::refreshPerfScalars(registry);

        // Per-worker execution observability: what each worker
        // actually did, how much it stole, how long it sat idle.
        // Snapshotted while the pool is still alive.
        const std::vector<WorkerStats> worker_stats =
            pool.workerStats();
        for (std::size_t w = 0; w < worker_stats.size(); ++w) {
            const std::string prefix =
                "runner.worker." + std::to_string(w) + ".";
            registry.counter(prefix + "tasks") += worker_stats[w].tasks;
            registry.counter(prefix + "steals") +=
                worker_stats[w].steals;
            registry.stat(prefix + "idle_ms")
                .add(worker_stats[w].idleMs);
        }
        registry.counter("runner.external_tasks") +=
            pool.externalTasks();
        registry.stat("runner.merge_ms").add(merge_ms);

        registry.counter("runner.cells") += cells;
        registry.scalar("runner.jobs") = static_cast<double>(jobs);
        registry.scalar("runner.wall_ms") =
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      sweep_start)
                .count();
    }

    // The worker-stats source captures the pool by reference; drop it
    // before the pool leaves scope.
    if (source_id != 0)
        hub.removeSource(source_id);
}

} // namespace dee::runner
