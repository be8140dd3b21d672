#include "runner/sweep.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/isolate.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"

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
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(options.jobs);
}

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One cell of a parallel sweep. The thread that claims it fills
 *  everything but @c done before it sets @c done under the mutex. */
struct Cell
{
    /** Lives from claim to merge. */
    std::unique_ptr<obs::CellSink> sink;
    std::exception_ptr error;
    double ms = 0.0;
    bool done = false;
};

} // namespace

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

    const auto sweep_start = Clock::now();
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs, cells));

    // The schedule: cell i starts in list i mod workers. Worker w
    // takes the front of list w, then the backs of the lists to its
    // right; this thread takes backs scanning from list 0. Simpler
    // orders measured slower on paper_trace (DESIGN §10).
    std::vector<std::deque<std::size_t>> lists(workers);
    for (std::size_t i = 0; i < cells; ++i)
        lists[i % workers].push_back(i);
    std::vector<Cell> state(cells);
    std::mutex mutex;
    std::condition_variable finished;

    // Call with the mutex held.
    const auto claim = [&](unsigned first,
                           bool front_of_first) -> std::optional<std::size_t> {
        for (unsigned k = 0; k < workers; ++k) {
            std::deque<std::size_t> &list = lists[(first + k) % workers];
            if (list.empty())
                continue;
            std::size_t i;
            if (k == 0 && front_of_first) {
                i = list.front();
                list.pop_front();
            } else {
                i = list.back();
                list.pop_back();
            }
            return i;
        }
        return std::nullopt;
    };
    // Runs cell i, claimed under @p lock, without the mutex, then marks
    // it done under the mutex again.
    const auto runClaimed = [&](std::unique_lock<std::mutex> &lock,
                                std::size_t i) {
        Cell &cell = state[i];
        lock.unlock();
        try {
            cell.sink = std::make_unique<obs::CellSink>();
            const auto cell_start = Clock::now();
            obs::IsolationScope scope(*cell.sink);
            run(i);
            cell.ms = msSince(cell_start);
        } catch (...) {
            cell.error = std::current_exception();
        }
        lock.lock();
        cell.done = true;
        finished.notify_one();
    };

    // Declared after everything the workers touch, so that leaving
    // this function by any path joins them first.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            std::unique_lock<std::mutex> lock(mutex);
            while (const std::optional<std::size_t> i = claim(w, true))
                runClaimed(lock, *i);
        });
    }

    // Merge strictly in cell-index order on this thread, which runs
    // cells itself while the next one to merge is still running.
    obs::Registry &registry = obs::Registry::process();
    obs::Tracer &tracer = obs::Tracer::process();
    obs::ProfileStore &profiles = obs::ProfileStore::process();
    double merge_ms = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
        Cell &cell = state[i];
        {
            std::unique_lock<std::mutex> lock(mutex);
            while (!cell.done) {
                if (const std::optional<std::size_t> j = claim(0, false))
                    runClaimed(lock, *j);
                else
                    finished.wait(lock, [&cell] { return cell.done; });
            }
            if (cell.error) {
                // Claim nothing more: the workers finish the cells they
                // hold and are joined on the way out.
                for (std::deque<std::size_t> &list : lists)
                    list.clear();
                std::rethrow_exception(cell.error);
            }
        }
        const auto merge_start = Clock::now();
        {
            // Merge only: cells this thread runs above keep their own
            // sim markers out of runner.merge.
            const obs::hotspot::HotspotPhase hot_merge(
                "runner", obs::hotspot::Phase::Merge);
            cell.sink->mergeInto(registry, tracer, profiles);
            registry.stat("runner.cell_wall_ms").add(cell.ms);
        }
        merge_ms += msSince(merge_start);
        cell.sink.reset();
    }

    registry.stat("runner.merge_ms").add(merge_ms);
    registry.counter("runner.cells") += cells;
    registry.stat("runner.wall_ms").add(msSince(sweep_start));
}

} // namespace dee::runner
