/**
 * @file
 * Work-stealing thread pool for the deterministic parallel runner.
 *
 * N workers each own a deque of tasks. submit() pushes to the calling
 * worker's own deque (LIFO, cache-warm) when called from inside the
 * pool, else round-robins across workers; an idle worker pops from
 * the front of its own deque and, when empty, steals from the back of
 * a sibling's. Determinism is never scheduling-dependent: the sweep
 * layer (sweep.hh) makes results a pure function of the cell, so the
 * pool is free to run cells in any order on any thread.
 *
 * Waiting discipline: a worker that blocks on a future would deadlock
 * a pool whose every thread waits on work only the pool can run, so
 * wait() *helps* — while the future is not ready, it pops and runs
 * pending tasks on the calling thread, whether that is a worker (the
 * nested-submit deadlock guard; see tests/test_runner.cc
 * NestedSubmitDoesNotDeadlock) or an outside thread, which counts them
 * in externalTasks(). A pool of N workers waited on from outside can
 * therefore run N + 1 tasks at once: runner::runCells() waits on its
 * calling thread, so `--jobs N` (N > 1) holds up to N + 1 cells in
 * memory.
 *
 * Shutdown: the destructor drains — every task submitted before
 * destruction runs to completion before the threads join, so futures
 * obtained from submit() are always eventually satisfied.
 */

#ifndef DEE_RUNNER_THREAD_POOL_HH
#define DEE_RUNNER_THREAD_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dee::runner
{

/**
 * Per-worker execution observability, snapshotted by workerStats().
 * "Steals" are tasks a worker popped from a sibling's deque (or that
 * an external helper popped from any deque); idle time is how long the
 * worker sat in its wait loop with nothing runnable.
 */
struct WorkerStats
{
    std::uint64_t tasks = 0;  ///< Tasks this worker executed.
    std::uint64_t steals = 0; ///< ... of which were stolen.
    double idleMs = 0.0;      ///< Wall ms spent parked, waiting.
};

/** Work-stealing pool; see file comment for the discipline. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardwareConcurrency(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every pending task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** std::thread::hardware_concurrency() clamped to >= 1. */
    static unsigned hardwareConcurrency();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueues @p fn and returns a future for its completion. An
     * exception thrown by @p fn is captured and rethrown from the
     * future's get() (and from wait()).
     */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Blocks until @p future is ready, running pending pool tasks on
     * the calling thread while waiting, from a worker or not (never
     * deadlocks on tasks the pool itself must run). Rethrows the
     * task's exception, if any.
     */
    void wait(std::future<void> &future);

    /**
     * Runs one pending task on the calling thread if one is
     * available. @return true when a task ran. Public so external
     * threads can also lend a hand while polling.
     */
    bool runPendingTask();

    /**
     * Per-worker counters accumulated so far (index == worker index).
     * Safe to call at any time; totals are exact once the work being
     * measured has completed (e.g. after wait() returned).
     */
    std::vector<WorkerStats> workerStats() const;

    /** Tasks run by non-worker threads helping via runPendingTask()
     *  or wait() (they have no worker slot of their own). */
    std::uint64_t externalTasks() const
    {
        return externalTasks_.load(std::memory_order_relaxed);
    }

  private:
    struct Queue
    {
        std::mutex mutex;
        std::deque<std::packaged_task<void()>> tasks;
    };

    /** Cache-line-padded per-worker tallies (hot-path increments). */
    struct WorkerTally
    {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> steals{0};
        std::atomic<std::uint64_t> idleNs{0};
        char pad[64 - 3 * sizeof(std::atomic<std::uint64_t>)];
    };

    void workerLoop(unsigned index);
    bool popTask(std::packaged_task<void()> &task);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::unique_ptr<WorkerTally>> tallies_;
    std::atomic<std::uint64_t> externalTasks_{0};
    std::vector<std::thread> workers_;

    std::mutex wakeMutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    /** Round-robin cursor for external submits. */
    std::atomic<unsigned> nextQueue_{0};
    /** Tasks submitted but not yet finished (sleep gate). */
    std::atomic<std::size_t> pending_{0};
};

} // namespace dee::runner

#endif // DEE_RUNNER_THREAD_POOL_HH
