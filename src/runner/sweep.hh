/**
 * @file
 * Deterministic parallel cell driver for grid-shaped bench sweeps.
 *
 * A sweep is a grid of independent cells (workload x model x scale, or
 * whatever shape a tool needs), each a closure over its cell index.
 * runCells() executes them either serially (--jobs 1: today's exact
 * code path, untouched observability) or, at --jobs N, on N plain
 * worker threads (fewer when the grid has fewer cells) plus the
 * calling thread. A parallel cell runs inside an obs::IsolationScope,
 * so all of its registry/tracer/profile output lands in a private
 * obs::CellSink that exists from the moment a thread claims the cell
 * until it is merged. The calling thread folds the sinks back into the
 * process-wide instances *in cell-index order*, and runs cells itself
 * while the next one to merge is still running. Because every merge
 * operation is exact (counter adds and stat sample replay, the
 * registry's only two kinds) and the merge order is the grid order,
 * the merged state is bit-identical to the serial run regardless of
 * thread count or scheduling; nothing is re-derived after the merge.
 *
 * Wall-clock observability (parallel path only, since it is
 * nondeterministic by nature), published once the sweep ends: the
 * runner.cells counter, the runner.wall_ms (one sample per sweep), and
 * the per-cell runner.cell_wall_ms and runner.merge_ms stats. The
 * worker count is the manifest's config.jobs. A sweep reports nothing
 * while it runs; progress is the tools' obs::Heartbeat line.
 */

#ifndef DEE_RUNNER_SWEEP_HH
#define DEE_RUNNER_SWEEP_HH

#include <cstddef>
#include <functional>

#include "common/cli.hh"

namespace dee::runner
{

/** Most worker threads a sweep may ask for. */
constexpr int kMaxJobs = 1024;

/** How a sweep distributes its cells. */
struct SweepOptions
{
    /** Worker threads; 1 = serial (legacy path), 0 = auto-detect. */
    int jobs = 1;
};

/** Declares --jobs on @p cli (default 1, serial). */
void declareFlags(Cli &cli);

/** Reads the flags declared by declareFlags(); a --jobs outside
 *  [0, kMaxJobs] is a fatal user error. */
SweepOptions fromCli(const Cli &cli);

/** Resolves options.jobs: 0 becomes the hardware thread count (at
 *  least 1), a value outside [0, kMaxJobs] is a fatal user error. */
unsigned effectiveJobs(const SweepOptions &options);

/**
 * Runs @p run(0) ... @p run(cells - 1), serially in index order when
 * effectiveJobs(options) == 1, else on worker threads with per-cell
 * observability isolation and deterministic in-order merging (see the
 * file comment). @p run must not touch shared mutable state other
 * than through the obs global() accessors; anything it publishes
 * there is merged for it. An exception thrown by a cell propagates to
 * the caller: the first failing cell in index order wins, and no
 * worker is left running when it does.
 */
void runCells(std::size_t cells, const SweepOptions &options,
              const std::function<void(std::size_t)> &run);

} // namespace dee::runner

#endif // DEE_RUNNER_SWEEP_HH
