/**
 * @file
 * dee_perfbench: the repository's end-to-end benchmark program.
 *
 * One process runs one workload (see perfbench/README.md) as a single
 * closed-loop client: it repeats whole experiment runs — set up the
 * inputs, sweep every cell, write the run manifest — back to back until
 * --seconds have elapsed, each run starting when the previous one has
 * returned. It links libdee and times calls into each module's public
 * functions from the outside; nothing inside src/ is instrumented.
 *
 * Every run checks the simulated outputs: a cell that throws, breaks an
 * invariant, or disagrees with the pinned digest for its seed counts as
 * failed instead of aborting the run.
 *
 * The end-to-end times are medians over the repetitions, each scaled to
 * a reference host speed measured by a fixed kernel around it (see
 * endToEndMetrics), because a shared host's speed drifts far more than
 * the changes the benchmark must see.
 *
 * With --trace 1 every second run records spans around the public
 * calls (kept in memory, written to <out-dir>/spans-<workload>.jsonl at
 * exit), and the metrics are the per-layer ones; the untraced runs in
 * between give the tracing overhead. The last stdout line is one JSON
 * object.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include "analysis/absint/bounds.hh"
#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "levo/levo.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/session.hh"
#include "runner/sweep.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"
#include "workloads/workloads.hh"

#ifndef DEE_PERF_BUILD_TYPE
#define DEE_PERF_BUILD_TYPE "unknown"
#endif

namespace
{

using dee::obs::Json;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------------
// Spans

/** One timed public call. Spans of one cell share `cell`. */
struct Span
{
    std::string name;  ///< the public call, e.g. "runModel"
    std::string layer; ///< the module it belongs to, e.g. "sim"
    std::int64_t cell = -1;
    int depth = 1;     ///< 1 = phase call, 2 = cell inside a runner span
    int iteration = 0;
    std::size_t thread = 0;
    double startMs = 0.0; ///< since the process origin
    double endMs = 0.0;
};

/** In-memory span store; written out once, when the benchmark ends. */
class SpanLog
{
  public:
    double now() const { return msBetween(origin_, Clock::now()); }

    void
    add(Span span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call; records nothing when @p log is null. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const char *name, const char *layer, int depth,
           int iteration, std::int64_t cell = -1)
        : log_(log)
    {
        if (log_ == nullptr)
            return;
        span_.name = name;
        span_.layer = layer;
        span_.depth = depth;
        span_.iteration = iteration;
        span_.cell = cell;
        span_.thread =
            std::hash<std::thread::id>()(std::this_thread::get_id());
        span_.startMs = log_->now();
    }

    ~Scoped()
    {
        if (log_ == nullptr)
            return;
        span_.endMs = log_->now();
        log_->add(std::move(span_));
    }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log_;
    Span span_;
};

/** The layers a traced run attributes wall time to (module names). */
const std::vector<std::string> kLayers{
    "workloads", "cfg", "exec", "trace", "bpred", "sim",
    "absint",    "runner", "levo", "obs"};

/**
 * Splits [begin, end] among the layers of @p spans: each instant goes
 * to the deepest spans open at that instant, shared equally when
 * several run in parallel; instants no span covers are unattributed.
 * The shares therefore add up to end - begin exactly.
 */
std::map<std::string, double>
selfTimes(const std::vector<const Span *> &spans, double begin, double end)
{
    std::vector<double> cuts{begin, end};
    for (const Span *s : spans) {
        cuts.push_back(std::clamp(s->startMs, begin, end));
        cuts.push_back(std::clamp(s->endMs, begin, end));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::map<std::string, double> self;
    for (const std::string &layer : kLayers)
        self[layer] = 0.0;
    self["unattributed"] = 0.0;
    std::vector<const Span *> open;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const double a = cuts[i];
        const double b = cuts[i + 1];
        int deepest = 0;
        open.clear();
        for (const Span *s : spans) {
            if (s->startMs > a || s->endMs < b)
                continue;
            if (s->depth > deepest) {
                deepest = s->depth;
                open.clear();
            }
            if (s->depth == deepest)
                open.push_back(s);
        }
        if (open.empty()) {
            self["unattributed"] += b - a;
            continue;
        }
        const double share = (b - a) / static_cast<double>(open.size());
        for (const Span *s : open)
            self[s->layer] += share;
    }
    return self;
}

// ------------------------------------------------------------------
// Process memory

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    if (!(statm >> size >> resident))
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** VmHWM, the resident high-water mark since the last resetHwm(). */
double
hwmMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return currentRssMb();
}

/** Resets VmHWM to the current RSS (Linux clear_refs "5"); if the
 *  kernel refuses, hwmMb() keeps reporting the process peak. */
void
resetHwm()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------
// Workloads

enum class Kind
{
    Grid, ///< trace-driven model cells (core/sim)
    Levo, ///< execution-driven LevoMachine runs
};

/** One trace-driven cell per instance: model at resource level E_T. */
struct GridCell
{
    dee::ModelKind kind;
    int et;
};

struct LevoPoint
{
    const char *name;
    dee::LevoConfig config;
};

struct Spec
{
    std::string name;
    Kind kind = Kind::Grid;
    int scale = 1;
    std::uint64_t maxInstrs = 50'000'000;
    int jobs = 1;
    std::vector<GridCell> cells; ///< per instance (Grid)
    std::vector<LevoPoint> levo; ///< per program (Levo)
};

/** The Figure-5 grid: 7 models x E_T {8..256}, plus one Oracle. */
std::vector<GridCell>
figure5Cells()
{
    std::vector<GridCell> cells;
    for (dee::ModelKind kind : dee::constrainedModels()) {
        for (int e_t : {8, 16, 32, 64, 128, 256})
            cells.push_back({kind, e_t});
    }
    cells.push_back({dee::ModelKind::Oracle, 0});
    return cells;
}

/** The Section-5.3 headline cells at the Levo design point. */
std::vector<GridCell>
headlineCells()
{
    return {{dee::ModelKind::DEE_CD_MF, 100},
            {dee::ModelKind::SP, 100},
            {dee::ModelKind::EE, 100},
            {dee::ModelKind::Oracle, 0}};
}

/** The paper's 32x8 Levo with 0, 3 one-column and 11 two-column DEE
 *  paths (levo_config's first three design points). */
std::vector<LevoPoint>
levoPoints()
{
    dee::LevoConfig none;
    none.deePaths = 0;
    dee::LevoConfig three;
    three.deePaths = 3;
    three.deeColumns = 1;
    dee::LevoConfig eleven;
    eleven.deePaths = 11;
    eleven.deeColumns = 2;
    return {{"levo32x8-dee0", none},
            {"levo32x8-dee3x1", three},
            {"levo32x8-dee11x2", eleven}};
}

/** The workload named @p name; @p smoke shrinks it to a seconds-long
 *  run of the same code paths. Returns false for unknown names. */
bool
specFor(const std::string &name, bool smoke, Spec *spec)
{
    spec->name = name;
    if (name == "fig5_grid") {
        spec->scale = 4;
        spec->cells = figure5Cells();
    } else if (name == "paper_trace") {
        spec->scale = 32;
        spec->jobs = 2;
        spec->cells = headlineCells();
    } else if (name == "levo_sweep") {
        spec->kind = Kind::Levo;
        spec->scale = 8;
        spec->maxInstrs = 10'000'000;
        spec->levo = levoPoints();
    } else {
        return false;
    }
    if (smoke) {
        spec->scale = 1;
        spec->maxInstrs = 20'000;
    }
    return true;
}

// ------------------------------------------------------------------
// Results

struct CellOutcome
{
    std::string workload; ///< the program, e.g. "xlisp"
    std::string model;    ///< e.g. "DEE-CD-MF" or a Levo design point
    int et = 0;
    bool oracle = false;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t mispredicted = 0;
    double speedup = 0.0; ///< instructions / cycles
    std::uint64_t refills = 0;    ///< Levo only
    std::uint64_t deeCovered = 0; ///< Levo only
    std::uint64_t loopsCaptured = 0; ///< Levo only
    std::uint64_t loopsBackward = 0; ///< Levo only
    double ms = 0.0;
    bool failed = false;
    std::string why;

    void
    fail(const std::string &reason)
    {
        if (!failed)
            why = reason;
        failed = true;
    }

    std::string
    label() const
    {
        return workload + "/" + model +
               (oracle || et == 0 ? "" : "@" + std::to_string(et));
    }
};

/** Per-instance facts only a traced run probes. */
struct TraceProbe
{
    std::uint64_t instructions = 0;
    std::uint64_t bytes = 0; ///< capacity x sizeof(TraceRecord)
    double segmentMs = 0.0;
    double charAccMs = 0.0;
    double accuracy = 0.0;
};

struct Iteration
{
    bool traced = false;
    int index = 0;
    double startMs = 0.0; ///< on the SpanLog clock (traced runs)
    double endMs = 0.0;
    double wallMs = 0.0;
    double setupMs = 0.0;
    double sweepMs = 0.0;
    double manifestMs = 0.0;
    std::uint64_t manifestBytes = 0;
    double rssAfterSetupMb = 0.0;
    double rssSweepPeakMb = 0.0;
    double peakRssMb = 0.0; ///< high-water mark over the whole run
    /** Reference-kernel slice time around this run (see hostSlowdown). */
    double refSliceMs = 0.0;
    std::vector<CellOutcome> cells;
    std::vector<TraceProbe> probes;
};

std::uint64_t
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/** The run manifest, written through obs::Session as the bench tools'
 *  --json does. */
dee::obs::SessionOptions
manifestOptions(const std::string &path)
{
    dee::obs::SessionOptions options;
    options.jsonPath = path;
    return options;
}

Json
cellsJson(const std::vector<CellOutcome> &cells)
{
    Json out = Json::object();
    for (const CellOutcome &c : cells)
        out[c.label()] = Json(c.speedup);
    return out;
}

// ------------------------------------------------------------------
// Trace-driven iteration (fig5_grid, paper_trace)

/**
 * makeInstance(), called piecewise so a traced run can span each
 * module: makeWorkload (workloads), Cfg (cfg), Interpreter::run (exec).
 */
dee::BenchmarkInstance
buildInstance(dee::WorkloadId id, const Spec &spec, std::uint64_t seed,
              SpanLog *log, int it, std::int64_t cell)
{
    if (log == nullptr)
        return dee::makeInstance(id, spec.scale, spec.maxInstrs, seed);

    dee::Program program = [&] {
        Scoped s(log, "makeWorkload", "workloads", 1, it, cell);
        dee::Program p = dee::makeWorkload(id, spec.scale, seed);
        if (p.numInstrs() > 0)
            (void)p.staticId(0, 0);
        return p;
    }();
    dee::Cfg cfg = [&] {
        Scoped s(log, "Cfg", "cfg", 1, it, cell);
        return dee::Cfg(program);
    }();
    dee::ExecResult run = [&] {
        Scoped s(log, "Interpreter::run", "exec", 1, it, cell);
        return dee::Interpreter(program).run(spec.maxInstrs, true);
    }();
    return dee::BenchmarkInstance{id, dee::workloadName(id),
                                  std::move(program), std::move(cfg),
                                  std::move(run.trace)};
}

/** Traced-only probes of the per-trace work runModel redoes per cell. */
void
probeTrace(const dee::BenchmarkInstance &inst, SpanLog *log, int it,
           std::int64_t cell, TraceProbe *probe)
{
    probe->instructions = inst.trace.size();
    probe->bytes = inst.trace.records.capacity() * sizeof(dee::TraceRecord);
    {
        const Clock::time_point t0 = Clock::now();
        Scoped s(log, "segmentPaths", "trace", 1, it, cell);
        const std::vector<dee::BranchPath> paths =
            dee::segmentPaths(inst.trace);
        probe->segmentMs = msBetween(t0, Clock::now());
    }
    {
        const Clock::time_point t0 = Clock::now();
        Scoped s(log, "characteristicAccuracy", "bpred", 1, it, cell);
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        probe->accuracy = dee::characteristicAccuracy(inst.trace, pred);
        probe->charAccMs = msBetween(t0, Clock::now());
    }
}

/**
 * One whole experiment run, as a tool process makes it: open the run's
 * obs::Session, call @p setup, sweep @p cells cells through
 * runner::runCells on @p jobs workers (@p cell fills one outcome and
 * may throw), then write the manifest. Every phase is timed; spans are
 * recorded when @p log is set.
 */
template <typename Setup, typename Cell>
Iteration
runOnce(int jobs, std::size_t cells, SpanLog *log, int it,
        const std::string &manifestPath, Setup &&setup, Cell &&cell)
{
    Iteration out;
    out.index = it;
    out.traced = log != nullptr;

    dee::obs::Registry::process().clear();
    resetHwm();
    if (log != nullptr)
        out.startMs = log->now();
    const Clock::time_point t0 = Clock::now();
    auto session = std::make_unique<dee::obs::Session>(
        "dee_perfbench", manifestOptions(manifestPath));
    const Clock::time_point t_setup = Clock::now();
    setup(out);
    const Clock::time_point t1 = Clock::now();
    out.setupMs = msBetween(t_setup, t1);
    out.rssAfterSetupMb = currentRssMb();
    out.peakRssMb = hwmMb();
    resetHwm();

    out.cells.resize(cells);
    {
        Scoped s(log, "runCells(sweep)", "runner", 1, it);
        dee::runner::runCells(cells, dee::runner::SweepOptions{jobs},
                              [&](std::size_t c) {
            CellOutcome &o = out.cells[c];
            const Clock::time_point c0 = Clock::now();
            try {
                cell(c, static_cast<std::int64_t>(it) * 100000 +
                            static_cast<std::int64_t>(c),
                     o);
            } catch (const std::exception &e) {
                o.fail(std::string("threw: ") + e.what());
            }
            o.ms = msBetween(c0, Clock::now());
        });
    }
    const Clock::time_point t2 = Clock::now();
    out.sweepMs = msBetween(t1, t2);
    out.rssSweepPeakMb = hwmMb();
    out.peakRssMb = std::max(out.peakRssMb, out.rssSweepPeakMb);

    {
        Scoped s(log, "Session::~Session", "obs", 1, it);
        session->manifest().results()["cells"] = cellsJson(out.cells);
        session.reset();
    }
    const Clock::time_point t3 = Clock::now();
    out.manifestMs = msBetween(t2, t3);
    out.wallMs = msBetween(t0, t3);
    if (log != nullptr)
        out.endMs = log->now();
    out.manifestBytes = fileBytes(manifestPath);
    return out;
}

Iteration
runGrid(const Spec &spec, std::uint64_t seed, SpanLog *log, int it,
        const std::string &manifestPath)
{
    const std::vector<dee::WorkloadId> ids = dee::allWorkloads();
    const std::size_t stride = spec.cells.size();
    std::vector<dee::BenchmarkInstance> suite;

    // Setup: every instance (generate + CFG + trace), one at a time as
    // makeSuite() does, then the static bounds the grid tools publish.
    auto setup = [&](Iteration &out) {
        out.probes.resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const std::int64_t cell = -1 - static_cast<std::int64_t>(i);
            suite.push_back(
                buildInstance(ids[i], spec, seed, log, it, cell));
            if (log != nullptr)
                probeTrace(suite.back(), log, it, cell, &out.probes[i]);
        }
        Scoped s(log, "publishStaticBounds", "absint", 1, it);
        dee::analysis::absint::publishStaticBounds(ids, spec.scale, seed);
    };

    // One runModel call per cell.
    auto cell = [&](std::size_t c, std::int64_t id, CellOutcome &o) {
        const dee::BenchmarkInstance &inst = suite[c / stride];
        const GridCell &point = spec.cells[c % stride];
        o.workload = inst.name;
        o.model = dee::modelName(point.kind);
        o.oracle = point.kind == dee::ModelKind::Oracle;
        o.et = o.oracle ? 0 : point.et;
        Scoped span(log, o.oracle ? "runModel(Oracle)" : "runModel", "sim",
                    2, it, id);
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        dee::ModelRunOptions options;
        options.profileWorkload = inst.name;
        const dee::SimResult r = dee::runModel(point.kind, inst.trace,
                                               &inst.cfg, pred, point.et,
                                               options);
        o.instructions = r.instructions;
        o.cycles = r.cycles;
        o.mispredicted = r.mispredicted;
        o.speedup = r.speedup;
        if (r.instructions != inst.trace.size())
            o.fail("instructions != trace size");
        if (!r.account.valid())
            o.fail("cycle account not valid");
    };

    return runOnce(spec.jobs, ids.size() * stride, log, it, manifestPath,
                   setup, cell);
}

// ------------------------------------------------------------------
// Execution-driven iteration (levo_sweep)

/** The sequential interpreter's outcome per program: Levo's oracle. */
struct LevoReference
{
    std::vector<dee::ExecResult> runs;
};

LevoReference
levoReference(const Spec &spec, std::uint64_t seed)
{
    LevoReference ref;
    for (dee::WorkloadId id : dee::allWorkloads()) {
        dee::Interpreter interp(dee::makeWorkload(id, spec.scale, seed));
        ref.runs.push_back(interp.run(spec.maxInstrs, false));
    }
    return ref;
}

bool
sameState(const dee::MachineState &a, const dee::MachineState &b)
{
    if (a.regs != b.regs || a.memory.size() != b.memory.size())
        return false;
    for (const auto &[addr, value] : b.memory) {
        if (a.readMem(addr) != value)
            return false;
    }
    return true;
}

Iteration
runLevo(const Spec &spec, std::uint64_t seed, const LevoReference &ref,
        SpanLog *log, int it, const std::string &manifestPath)
{
    const std::vector<dee::WorkloadId> ids = dee::allWorkloads();
    const std::size_t points = spec.levo.size();
    std::vector<dee::Program> programs;
    std::vector<dee::Cfg> cfgs;

    // Setup: program generation plus Cfg; no trace is written.
    auto setup = [&](Iteration &) {
        for (dee::WorkloadId id : ids) {
            {
                Scoped s(log, "makeWorkload", "workloads", 1, it);
                programs.push_back(dee::makeWorkload(id, spec.scale, seed));
            }
            Scoped s(log, "Cfg", "cfg", 1, it);
            cfgs.emplace_back(programs.back());
        }
    };

    // One LevoMachine run per (program, design point), checked against
    // the sequential interpreter.
    auto cell = [&](std::size_t c, std::int64_t id, CellOutcome &o) {
        const std::size_t w = c / points;
        const LevoPoint &point = spec.levo[c % points];
        o.workload = dee::workloadName(ids[w]);
        o.model = point.name;
        Scoped span(log, "LevoMachine::run", "levo", 2, it, id);
        const dee::LevoMachine machine(programs[w], cfgs[w], point.config);
        const dee::LevoResult r = machine.run(spec.maxInstrs);
        o.instructions = r.instructions;
        o.cycles = r.cycles;
        o.mispredicted = r.mispredicted;
        o.speedup = r.ipc;
        o.refills = r.refills;
        o.deeCovered = r.deeCovered;
        o.loopsCaptured = r.capturedLoopBranches;
        o.loopsBackward = r.backwardTakenBranches;
        const dee::ExecResult &golden = ref.runs[w];
        if (r.halted != golden.halted)
            o.fail("halted differs from the interpreter");
        if (r.instructions != golden.steps)
            o.fail("instructions != interpreter steps");
        if (!sameState(r.finalState, golden.state))
            o.fail("final state differs from the interpreter");
        if (!r.account.valid())
            o.fail("cycle account not valid");
    };

    return runOnce(spec.jobs, ids.size() * points, log, it, manifestPath,
                   setup, cell);
}

// ------------------------------------------------------------------
// Output checks

int
treeRank(dee::ModelKind kind)
{
    return dee::usesDeeTree(kind) ? 1 : 0;
}

int
cdRank(dee::ModelKind kind)
{
    return static_cast<int>(dee::cdModelOf(kind));
}

/**
 * The dominance invariants tests/test_runner_properties.cc proves, at
 * equal E_T on one instance: Oracle >= every model, and model A >= B
 * whenever A's tree (DEE over SP) and its control-dependency regime
 * (CD-MF over CD over base) are both at least B's. The cell that should
 * have been higher is marked failed.
 */
void
checkDominance(const Spec &spec, std::vector<CellOutcome> &cells)
{
    const std::size_t stride = spec.cells.size();
    constexpr double kTolerance = 0.999;
    for (std::size_t base = 0; base < cells.size(); base += stride) {
        for (std::size_t a = 0; a < stride; ++a) {
            for (std::size_t b = 0; b < stride; ++b) {
                const GridCell &ca = spec.cells[a];
                const GridCell &cb = spec.cells[b];
                if (a == b || cb.kind == dee::ModelKind::Oracle)
                    continue;
                bool dominates = false;
                if (ca.kind == dee::ModelKind::Oracle) {
                    dominates = true;
                } else if (ca.et == cb.et &&
                           ca.kind != dee::ModelKind::EE &&
                           cb.kind != dee::ModelKind::EE) {
                    dominates = treeRank(ca.kind) >= treeRank(cb.kind) &&
                                cdRank(ca.kind) >= cdRank(cb.kind);
                }
                CellOutcome &hi = cells[base + a];
                const CellOutcome &lo = cells[base + b];
                if (dominates && hi.speedup < lo.speedup * kTolerance)
                    hi.fail("dominance: below " + lo.label());
            }
        }
    }
}

/** The pinned (instructions, cycles, mispredicted) per cell for one
 *  (workload, scale, instruction cap, seed), if any. */
struct Digest
{
    bool pinned = false;
    std::vector<std::vector<std::uint64_t>> cells;
};

/** The JSON object in @p path; an empty object if it is missing or
 *  not an object. */
Json
readJsonObject(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Json root;
    if (!in || !Json::parse(text.str(), &root) || !root.isObject())
        return Json::object();
    return root;
}

Digest
loadDigest(const std::string &path, const Spec &spec, std::uint64_t seed)
{
    Digest digest;
    const Json root = readJsonObject(path);
    const Json *entry = root.find(spec.name);
    if (entry == nullptr)
        return digest;
    const Json *scale = entry->find("scale");
    const Json *cap = entry->find("max_instrs");
    const Json *seeds = entry->find("seeds");
    if (scale == nullptr || cap == nullptr || seeds == nullptr ||
        scale->asInt() != spec.scale ||
        static_cast<std::uint64_t>(cap->asInt()) != spec.maxInstrs)
        return digest;
    const Json *cells = seeds->find(std::to_string(seed));
    if (cells == nullptr)
        return digest;
    digest.pinned = true;
    for (const Json &row : cells->items()) {
        std::vector<std::uint64_t> v;
        for (std::size_t i = 1; i < row.items().size(); ++i)
            v.push_back(static_cast<std::uint64_t>(row.items()[i].asInt()));
        digest.cells.push_back(std::move(v));
    }
    return digest;
}

void
checkDigest(const Digest &digest, std::vector<CellOutcome> &cells)
{
    if (!digest.pinned)
        return;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        CellOutcome &c = cells[i];
        const std::vector<std::uint64_t> got{c.instructions, c.cycles,
                                             c.mispredicted};
        if (i >= digest.cells.size() || digest.cells[i] != got)
            c.fail("differs from the pinned digest");
    }
}

/** Adds this run's cells as the digest for its seed in @p path. */
void
writeDigest(const std::string &path, const Spec &spec, std::uint64_t seed,
            const std::vector<CellOutcome> &cells)
{
    Json root = readJsonObject(path);
    Json &entry = root[spec.name];
    const Json *old_scale = entry.isObject() ? entry.find("scale") : nullptr;
    if (old_scale == nullptr || old_scale->asInt() != spec.scale) {
        entry = Json::object();
        entry["seeds"] = Json::object();
    }
    entry["scale"] = Json(spec.scale);
    entry["max_instrs"] = Json(spec.maxInstrs);
    Json rows = Json::array();
    for (const CellOutcome &c : cells) {
        Json row = Json::array();
        row.push(Json(c.label()));
        row.push(Json(c.instructions));
        row.push(Json(c.cycles));
        row.push(Json(c.mispredicted));
        rows.push(std::move(row));
    }
    entry["seeds"][std::to_string(seed)] = std::move(rows);

    // One cell per line, so a changed digest reads as a small diff.
    std::ofstream out(path, std::ios::trunc);
    const char *sep = "{\n";
    for (const auto &[name, workload] : root.members()) {
        out << sep << " " << Json(name).dump() << ": {\"scale\": "
            << workload.find("scale")->dump() << ", \"max_instrs\": "
            << workload.find("max_instrs")->dump() << ", \"seeds\": {";
        const char *seed_sep = "\n";
        for (const auto &[key, rows_json] : workload.find("seeds")->members()) {
            out << seed_sep << "  " << Json(key).dump() << ": [";
            const char *row_sep = "\n";
            for (const Json &row : rows_json.items()) {
                out << row_sep << "   " << row.dump();
                row_sep = ",\n";
            }
            out << "]";
            seed_sep = ",\n";
        }
        out << "}}";
        sep = ",\n";
    }
    out << "\n}\n";
}

// ------------------------------------------------------------------
// Metrics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class Metrics
{
  public:
    void
    put(const std::string &name, double value, const char *unit)
    {
        Json m = Json::object();
        m["value"] = Json(value);
        m["unit"] = Json(unit);
        json_[name] = std::move(m);
    }

    const Json &json() const { return json_; }

  private:
    Json json_ = Json::object();
};

double
harmonicOf(const std::vector<CellOutcome> &cells, const std::string &model,
           int et)
{
    std::vector<double> v;
    for (const CellOutcome &c : cells) {
        if (c.model == model && c.et == et)
            v.push_back(c.speedup);
    }
    return v.empty() ? 0.0 : dee::harmonicMean(v);
}

/** Dynamic backward-taken branches whose loop fits the IQ, over the
 *  suite, from the Levo cells of one design point. */
double
loopCapture(const std::vector<CellOutcome> &cells, const std::string &model)
{
    std::uint64_t captured = 0;
    std::uint64_t backward = 0;
    for (const CellOutcome &c : cells) {
        if (c.model == model) {
            captured += c.loopsCaptured;
            backward += c.loopsBackward;
        }
    }
    return backward == 0 ? 0.0
                         : static_cast<double>(captured) /
                               static_cast<double>(backward);
}

double
gapPct(const std::vector<std::pair<double, double>> &measured_vs_paper)
{
    double sum = 0.0;
    for (const auto &[measured, paper] : measured_vs_paper)
        sum += std::fabs(measured - paper) / paper;
    return 100.0 * sum / static_cast<double>(measured_vs_paper.size());
}

/**
 * Mean absolute % error against the paper's values that this
 * workload's cells can compute (harmonic means over the suite):
 *  - paper_trace: the Section 5.3 claims DEE-CD-MF@100 = 31.9x,
 *    /SP@100 = 5.8, /EE@100 = 4.0 and /Oracle = 59%;
 *  - fig5_grid: DEE-CD-MF@32 = 26x, DEE-CD-MF@8 / EE@256 = 1.0 and the
 *    Figure 5 harmonic-mean Oracle, 53.82;
 *  - levo_sweep: ">70%" of dynamic loops fit the 32-row IQ.
 */
double
paperGapPct(const Spec &spec, const std::vector<CellOutcome> &cells)
{
    if (spec.kind == Kind::Levo)
        return gapPct(
            {{100.0 * loopCapture(cells, spec.levo.front().name), 70.0}});
    const double oracle = harmonicOf(cells, "Oracle", 0);
    if (spec.name == "paper_trace") {
        const double dee100 = harmonicOf(cells, "DEE-CD-MF", 100);
        return gapPct({{dee100, 31.9},
                       {dee100 / harmonicOf(cells, "SP", 100), 5.8},
                       {dee100 / harmonicOf(cells, "EE", 100), 4.0},
                       {100.0 * dee100 / oracle, 59.0}});
    }
    return gapPct({{harmonicOf(cells, "DEE-CD-MF", 32), 26.0},
                   {harmonicOf(cells, "DEE-CD-MF", 8) /
                        harmonicOf(cells, "EE", 256),
                    1.0},
                   {oracle, 53.82}});
}

// ------------------------------------------------------------------
// Host speed

/** The reference slice's time on this host when no neighbour slows it
 *  (Xeon Sapphire Rapids KVM guest, GCC 12, RelWithDebInfo). */
constexpr double kRefSliceMs = 0.4;

/**
 * One slice of a fixed reference kernel that shares no code with
 * libdee: a dataflow-timing loop in the style of the window simulator
 * (register ready times, a 2-bit predictor, a 64-deep window) over a
 * 256K-record synthetic trace, larger than L2 as the real traces are.
 * Other tenants of a shared host slow it much as they slow the
 * simulators, so its time measures the host's speed at that moment.
 */
double
referenceSliceMs()
{
    struct Rec
    {
        std::uint8_t rd, rs1, rs2;
        bool branch, taken;
        std::uint16_t sid;
    };
    constexpr std::size_t kRecords = std::size_t{1} << 18;
    static const std::vector<Rec> trace = [] {
        std::vector<Rec> t(kRecords);
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (Rec &r : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            r = {static_cast<std::uint8_t>(x & 31),
                 static_cast<std::uint8_t>((x >> 5) & 31),
                 static_cast<std::uint8_t>((x >> 10) & 31),
                 (x >> 15) % 5 == 0, ((x >> 20) & 7) != 0,
                 static_cast<std::uint16_t>((x >> 24) & 4095)};
        }
        return t;
    }();
    static std::vector<std::uint64_t> done(kRecords);
    static std::vector<std::uint8_t> counters(4096);
    static std::size_t cursor = 0;

    const Clock::time_point t0 = Clock::now();
    std::uint64_t ready[32] = {};
    std::uint64_t root = 0;
    for (int k = 0; k < 100000; ++k) {
        const std::size_t i = cursor++ & (kRecords - 1);
        const Rec &r = trace[i];
        const std::uint64_t t =
            std::max({ready[r.rs1], ready[r.rs2], root}) + 1;
        ready[r.rd] = t;
        done[i] = t;
        if (r.branch) {
            std::uint8_t &c = counters[r.sid];
            if ((c >= 2) != r.taken)
                root = t;
            c = r.taken ? std::min<std::uint8_t>(c + 1, 3)
                        : static_cast<std::uint8_t>(c > 0 ? c - 1 : 0);
            root = std::max(root, done[(i - 64) & (kRecords - 1)] & 0xffff);
        }
    }
    return msBetween(t0, Clock::now());
}

/** Median time of @p slices reference slices. */
double
sampleHostSpeed(int slices)
{
    std::vector<double> ms;
    for (int i = 0; i < slices; ++i)
        ms.push_back(referenceSliceMs());
    return median(ms);
}

/**
 * The end-to-end metrics of the untraced runs. Other tenants of a
 * shared host slow it by 10-50% in spells of seconds to minutes, far
 * more than the changes the benchmark must see. Each time is therefore
 * scaled to the reference host speed, by kRefSliceMs over the
 * reference slice time measured around the same run, and the metric is
 * the median over the repetitions; a cell's time is its median over the
 * repetitions. The unscaled medians are kept in @p detail.
 */
void
endToEndMetrics(const std::vector<Iteration> &its, double paper_gap,
                double pass_share, Metrics *m, Json *detail)
{
    std::vector<const Iteration *> runs;
    for (const Iteration &it : its) {
        if (!it.traced)
            runs.push_back(&it);
    }
    auto scale = [](const Iteration *it) {
        return kRefSliceMs / it->refSliceMs;
    };
    std::vector<double> wall, raw_wall, setup, mips, peak, ref;
    for (const Iteration *it : runs) {
        wall.push_back(it->wallMs * scale(it) / 1000.0);
        raw_wall.push_back(it->wallMs / 1000.0);
        setup.push_back(it->setupMs * scale(it) / 1000.0);
        peak.push_back(it->peakRssMb);
        ref.push_back(it->refSliceMs);
        std::uint64_t instrs = 0;
        for (const CellOutcome &c : it->cells)
            instrs += c.instructions;
        mips.push_back(static_cast<double>(instrs) /
                       (it->sweepMs * scale(it) * 1000.0));
    }
    std::vector<double> cell_ms;
    for (std::size_t c = 0; c < runs.front()->cells.size(); ++c) {
        std::vector<double> v;
        for (const Iteration *it : runs)
            v.push_back(it->cells[c].ms * scale(it));
        cell_ms.push_back(median(v));
    }
    m->put("wall_s", median(wall), "s");
    m->put("setup_s", median(setup), "s");
    m->put("sim_mips", median(mips), "Minstr/s");
    m->put("cell_ms_p50", median(cell_ms), "ms");
    m->put("cell_ms_p95", percentile(cell_ms, 0.95), "ms");
    m->put("peak_rss_mb", median(peak), "MB");
    m->put("pass_share", pass_share, "share");
    m->put("paper_gap_pct", paper_gap, "%");
    (*detail)["repetitions"] = Json(runs.size());
    (*detail)["cell_samples"] = Json(cell_ms.size());
    (*detail)["unscaled_wall_median_s"] = Json(median(raw_wall));
    (*detail)["ref_slice_median_ms"] = Json(median(ref));
    (*detail)["process_peak_rss_mb"] = Json(peakRssMb());
}

void
perLayerMetrics(const Spec &spec, const std::vector<Iteration> &its,
                const SpanLog &log, double fail_share, Metrics *m,
                Json *detail)
{
    std::vector<const Iteration *> traced;
    std::vector<double> untraced_wall, traced_wall;
    for (const Iteration &it : its) {
        if (it.traced) {
            traced.push_back(&it);
            traced_wall.push_back(it.wallMs);
        } else {
            untraced_wall.push_back(it.wallMs);
        }
    }
    const double n = static_cast<double>(traced.size());

    // Wall partition per traced iteration, averaged.
    std::map<std::string, double> self;
    double wall_total = 0.0;
    for (const Iteration *it : traced) {
        std::vector<const Span *> spans;
        for (const Span &s : log.spans()) {
            if (s.iteration == it->index)
                spans.push_back(&s);
        }
        for (const auto &[layer, ms] : selfTimes(spans, it->startMs, it->endMs))
            self[layer] += ms / n;
        wall_total += (it->endMs - it->startMs) / n;
    }

    // Span sums per traced iteration, averaged.
    auto per_iteration = [&](const char *name) {
        double total = 0.0;
        for (const Span &s : log.spans()) {
            if (s.name == name)
                total += s.endMs - s.startMs;
        }
        return total / n;
    };

    // Counts and cell times per traced iteration, averaged.
    std::size_t window_cells = 0;
    for (const GridCell &c : spec.cells)
        window_cells += c.kind == dee::ModelKind::Oracle ? 0 : 1;
    double segment_ms = 0.0, char_acc_ms = 0.0, accuracy = 0.0;
    double instrs = 0.0, bytes = 0.0, sim_cells = 0.0;
    double window_ms = 0.0, window_instrs = 0.0;
    double levo_ms = 0.0, levo_instrs = 0.0, refills = 0.0;
    std::uint64_t covered = 0, mispred = 0;
    std::map<std::string, std::vector<double>> model_ms;
    std::vector<double> busy, after_setup, growth, manifest_ms, manifest_b;
    for (const Iteration *it : traced) {
        for (const TraceProbe &p : it->probes) {
            segment_ms += p.segmentMs / n;
            char_acc_ms += p.charAccMs / n;
            accuracy += p.accuracy /
                        (n * static_cast<double>(it->probes.size()));
            instrs += static_cast<double>(p.instructions) / n;
            bytes += static_cast<double>(p.bytes) / n;
        }
        double cells_ms = 0.0;
        for (const CellOutcome &c : it->cells) {
            cells_ms += c.ms;
            if (spec.kind == Kind::Levo) {
                levo_ms += c.ms / n;
                levo_instrs += static_cast<double>(c.instructions) / n;
                refills += static_cast<double>(c.refills) / n;
                covered += c.deeCovered;
                mispred += c.mispredicted;
                continue;
            }
            sim_cells += 1.0 / n;
            model_ms[c.oracle ? "Oracle" : c.model].push_back(c.ms);
            if (!c.oracle) {
                window_ms += c.ms / n;
                window_instrs += static_cast<double>(c.instructions) / n;
            }
        }
        busy.push_back(cells_ms / (spec.jobs * it->sweepMs));
        after_setup.push_back(it->rssAfterSetupMb);
        growth.push_back(it->rssSweepPeakMb - it->rssAfterSetupMb);
        manifest_ms.push_back(it->manifestMs);
        manifest_b.push_back(static_cast<double>(it->manifestBytes));
    }
    const double interp_ms = per_iteration("Interpreter::run");
    auto mips = [](double instructions, double ms) {
        return ms > 0.0 ? instructions / (ms * 1000.0) : 0.0;
    };

    m->put("workloads.make_ms", per_iteration("makeWorkload"), "ms");
    m->put("cfg.build_ms", per_iteration("Cfg"), "ms");
    m->put("exec.interp_ms", interp_ms, "ms");
    m->put("exec.interp_mips", mips(instrs, interp_ms), "Minstr/s");
    m->put("trace.instructions", instrs, "count");
    m->put("trace.bytes_per_instr", instrs > 0.0 ? bytes / instrs : 0.0,
           "B/instr");
    m->put("trace.segment_ms", segment_ms, "ms");
    m->put("bpred.char_acc_ms", char_acc_ms, "ms");
    m->put("bpred.accuracy", accuracy, "share");
    m->put("sim.cells", sim_cells, "count");
    for (dee::ModelKind kind : dee::constrainedModels()) {
        const std::string name = dee::modelName(kind);
        m->put("sim.window.cell_ms." + name, median(model_ms[name]), "ms");
    }
    m->put("sim.oracle.cell_ms", median(model_ms["Oracle"]), "ms");
    m->put("sim.window.mips", mips(window_instrs, window_ms), "Minstr/s");
    m->put("sim.redo_est_share",
           window_ms > 0.0 ? (segment_ms + char_acc_ms) *
                                 static_cast<double>(window_cells) /
                                 window_ms
                           : 0.0,
           "share");
    m->put("absint.bounds_ms", per_iteration("publishStaticBounds"), "ms");
    m->put("runner.sweep_ms", per_iteration("runCells(sweep)"), "ms");
    m->put("runner.busy_share", median(busy), "share");
    m->put("levo.run_ms", levo_ms, "ms");
    m->put("levo.mips", mips(levo_instrs, levo_ms), "Minstr/s");
    m->put("levo.refills", refills, "count");
    m->put("levo.dee_covered_share",
           mispred > 0 ? static_cast<double>(covered) /
                             static_cast<double>(mispred)
                       : 0.0,
           "share");
    m->put("obs.manifest_write_ms", median(manifest_ms), "ms");
    m->put("obs.manifest_bytes", median(manifest_b), "B");
    m->put("rss.after_setup_mb", median(after_setup), "MB");
    m->put("rss.sweep_growth_mb", median(growth), "MB");
    m->put("trace_overhead_pct",
           100.0 * (median(traced_wall) / median(untraced_wall) - 1.0), "%");
    m->put("traced_wall_ms", wall_total, "ms");
    double attributed = 0.0;
    for (const auto &[layer, ms] : self) {
        m->put("self_ms." + layer, ms, "ms");
        attributed += ms;
    }
    m->put("fail_share", fail_share, "share");

    (*detail)["traced_iterations"] = Json(traced.size());
    (*detail)["untraced_iterations"] = Json(untraced_wall.size());
    (*detail)["self_sum_minus_wall_ms"] = Json(attributed - wall_total);
}

/** Median cell ms per (program, model), for the stderr table. */
std::string
cellTable(const std::vector<Iteration> &its)
{
    std::map<std::string, std::map<std::string, std::vector<double>>> ms;
    std::vector<std::string> models;
    for (const Iteration &it : its) {
        for (const CellOutcome &c : it.cells) {
            if (std::find(models.begin(), models.end(), c.model) ==
                models.end())
                models.push_back(c.model);
            ms[c.workload][c.model].push_back(c.ms);
        }
    }
    std::string out = "median cell ms per (program, model):\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %-9s", "program");
    out += buf;
    for (const std::string &model : models) {
        std::snprintf(buf, sizeof(buf), " %17s", model.c_str());
        out += buf;
    }
    out += "\n";
    for (const auto &[workload, per_model] : ms) {
        std::snprintf(buf, sizeof(buf), "  %-9s", workload.c_str());
        out += buf;
        for (const std::string &model : models) {
            const auto found = per_model.find(model);
            std::snprintf(buf, sizeof(buf), " %17.2f",
                          found == per_model.end() ? 0.0
                                                   : median(found->second));
            out += buf;
        }
        out += "\n";
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans) {
        Json j = Json::object();
        j["name"] = Json(s.name);
        j["layer"] = Json(s.layer);
        j["cell"] = Json(s.cell);
        j["depth"] = Json(s.depth);
        j["iteration"] = Json(s.iteration);
        j["thread"] = Json(static_cast<std::uint64_t>(s.thread));
        j["start_ms"] = Json(s.startMs);
        j["end_ms"] = Json(s.endMs);
        out << j.dump() << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    dee::Cli cli("dee end-to-end benchmark (see perfbench/README.md)");
    cli.flag("workload", "fig5_grid",
             "fig5_grid, paper_trace or levo_sweep");
    cli.flag("seed", "0", "workload seed (0 = the calibrated templates)");
    cli.flag("seconds", "30", "measure for at least this long");
    cli.flag("trace", "0",
             "1: record spans on every second run, report per-layer "
             "metrics");
    cli.flag("smoke", "false", "tiny scale: a seconds-long run of the "
             "same code paths");
    cli.flag("out-dir", ".", "where run manifests and spans are written");
    cli.flag("digests", "", "pinned per-cell digests to check against");
    cli.flag("write-digest", "",
             "record this run's cells as the digest for its seed");
    cli.parse(argc, argv);

    Spec spec;
    if (!specFor(cli.str("workload"), cli.boolean("smoke"), &spec)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     cli.str("workload").c_str());
        return 2;
    }
    const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
    const double seconds = cli.real("seconds");
    const bool trace_mode = cli.integer("trace") != 0;
    // Enough repetitions for a median, and in a traced run at least one
    // traced and one untraced repetition.
    constexpr int kMinRuns = 3;
    const std::string out_dir = cli.str("out-dir");
    const std::string manifest_path =
        out_dir + "/manifest-" + spec.name + ".json";

    const Digest digest = loadDigest(cli.str("digests"), spec, seed);
    LevoReference levo_ref;
    if (spec.kind == Kind::Levo)
        levo_ref = levoReference(spec, seed);

    SpanLog log;
    std::vector<Iteration> its;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    const Clock::time_point start = Clock::now();
    for (int i = 0;; ++i) {
        SpanLog *span_log = trace_mode && i % 2 == 1 ? &log : nullptr;
        constexpr int kSlices = 20;
        const double before = sampleHostSpeed(kSlices);
        Iteration it =
            spec.kind == Kind::Levo
                ? runLevo(spec, seed, levo_ref, span_log, i, manifest_path)
                : runGrid(spec, seed, span_log, i, manifest_path);
        it.refSliceMs = 0.5 * (before + sampleHostSpeed(kSlices));
        // Hand freed memory back to the OS, so that every run pays for
        // its memory as a fresh tool process would.
        malloc_trim(0);
        if (spec.kind == Kind::Grid)
            checkDominance(spec, it.cells);
        checkDigest(digest, it.cells);
        for (const CellOutcome &c : it.cells) {
            ++attempted;
            if (c.failed) {
                ++failed;
                if (failures.size() < 20)
                    failures.push_back(c.label() + ": " + c.why);
            }
        }
        std::fprintf(stderr,
                     "run %d%s: wall %.1f ms (setup %.1f, sweep %.1f, "
                     "manifest %.1f), %zu cells, reference slice %.3f ms\n",
                     i, it.traced ? " (traced)" : "", it.wallMs, it.setupMs,
                     it.sweepMs, it.manifestMs, it.cells.size(),
                     it.refSliceMs);
        its.push_back(std::move(it));
        if (i + 1 >= kMinRuns &&
            msBetween(start, Clock::now()) >= seconds * 1000.0)
            break;
    }

    if (!cli.str("write-digest").empty())
        writeDigest(cli.str("write-digest"), spec, seed, its.front().cells);

    const double fail_share =
        static_cast<double>(failed) / static_cast<double>(attempted);
    Metrics metrics;
    Json detail = Json::object();
    if (trace_mode) {
        perLayerMetrics(spec, its, log, fail_share, &metrics, &detail);
        writeSpans(out_dir + "/spans-" + spec.name + ".jsonl", log.spans());
    } else {
        endToEndMetrics(its, paperGapPct(spec, its.front().cells),
                        1.0 - fail_share, &metrics, &detail);
    }
    std::fprintf(stderr, "%s", cellTable(its).c_str());
    for (const std::string &f : failures)
        std::fprintf(stderr, "FAILED %s\n", f.c_str());

    Json failures_json = Json::array();
    for (const std::string &f : failures)
        failures_json.push(Json(f));
    detail["failures"] = std::move(failures_json);
    detail["digest_pinned"] = Json(digest.pinned);
    detail["scale"] = Json(spec.scale);
    detail["jobs"] = Json(spec.jobs);
    detail["compiler"] = Json(__VERSION__);
    detail["build_type"] = Json(DEE_PERF_BUILD_TYPE);

    Json result = Json::object();
    result["correct"] = Json(failed == 0);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = metrics.json();
    result["detail"] = std::move(detail);
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
