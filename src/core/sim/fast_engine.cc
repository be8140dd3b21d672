/**
 * @file
 * The data-oriented simulation kernels: fastForward(), the window
 * forward pass, and fastOracle(), the oracle's dataflow sweep.
 *
 * Same semantics as the seed kernels, restructured for the host
 * machine:
 *
 *  - One issue loop, issueRecords(), serves the window pass (per path,
 *    both control-dependence regimes) and the oracle (per block). It
 *    reads each record's entry id straight from the trace's id chunks,
 *    at the id width it picks once per run, and that entry's shared
 *    4-byte decode (PreparedTrace: register
 *    slots and op class), takes memory ids for loads and stores with a
 *    running cursor, and maps the op class to a latency through a
 *    per-cell table (plus the optional per-record load latencies),
 *    never calling opClass() per record.
 *  - Register dataflow through a flat availability table (completion
 *    time of the last writer per architectural register, with an
 *    always-zero slot standing in for "no dependence" so the inner
 *    loop is branch-free on the register path).
 *  - Memory dataflow through a flat last-store table indexed by the
 *    trace's dense address ids — slot 0, read by every non-memory op,
 *    stays zero — replacing the per-access node-allocating
 *    unordered_map.
 *  - No per-record output: a path's exit branch is its last
 *    instruction, so its issue cycle is kept in a local, and the issue
 *    counts per cycle go straight into the SlotLedger: a plain
 *    increment of its count array, grown once per path (or oracle
 *    block) to a proven bound on the cycles, with the checked
 *    SlotLedger::issue() left for PE-limited runs and for bounds past
 *    the ledger's limit.
 *  - Tree moves over the FlatSpecTree array view; the mispredicts are
 *    PathPredictions' BitVec64 (common/bit_matrix.hh), and the walk's
 *    next uncrossable path is a next-set-bit scan of it.
 *  - Window-sized state: fetch times, bypass sets, root times and
 *    pending mispredicts live in rings (Ring) that hold only the paths
 *    the window can still touch, so a cell's state does not grow with
 *    the trace. Each path's accounting is retired as the root leaves
 *    it (PathRetirer).
 *  - Route B (the reconvergent window of the CD models) folds into the
 *    one fetch bound the issue loop takes: an instruction issues at
 *    min(max(fetch_a, d), max(fetch_b, d, s)) =
 *    max(min(fetch_a, max(fetch_b, s)), d) for data-ready cycle d and
 *    mispredict stall s, and s changes only where a pending mispredict's
 *    join falls inside the path. One scan of the pending FIFO gives s
 *    and that next join; it is cached across runs and tree moves while
 *    the FIFO and the root's bypass filter stay the same.
 *  - Scratch (rings, walk plan and last-store table) is kept per thread
 *    and reused across runs and tree moves.
 *
 * Both are declared in forward_pass.hh. The seed kernels in
 * tests/reference_engine.cc hold them to bit-exact results
 * (tests/test_engine_differential.cc).
 */

#include "core/sim/forward_pass.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <vector>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/trace_event.hh"

namespace dee::sim_detail
{

namespace
{

/**
 * A cell's completion latencies: per op class (LatencyModel::of()), and
 * the optional per-record load latencies (SimConfig::loadLatencies'
 * data).
 */
struct Latencies
{
    std::array<std::int32_t, kNumOpClasses> byClass{};
    const int *load = nullptr;
    /** The largest latency, at least 1: no instruction completes more
     *  than this many cycles after it issues. */
    std::int64_t max = 1;
    /** No latency is negative, so no ready cycle is either. */
    bool nonNegative = true;

    Latencies(const LatencyModel &latency,
              const std::vector<int> *load_latencies)
    {
        const auto note = [this](std::int64_t l) {
            max = std::max(max, l);
            nonNegative = nonNegative && l >= 0;
        };
        for (std::size_t c = 0; c < kNumOpClasses; ++c) {
            byClass[c] = latency.of(static_cast<OpClass>(c));
            note(byClass[c]);
        }
        if (load_latencies != nullptr) {
            load = load_latencies->data();
            for (const int l : *load_latencies)
                note(l);
        }
    }
};

/**
 * An exclusive bound on the issue cycles of @p count instructions when
 * every cycle they wait on is at most @p floor: each completes at most
 * @p max_lat cycles after it issues, so the k-th (from 0) issues by
 * floor + k * max_lat. Saturates past SlotLedger::kMaxCycles, where
 * issue counts fall back to the checked SlotLedger::issue() anyway.
 */
inline std::int64_t
issueBound(std::int64_t floor, std::uint64_t count, std::int64_t max_lat)
{
    constexpr auto kLimit =
        static_cast<std::int64_t>(obs::SlotLedger::kMaxCycles);
    if (floor >= kLimit ||
        count >= static_cast<std::uint64_t>(kLimit / max_lat))
        return kLimit;
    return floor + static_cast<std::int64_t>(count) * max_lat;
}

/**
 * The issue loop's inputs that stay fixed for a whole window pass or
 * oracle sweep.
 */
struct IssueInputs
{
    const std::uint8_t *const *idChunks; ///< PreparedTrace::idChunks()
    const DecodedInstr *decode;          ///< by entry id
    const std::int32_t *lat;              ///< by op class
    const int *loadLat;                   ///< by record, or null
    std::int64_t *regAvail;               ///< kNumRegSlots entries
    std::int64_t *memAvail;               ///< by memory id
    IssueSlots *slots;                    ///< null unless PE-limited
    obs::SlotLedger *ledger;              ///< null unless gathering
};

/**
 * The out-of-line path of an issue: claims a PE slot when the run is
 * PE-limited and records the cycle through the ledger's checked
 * SlotLedger::issue(). Returns the cycle the instruction issues at.
 * Kept out of line: inlined into the issue loop, which it rarely runs
 * in, it slowed EE, SP and DEE cells by ~10%.
 */
[[gnu::noinline]] std::int64_t
checkedIssue(const IssueInputs &in, std::int64_t t)
{
    if (in.slots != nullptr)
        t = in.slots->claim(t);
    if (in.ledger != nullptr)
        in.ledger->issue(t);
    return t;
}

/**
 * Issues records [@p begin, @p end) in trace order: the one issue loop
 * of the window pass (one call per run of a path's records that share
 * a fetch bound) and the oracle sweep (one call per block of records).
 * @p Id is the type of the trace's entry ids (PreparedTrace::idWidth()),
 * picked once per run through issueRecordsFor().
 * Each instruction issues once its operands are ready and not before
 * @p fetch, the cycle its code is available at (route A's tree coverage
 * combined with route B's reconvergent window by the caller). When
 * @p counts is non-null, every issue cycle is known to lie inside it
 * (SlotLedger::issueCounts()) and is counted there directly; otherwise
 * checkedIssue() runs. @p done (the latest completion, raised here) and
 * @p mem_id (the cursor into PreparedTrace::memIds()) carry over
 * between calls. Returns the issue cycle of the last record, or
 * @p last_issue when the range is empty.
 *
 * Kept out of line so that the loop's registers are its own: inlined
 * into fastForward(), the loop-carried values end up in stack slots
 * that every instruction reloads. Aligned to a cache line, so that
 * where the linker places the loop does not move with unrelated code.
 */
template <typename Id>
[[gnu::noinline, gnu::aligned(64)]] std::int64_t
issueRecords(const IssueInputs &in, DynIndex begin, DynIndex end,
             std::int64_t fetch, std::uint32_t *const counts,
             std::int64_t last_issue, std::int64_t &done,
             const std::uint32_t *&mem_id)
{
    // Locals, not the caller's memory: the stores below through
    // int64/uint32 pointers could alias it, which would make the
    // compiler reload every field once per instruction.
    const DecodedInstr *const decode = in.decode;
    const std::int32_t *const lat = in.lat;
    const int *const load_lat = in.loadLat;
    std::int64_t *const reg_avail = in.regAvail;
    std::int64_t *const mem_avail = in.memAvail;
    std::int64_t last_done = done;
    const std::uint32_t *mem_cursor = mem_id;
    for (DynIndex i = begin; i < end;) {
        const std::uint8_t *const ids =
            in.idChunks[i / RecordStore::kChunkRecords];
        const DynIndex chunk_end = std::min<DynIndex>(
            end, (i / RecordStore::kChunkRecords + 1) *
                     RecordStore::kChunkRecords);
        for (; i < chunk_end; ++i) {
            const DecodedInstr d =
                decode[readId<Id>(ids, i % RecordStore::kChunkRecords)];
            // Branch-free memory id: the cursor's entry when the record
            // takes one (and advances), slot 0 otherwise.
            const std::uint32_t takes_mem = takesMemId(d.cls) ? 1 : 0;
            const std::uint32_t mid = *mem_cursor & (0u - takes_mem);
            mem_cursor += takes_mem;

            std::int64_t data_ready = reg_avail[d.src1];
            const std::int64_t a2 = reg_avail[d.src2];
            if (a2 > data_ready)
                data_ready = a2;
            const std::int64_t am = mem_avail[mid];
            if (am > data_ready)
                data_ready = am;
            std::int64_t t = fetch > data_ready ? fetch : data_ready;

            if (counts != nullptr)
                ++counts[t];
            else
                t = checkedIssue(in, t);
            last_issue = t;
            const std::int64_t fin =
                t + (d.cls == OpClass::Load && load_lat != nullptr
                         ? load_lat[i]
                         : lat[static_cast<std::size_t>(d.cls)]);
            if (fin > last_done)
                last_done = fin;

            // Availability updates (flow-only renaming; stores publish
            // the last-store completion per address).
            reg_avail[d.dst] = fin;
            if (d.cls == OpClass::Store)
                mem_avail[mid] = fin;
        }
    }
    done = last_done;
    mem_id = mem_cursor;
    return last_issue;
}

using IssueFn = decltype(&issueRecords<std::uint32_t>);

/** The issue loop for entry ids @p width bytes wide. */
IssueFn
issueRecordsFor(unsigned width)
{
    return withIdType(width, [](auto type) -> IssueFn {
        return &issueRecords<decltype(type)>;
    });
}

/**
 * Closed-form coverage-walk plan. Chain-shaped trees (SP) and
 * DEE-static-shaped trees (an ML chain with one not-predicted side
 * chain per ML node, the side chains themselves free of not-predicted
 * edges) admit a closed form: the walk from root r follows correct
 * predictions down the ML, may cross exactly one mispredict into a
 * side chain, and dies at the second bad path. Given the next path the
 * walk cannot step across, each walk collapses to at most two
 * contiguous range relaxations — and since covered ranges always
 * attach to the already-fetched prefix, only the paths past it are
 * touched, which makes the whole run O(paths + fetches) instead of
 * O(paths x walk depth). Trees with deeper not-predicted structure (EE
 * subtrees, greedy DEE shapes that branch off side paths) keep the
 * generic walk.
 */
struct WalkPlan
{
    bool closedForm = false;
    std::vector<std::int32_t> mlNodes;  ///< node id per ML depth; [0]=origin
    std::vector<std::uint32_t> sideLen; ///< side-chain nodes per ML depth
    std::vector<std::uint32_t> sideOff; ///< offsets into sideNodes
    std::vector<std::int32_t> sideNodes; ///< concatenated side-chain ids
};

void
buildWalkPlan(const FlatSpecTree &flat, WalkPlan &plan)
{
    plan.closedForm = false;
    plan.mlNodes.clear();
    plan.sideLen.clear();
    plan.sideOff.clear();
    plan.sideNodes.clear();
    const std::size_t num_nodes = flat.predChild.size();
    if (num_nodes == 0)
        return;
    std::int32_t node = SpecTree::kOrigin;
    plan.mlNodes.push_back(node);
    while (flat.predChild[static_cast<std::size_t>(node)] != kNoNode &&
           plan.mlNodes.size() <= num_nodes) {
        node = flat.predChild[static_cast<std::size_t>(node)];
        plan.mlNodes.push_back(node);
    }
    for (const std::int32_t ml : plan.mlNodes) {
        plan.sideOff.push_back(
            static_cast<std::uint32_t>(plan.sideNodes.size()));
        std::uint32_t len = 0;
        for (std::int32_t s =
                 flat.npredChild[static_cast<std::size_t>(ml)];
             s != kNoNode;
             s = flat.predChild[static_cast<std::size_t>(s)]) {
            if (flat.npredChild[static_cast<std::size_t>(s)] != kNoNode)
                return; // walks may cross twice: generic walk only
            plan.sideNodes.push_back(s);
            ++len;
            if (plan.sideNodes.size() > num_nodes)
                return; // malformed tree; stay on the generic walk
        }
        plan.sideLen.push_back(len);
    }
    plan.closedForm = true;
}

/**
 * The live values of a sequence indexed by an ever-growing position (a
 * path index, or a count of FIFO pushes): position i lives in slot
 * i & mask. reset() sizes the ring to the power of two at or above the
 * span of positions that must stay live, or, when that is at least
 * @p limit, to exactly @p limit slots that never wrap (every position
 * stays below @p limit), so a ring never outgrows a whole-trace array.
 */
template <typename T>
class Ring
{
  public:
    void
    reset(std::uint64_t live, std::uint64_t limit)
    {
        std::uint64_t slots = std::bit_ceil(std::max<std::uint64_t>(live, 1));
        mask_ = slots - 1;
        if (slots >= limit) {
            slots = limit;
            mask_ = ~std::uint64_t{0};
        }
        slots_.assign(slots, T{});
    }

    T &operator[](std::uint64_t i) { return slots_[i & mask_]; }

  private:
    std::vector<T> slots_;
    std::uint64_t mask_ = 0;
};

/**
 * A fetched path: when it was fetched, and its bypass set — the
 * mispredicted paths that the fetching walk crossed through
 * not-predicted edges, whose alternate state therefore holds the
 * path's code. A walk crosses every mispredict it passes and stops at
 * one it cannot cross, so the set is exactly the mispredicts from the
 * first crossed one to the path before this one: one index,
 * @c bypassFrom (the path itself when the set is empty), stands for
 * it. A non-empty set is a fetch through a side path.
 */
struct FetchedPath
{
    std::int64_t time;
    std::uint64_t bypassFrom;
};

/** StallScan's join when no pending join lies ahead: past every
 *  record. */
constexpr DynIndex kNoJoin = std::numeric_limits<DynIndex>::max();

/**
 * One scan of route B's pending mispredicts from record position
 * `from` on. Of the FIFO's entries [head, tail) whose path is below
 * @c prefix (the ones the root's bypass set leaves in), @c stall is the
 * latest (resolve + penalty) over the divergent ones and the
 * non-divergent ones whose join lies past `from`, and @c join is the
 * nearest such join: the stall holds for every record from `from` up
 * to it, and may drop there.
 */
struct StallScan
{
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::uint64_t prefix = 0;
    DynIndex join = 0; ///< 0 until the first scan: holds for no record
    std::int64_t stall = 0;
};

/**
 * Per-thread kernel scratch, recycled across runs: repeated cells
 * (benchmark repetitions, figure sweeps) reuse warmed-up capacity
 * instead of faulting fresh pages from the allocator every run. Every
 * field is cleared, reset or assign()ed before use below.
 */
struct FastScratch
{
    Ring<FetchedPath> fetched;          ///< paths [root, last fetched]
    Ring<std::int64_t> rootTime;        ///< root arrival per path
    Ring<PendingMispredict> pending;    ///< by push count
    std::vector<std::int64_t> memAvail; ///< last-store time per mem id
    WalkPlan plan;
};

} // namespace

std::int64_t
fastForward(ForwardCtx &ctx)
{
    static thread_local FastScratch scratch;
    const PreparedTrace &prep = ctx.prepared;
    const std::uint64_t num_paths = prep.numPaths();
    const std::uint64_t num_branches = prep.numBranches();
    const SimConfig &config = ctx.config;
    const int window_reach = ctx.windowReach;
    const int penalty = config.mispredictPenalty;
    const bool use_cd = config.cd != CdModel::Restrictive;
    const bool serial_branches = config.cd != CdModel::Minimal;
    const bool use_confidence = config.confidence.accuracy != nullptr;
    const bool profiling = ctx.profiling;
    const bool accounting = ctx.accounting;
    const bool tracing = ctx.tracing;
    const bool hot = ctx.hot;
    obs::Tracer &tracer = ctx.tracer;
    obs::SpeculationProfile &profile = ctx.profile;
    const BitVec64 &mispredicts = ctx.mispredicts;
    const std::vector<std::uint32_t> &join_idx = ctx.joinIdx;
    obs::SlotLedger *const ledger = ctx.ledger;
    const int branch_lat = config.latency.of(OpClass::CondBranch);
    const Latencies lat(config.latency, config.loadLatencies);

    // Flat tree view for the coverage walks.
    const FlatSpecTree flat =
        ctx.tree.flatten(profiling && !use_confidence);

    // --- Window-sized state (rings) ---------------------------------------
    // The fetched set is always a prefix [0, fetch_end): every walk
    // covers a contiguous run of paths after its root, and roots
    // advance one path at a time. A walk from root r fetches no further
    // than r + reach, so only paths [r, r + reach] have fetch state
    // still to be read; route B reads root times back to
    // r - window_reach; and a pending mispredict retires once the root
    // is window_reach paths past it.
    const std::uint64_t reach =
        static_cast<std::uint64_t>(flat.maxDepth) +
        (use_confidence ? static_cast<std::uint64_t>(std::max(
                              config.confidence.sideLen, 0)) + 1
                        : 0);
    const std::uint64_t live =
        std::max(static_cast<std::uint64_t>(window_reach), reach) + 2;
    Ring<FetchedPath> &fetched = scratch.fetched;
    fetched.reset(live, num_paths + 1);
    std::uint64_t fetch_end = 0;
    Ring<std::int64_t> &root_time = scratch.rootTime;
    root_time.reset(live, num_paths + 1);
    root_time[0] = 0;
    // Pending mispredicts: the FIFO of pushes [pending_head,
    // pending_tail), front-retirement only (the seed kernel's
    // blocked-front semantics).
    Ring<PendingMispredict> &pending = scratch.pending;
    pending.reset(live, num_paths + 1);
    std::uint64_t pending_head = 0;
    std::uint64_t pending_tail = 0;

    std::array<std::int64_t, kNumRegSlots> reg_avail{};
    std::vector<std::int64_t> &mem_avail = scratch.memAvail;
    mem_avail.assign(prep.numMemIds(), 0);

    std::int64_t last_resolve = -1;
    const bool pe_limited = config.peLimit > 0;
    IssueSlots slots(config.peLimit,
                     accounting && pe_limited ? &ctx.starvedCycles
                                              : nullptr);

    // Route B's stall for the records from `at` on, under the bypass
    // filter that keeps the pending mispredicts of paths below
    // `prefix`. The FIFO is in path order, so the filter keeps a
    // prefix of it and the scan stops at the first entry it drops.
    // The last scan is kept: record positions only grow over a run, so
    // it holds until its join, or until the FIFO or the filter changes.
    StallScan stall_scan;
    const auto route_b_stall = [&](DynIndex at, std::uint64_t prefix)
        -> const StallScan & {
        if (at < stall_scan.join && stall_scan.head == pending_head &&
            stall_scan.tail == pending_tail && stall_scan.prefix == prefix)
            return stall_scan;
        std::int64_t stall = 0;
        DynIndex join = kNoJoin;
        for (std::uint64_t q = pending_head; q < pending_tail; ++q) {
            const PendingMispredict &m = pending[q];
            if (m.pathIdx >= prefix)
                break; // this one on is held by a side path / EE subtree
            if (!m.divergent) {
                if (m.joinIdx <= at)
                    continue; // its control scope ended before `at`
                join = std::min(join, m.joinIdx);
            }
            stall = std::max(stall, m.resolveTime + penalty);
        }
        stall_scan = StallScan{pending_head, pending_tail, prefix, join,
                               stall};
        return stall_scan;
    };

    const IssueInputs issue_in{
        .idChunks = prep.idChunks().data(),
        .decode = prep.entryDecode().data(),
        .lat = lat.byClass.data(),
        .loadLat = lat.load,
        .regAvail = reg_avail.data(),
        .memAvail = mem_avail.data(),
        .slots = pe_limited ? &slots : nullptr,
        .ledger = ledger,
    };
    const IssueFn issue_records = issueRecordsFor(prep.idWidth());
    const std::uint32_t *mem_id = prep.memIds().data();

    // Closed-form walk tables (chain / DEE-static shapes only).
    WalkPlan &plan = scratch.plan;
    if (!use_confidence)
        buildWalkPlan(flat, plan);
    else
        plan.closedForm = false;
    // The first path at or after k that a walk cannot step across: a
    // mispredicted branch, or the last path when it has no branch.
    const auto uncrossable = [&mispredicts, num_branches](std::uint64_t k) {
        return std::min<std::uint64_t>(mispredicts.nextSet(k),
                                       num_branches);
    };

    for (std::uint64_t r = 0; r < num_paths; ++r) {
        const std::int64_t now = root_time[r];
        const BranchPath path = prep.path(r);

        // A fresh fetch of path x by this root's walk, whose first
        // crossed mispredict is first_cross (num_paths when none).
        const auto fetch = [&](std::uint64_t x, std::uint64_t first_cross) {
            fetched[x] = FetchedPath{now, std::min(first_cross, x)};
            fetch_end = x + 1;
            if (first_cross < x) {
                ++ctx.sidePathFetches;
                dee_trace_event_if(
                    tracing, tracer, "sim.side_path_fetch", 'i', now,
                    "path", static_cast<std::int64_t>(x), "root",
                    static_cast<std::int64_t>(r));
            }
        };

        // Coverage walk from this root position: fetch every covered
        // path. Already-fetched code stays fetched: a path fetched by
        // an earlier root has a fetch time at most `now`, so only the
        // paths past the fetched prefix change.
        if (r >= fetch_end)
            fetch(r, num_paths); // distance 0: always covered
        if (use_confidence) {
            const obs::hotspot::HotspotPhase hot_fetch(
                hot, "window", obs::hotspot::Phase::Fetch);
            // Confidence-gated coverage: follow correct predictions to
            // the ML depth; one low-confidence mispredict may be
            // crossed, extending coverage by sideLen paths.
            const int ml_depth = flat.maxDepth;
            std::uint64_t first_cross = num_paths;
            std::int64_t limit = ml_depth;
            for (std::uint64_t d = 0;
                 r + d + 1 < num_paths &&
                 static_cast<std::int64_t>(d) < limit;
                 ++d) {
                if (r + d >= num_branches)
                    break;
                if (mispredicts.test(r + d)) {
                    if (first_cross != num_paths)
                        break; // only one mispredict deep, like DEE
                    const StaticId sid = prep.exit(r + d).sid;
                    const double acc =
                        sid < config.confidence.accuracy->size()
                            ? (*config.confidence.accuracy)[sid]
                            : 1.0;
                    if (acc >= config.confidence.threshold)
                        break; // confident branch: no side path here
                    first_cross = r + d;
                    limit = static_cast<std::int64_t>(d) +
                            config.confidence.sideLen + 1;
                }
                if (r + d + 1 >= fetch_end)
                    fetch(r + d + 1, first_cross);
            }
        } else if (plan.closedForm) {
            const obs::hotspot::HotspotPhase hot_fetch(
                hot, "window", obs::hotspot::Phase::Fetch);
            // ML segment: correct steps down the main line cover paths
            // r+1 .. min(j, r + ML length, last path), j the first
            // path the walk cannot cross. Paths below fetch_end were
            // fetched by an earlier (never later) root, so only the
            // fresh suffix needs touching.
            const std::uint64_t j = uncrossable(r);
            const std::uint64_t ml_len = plan.mlNodes.size() - 1;
            const std::uint64_t hi =
                std::min({j, r + ml_len, num_paths - 1});
            for (std::uint64_t x = std::max(r + 1, fetch_end); x <= hi;
                 ++x) {
                fetch(x, num_paths);
                if (profiling) {
                    const auto node = static_cast<std::size_t>(
                        plan.mlNodes[x - r]);
                    profile.recordAssignment(
                        prep.exit(x - 1).sid,
                        flat.cp[node], flat.rank[node]);
                }
            }
            // Side segment: the walk crosses j if it is a mispredicted
            // branch (j < num_branches) within ML reach and that ML
            // depth has a side chain, then follows correct steps along
            // the chain.
            if (j + 1 < num_paths && j - r <= ml_len &&
                j < num_branches && plan.sideLen[j - r] != 0) {
                const std::size_t dc = j - r;
                const std::uint64_t slen = plan.sideLen[dc];
                const std::uint64_t hi_s =
                    std::min({j + slen, uncrossable(j + 1),
                              num_paths - 1});
                for (std::uint64_t x = std::max(j + 1, fetch_end);
                     x <= hi_s; ++x) {
                    fetch(x, j);
                    if (profiling) {
                        const auto node = static_cast<std::size_t>(
                            plan.sideNodes[plan.sideOff[dc] +
                                           static_cast<std::uint32_t>(
                                               x - j - 1)]);
                        profile.recordAssignment(
                            prep.exit(x - 1).sid,
                            flat.cp[node], flat.rank[node]);
                    }
                }
            }
        } else {
            const obs::hotspot::HotspotPhase hot_fetch(
                hot, "window", obs::hotspot::Phase::Fetch);
            int node = SpecTree::kOrigin;
            std::uint64_t first_cross = num_paths;
            // The walk fetches paths r+d+1, so it must stop at the last
            // path: a cap-truncated trace can end in a branch, making
            // even the final path endsInBranch.
            for (std::uint64_t d = 0; r + d + 1 < num_paths; ++d) {
                if (r + d >= num_branches)
                    break;
                const bool mispredicted = mispredicts.test(r + d);
                node = flat.child(node, !mispredicted);
                if (node == kNoNode)
                    break;
                if (mispredicted && first_cross == num_paths)
                    first_cross = r + d;
                if (r + d + 1 >= fetch_end) {
                    fetch(r + d + 1, first_cross);
                    if (profiling) {
                        // Theorem-1 attribution at assignment time:
                        // the covering node's cumulative probability
                        // and resource-assignment rank, charged to
                        // the branch the path hangs off.
                        profile.recordAssignment(
                            prep.exit(r + d).sid,
                            flat.cp[static_cast<std::size_t>(node)],
                            flat.rank[static_cast<std::size_t>(node)]);
                    }
                }
            }
        }
        DEE_INVARIANT(fetch_end - r <= reach + 1, "walk from path ", r,
                      " fetched past the window's reach");

        // Code at the root is never fetched later than the root's own
        // arrival: coverage walks only ever relax fetch times.
        const FetchedPath here = fetched[r];
        DEE_INVARIANT(here.time <= now, "path ", r,
                      " fetched after its root time");
        const bool side = here.bypassFrom < r;

        // Retire mispredicts whose window reach or control scope ended
        // (divergent ones stall until resolution wherever they are, so
        // only the reach bound retires them). Front-retirement only: a
        // blocked front entry keeps every later entry live, exactly as
        // the seed kernel's deque does.
        while (pending_head < pending_tail &&
               (pending[pending_head].pathIdx + window_reach <= r ||
                (!pending[pending_head].divergent &&
                 pending[pending_head].joinIdx <= path.begin))) {
            ++pending_head;
        }

        // Execute this path's instructions (trace order; dependencies
        // always point backward, so their availability is final).
        // Every earlier completion, fetch time and pending stall is at
        // most `now`, so the path issues below issueBound() of it.
        const std::int64_t fetch_a = here.time;
        const std::int64_t fetch_b =
            root_time[r > static_cast<std::uint64_t>(window_reach)
                          ? r - window_reach
                          : 0];
        std::int64_t done = now;
        // Issue cycle of the path's last instruction: its exit branch,
        // when it has one.
        std::int64_t last_issue = now;
        {
            const obs::hotspot::HotspotPhase hot_issue(
                hot, "window", obs::hotspot::Phase::Issue);
            std::uint32_t *const counts =
                ledger != nullptr && !pe_limited
                    ? ledger->issueCounts(
                          issueBound(now, path.size(), lat.max))
                    : nullptr;
            // An instruction ready at d issues at the earlier of route
            // A, max(fetch_a, d), and route B, max(fetch_b, d, stall):
            // at max(min(fetch_a, max(fetch_b, stall)), d). Route B
            // stalls on a pending mispredict whose dynamic control scope
            // holds the instruction, or that diverges (loop latch:
            // actual-path code was never fetched), unless the root's
            // bypass set holds its code. The non-CD models (EE / SP /
            // DEE) have no route B.
            if (!use_cd) {
                last_issue =
                    issue_records(issue_in, path.begin, path.end, fetch_a,
                                  counts, last_issue, done, mem_id);
            } else {
                const std::uint64_t prefix =
                    side ? here.bypassFrom : num_paths;
                for (DynIndex at = path.begin; at < path.end;) {
                    const StallScan &b = route_b_stall(at, prefix);
                    const DynIndex run_end = std::min(b.join, path.end);
                    last_issue = issue_records(
                        issue_in, at, run_end,
                        std::min(fetch_a, std::max(fetch_b, b.stall)),
                        counts, last_issue, done, mem_id);
                    at = run_end;
                }
            }
        }

        // Branch resolution (serialized except under MF).
        const bool mispredicted = mispredicts.test(r);
        std::int64_t res = done;
        if (path.endsInBranch) {
            const obs::hotspot::HotspotPhase hot_resolve(
                hot, "window", obs::hotspot::Phase::Resolve);
            res = last_issue + branch_lat;
            if (serial_branches)
                res = std::max(res, last_resolve + 1);
            last_resolve = res;
            if (use_cd && mispredicted) {
                const bool backward = prep.exit(r).backward;
                if (backward || join_idx[r] > path.end) {
                    pending[pending_tail++] = PendingMispredict{
                        r, join_idx[r], res, backward};
                }
            }
        }

        // Tree movement: root leaves this path once the path has fully
        // executed and its branch has resolved (+ penalty on mispredict).
        const obs::hotspot::HotspotPhase hot_move(
            hot, "window", obs::hotspot::Phase::TreeMove);
        const std::int64_t move =
            std::max({now, done, res + (mispredicted ? penalty : 0)});
        DEE_INVARIANT(move >= now, "root time went backwards at path ",
                      r);
        root_time[r + 1] = move;
        ctx.retirer.retire(r, fetch_a, side, res, move);

        if (mispredicted) {
            dee_trace_event_if(tracing, tracer, "sim.copyback", 'i',
                               res + penalty, "path",
                               static_cast<std::int64_t>(r));
        }
        dee_trace_event_if(tracing, tracer, "sim.root_advance", 'i',
                           move, "path",
                           static_cast<std::int64_t>(r + 1),
                           "mispredict",
                           mispredicted ? std::int64_t{1}
                                        : std::int64_t{0});
    }
    return root_time[num_paths];
}

std::int64_t
fastOracle(const Trace &trace, const LatencyModel &latency,
           const std::vector<int> *load_latencies,
           obs::SlotLedger *ledger)
{
    const PreparedTrace &prep = trace.prepared();
    const std::uint64_t n = prep.size();
    const Latencies lat(latency, load_latencies);

    std::array<std::int64_t, kNumRegSlots> reg_avail{};
    std::vector<std::int64_t> mem_avail(prep.numMemIds(), 0);
    const IssueInputs issue_in{
        .idChunks = prep.idChunks().data(),
        .decode = prep.entryDecode().data(),
        .lat = lat.byClass.data(),
        .loadLat = lat.load,
        .regAvail = reg_avail.data(),
        .memAvail = mem_avail.data(),
        .slots = nullptr,
        .ledger = ledger,
    };
    const IssueFn issue_records = issueRecordsFor(prep.idWidth());
    const std::uint32_t *mem_id = prep.memIds().data();
    // No fetch constraint: each instruction issues when its operands
    // are ready. A ready cycle is at most the latest completion so far,
    // which bounds a block's issue cycles as `now` does a path's. Short
    // blocks keep the bound, and so the ledger, close to the run.
    constexpr std::int64_t kNoFetch =
        std::numeric_limits<std::int64_t>::min();
    constexpr DynIndex kBlock = 1024;
    std::int64_t last = 0;
    for (DynIndex begin = 0; begin < n; begin += kBlock) {
        const DynIndex end = std::min<DynIndex>(n, begin + kBlock);
        std::uint32_t *const counts =
            ledger != nullptr && lat.nonNegative
                ? ledger->issueCounts(issueBound(last, end - begin, lat.max))
                : nullptr;
        issue_records(issue_in, begin, end, kNoFetch, counts, 0, last,
                      mem_id);
    }
    return last;
}

} // namespace dee::sim_detail
