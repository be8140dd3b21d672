/**
 * @file
 * PreparedTrace: the facts of one trace that no predictor, window tree
 * or latency model changes, built once and shared by every simulation
 * cell that runs the trace.
 *
 * A Figure-5 sweep runs 43 cells over each trace. Apart from its window
 * tree and predictor outcomes, every input a cell needs is a property
 * of the trace alone:
 *
 *  - the branch-path bounds (segmentPaths()) and each path's exit
 *    branch (static id, block, outcome, direction);
 *  - one 4-byte decode per RecordStore entry: register availability
 *    slots and op class. A record's entry id, which the store already
 *    holds, names its decode, so nothing is copied per record;
 *  - one dense memory-address id per load or store record, in trace
 *    order, indexing a flat last-store table (ids are per trace, so no
 *    hashing per cell);
 *  - the dynamic control-dependence join points of route B, cached per
 *    Cfg and keyed by the contents of its ipostdom table;
 *  - one attachment: per-trace state that a layer above the trace
 *    derives and keeps here, so that it lives exactly as long as the
 *    view (the window simulator's SimTraceCache, core/sim).
 *
 * It reads the trace's RecordStore in its compact form: the op class,
 * register slots, branch flags and block of each of the store's table
 * entries are worked out once per entry, not once per record, and only
 * a load or store adds anything per record: its memory id. The issue
 * loops read each record's entry id straight from the store's id
 * chunks and take memory ids with a running cursor, which works
 * because every pass visits the records in trace order.
 *
 * Trace::prepared() builds the view on first use, thread-safely, and
 * every later caller gets the same object. The view describes the
 * store's id buffer it was built from; Trace::prepared() panics if that
 * buffer was reallocated or resized since (see trace/trace.hh).
 * Preparation publishes nothing to the registry, tracer or profile:
 * whichever cell touches a trace first would otherwise own it.
 */

#ifndef DEE_TRACE_PREPARED_HH
#define DEE_TRACE_PREPARED_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

class Cfg;

/**
 * Register-availability slots of the entry decode: architectural
 * registers 1..31 map to themselves; a missing source reads the
 * always-zero slot (the identity of the dataflow max) and a missing
 * destination writes a sink slot nobody reads.
 */
constexpr std::uint8_t kZeroSlot = kNumRegs;
constexpr std::uint8_t kSinkSlot = kNumRegs + 1;
constexpr std::size_t kNumRegSlots = kNumRegs + 2;

/**
 * The decode of one RecordStore entry: the dataflow working set of the
 * fast kernels, shared by every record of the entry. Latency is not
 * part of it; each cell maps the op class through its own LatencyModel
 * (and SimConfig::loadLatencies). A load or store's memory id is per
 * record: see PreparedTrace::memIds().
 */
struct DecodedInstr
{
    std::uint8_t src1 = kZeroSlot; ///< availability slot of rs1
    std::uint8_t src2 = kZeroSlot; ///< availability slot of rs2
    std::uint8_t dst = kSinkSlot;  ///< availability slot of rd
    OpClass cls = OpClass::Nop;
};
static_assert(sizeof(DecodedInstr) == 4, "issue loops want 4B entries");

/** True for the op classes that take a memory id (loads and stores). */
constexpr bool
takesMemId(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::Store;
}

/** The conditional branch that ends a branch path. */
struct PathExit
{
    StaticId sid = 0;
    BlockId block = 0;
    bool taken = false;
    bool backward = false;
};

/** Immutable per-trace view shared by every cell (see file comment). */
class PreparedTrace
{
  public:
    /** Builds the view of @p trace; Trace::prepared() is the caller. */
    explicit PreparedTrace(const Trace &trace);
    ~PreparedTrace();

    PreparedTrace(const PreparedTrace &) = delete;
    PreparedTrace &operator=(const PreparedTrace &) = delete;

    /** Records in the trace. */
    std::uint64_t size() const { return size_; }

    /** Branch paths (segmentPaths(), path for path). */
    std::uint64_t numPaths() const { return bounds_.size() - 1; }

    /**
     * Paths ending in a conditional branch. Only the last path can lack
     * one, so path k ends in a branch iff k < numBranches().
     */
    std::uint64_t numBranches() const { return exits_.size(); }

    BranchPath
    path(std::uint64_t k) const
    {
        return BranchPath{bounds_[k], bounds_[k + 1], k < exits_.size()};
    }

    /** Exit branch of path @p k; valid iff k < numBranches(). */
    const PathExit &exit(std::uint64_t k) const { return exits_[k]; }

    /** The store's id buffer: chunk k holds the entry ids of records
     *  from k * RecordStore::kChunkRecords on. */
    const std::vector<const std::uint32_t *> &
    idChunks() const
    {
        return idChunks_;
    }

    /** Entry id of record @p i. */
    std::uint32_t
    entryId(DynIndex i) const
    {
        return idChunks_[i / RecordStore::kChunkRecords]
                        [i % RecordStore::kChunkRecords];
    }

    /** The decode of each RecordStore entry, indexed by entry id. */
    const std::vector<DecodedInstr> &
    entryDecode() const
    {
        return entryDecode_;
    }

    /**
     * Dense per-trace address ids, from 1: entry k belongs to the k-th
     * load or store record in trace order. A trailing 0 follows the
     * last one, so a loop holding a cursor into the array may read the
     * entry under it before it knows whether the record takes an id.
     */
    const std::vector<std::uint32_t> &memIds() const { return memIds_; }

    /** Size of a last-store table indexed by memory id: the distinct
     *  load/store addresses plus slot 0, which no store writes. */
    std::uint32_t numMemIds() const { return numMemIds_; }

    /** Heap bytes the view holds, counting allocated capacity; the
     *  join cache, which grows per Cfg, and the attachment are left
     *  out. */
    std::size_t bytes() const;

    /**
     * Route-B join points for @p cfg: entry k is the first dynamic index
     * after path k's exit branch at which the branch block's immediate
     * postdominator runs (size() when it never does, or for a path with
     * no branch). Computed on first use per distinct ipostdom table and
     * cached; thread-safe. The result lives as long as this view.
     */
    const std::vector<DynIndex> &joinIndex(const Cfg &cfg) const;

    /** True while @p trace still holds the id buffer (same chunks at
     *  the same addresses, same length) this view was built from. */
    bool describes(const Trace &trace) const;

    /** Base of the per-trace state a higher layer attaches to a view;
     *  it stays at one address for the view's lifetime. */
    class Attachment
    {
      public:
        Attachment() = default;
        Attachment(const Attachment &) = delete;
        Attachment &operator=(const Attachment &) = delete;
        virtual ~Attachment();
    };

    /**
     * The view's attachment, made by @p make on first use under this
     * view's lock (other callers wait for it) and freed with the view;
     * thread-safe, and every later caller gets the same object. A view
     * holds one attachment: the first @p make wins, so callers downcast
     * with a check.
     */
    Attachment &
    attachment(const std::function<std::unique_ptr<Attachment>()> &make)
        const;

  private:
    struct JoinEntry
    {
        std::vector<BlockId> ipostdoms; ///< the cache key
        std::vector<DynIndex> joinIdx;
    };

    std::uint64_t size_ = 0;
    /** The id buffer's chunks, as RecordStore::idChunks() held them. */
    std::vector<const std::uint32_t *> idChunks_;
    std::vector<DecodedInstr> entryDecode_; ///< one per store entry
    std::vector<BlockId> blockOf_;        ///< block of each store entry
    std::vector<DynIndex> bounds_;        ///< numPaths() + 1 path bounds
    std::vector<PathExit> exits_;         ///< one per branch path
    std::vector<std::uint32_t> memIds_;   ///< one per load/store, then 0
    std::uint32_t numMemIds_ = 1;
    mutable std::mutex joinMutex_;
    mutable std::vector<std::unique_ptr<JoinEntry>> joins_;
    mutable std::mutex attachMutex_;
    mutable std::unique_ptr<Attachment> attachment_;
};

} // namespace dee

#endif // DEE_TRACE_PREPARED_HH
