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
 *  - one packed 8-byte decode per instruction: register availability
 *    slots, op class, and a dense memory-address id that indexes a flat
 *    last-store table (ids are per trace, so no hashing per cell);
 *  - the dynamic control-dependence join points of route B, cached per
 *    Cfg and keyed by the contents of its ipostdom table.
 *
 * It reads the trace's RecordStore in its compact form: the op class,
 * register slots, branch flags and block of each of the store's table
 * entries are worked out once per entry, not once per record, and each
 * record only adds its entry id and, for a load or store, its address.
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
#include <memory>
#include <mutex>
#include <vector>

#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

class Cfg;

/**
 * Register-availability slots of the packed decode: architectural
 * registers 1..31 map to themselves; a missing source reads the
 * always-zero slot (the identity of the dataflow max) and a missing
 * destination writes a sink slot nobody reads.
 */
constexpr std::uint8_t kZeroSlot = kNumRegs;
constexpr std::uint8_t kSinkSlot = kNumRegs + 1;
constexpr std::size_t kNumRegSlots = kNumRegs + 2;

/**
 * One packed decoded instruction: the dataflow working set of the fast
 * kernels. Latency is not part of it; each cell maps the op class
 * through its own LatencyModel (and SimConfig::loadLatencies).
 */
struct DecodedInstr
{
    /** Dense per-trace address id of a load or store, from 1; 0 for
     *  every other op, naming a slot no store ever writes. */
    std::uint32_t memId = 0;
    std::uint8_t src1 = kZeroSlot; ///< availability slot of rs1
    std::uint8_t src2 = kZeroSlot; ///< availability slot of rs2
    std::uint8_t dst = kSinkSlot;  ///< availability slot of rd
    OpClass cls = OpClass::Nop;
};
static_assert(sizeof(DecodedInstr) == 8, "issue loops want 8B entries");

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
    std::uint64_t size() const { return decode_.size(); }

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

    /** The packed decode, one entry per record. */
    const std::vector<DecodedInstr> &decode() const { return decode_; }

    /** Size of a last-store table indexed by DecodedInstr::memId: the
     *  distinct load/store addresses plus the reserved slot 0. */
    std::uint32_t numMemIds() const { return numMemIds_; }

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

  private:
    struct JoinEntry
    {
        std::vector<BlockId> ipostdoms; ///< the cache key
        std::vector<DynIndex> joinIdx;
    };

    /** The id buffer's chunks, as RecordStore::idChunks() held them. */
    std::vector<const std::uint32_t *> idChunks_;
    std::vector<BlockId> blockOf_;        ///< block of each store entry
    std::vector<DynIndex> bounds_;        ///< numPaths() + 1 path bounds
    std::vector<PathExit> exits_;         ///< one per branch path
    std::vector<DecodedInstr> decode_;
    std::uint32_t numMemIds_ = 1;
    mutable std::mutex joinMutex_;
    mutable std::vector<std::unique_ptr<JoinEntry>> joins_;
};

} // namespace dee

#endif // DEE_TRACE_PREPARED_HH
