/**
 * @file
 * Dynamic instruction traces and branch-path segmentation.
 *
 * The ILP models of Section 5 are trace driven: the simulator walks the
 * *actual* dynamic instruction stream (wrong-path work never appears; it
 * costs only time). A TraceRecord carries exactly what the timing models
 * need: the static instruction identity (for predictors / CFG lookups),
 * register operands (for flow dependencies), the effective memory address
 * (for memory flow dependencies), and branch outcomes.
 *
 * A branch path — the unit in which the paper counts resources — is "the
 * dynamic code between branches, including the exit branch"
 * (Section 1.2/2). segmentPaths() splits a trace accordingly.
 *
 * Trace::prepared() adds the per-trace view the simulators share
 * (trace/prepared.hh): paths, exit branches, packed decode and join
 * points, built once on first use instead of once per cell.
 */

#ifndef DEE_TRACE_TRACE_HH
#define DEE_TRACE_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace dee
{

/** One dynamic instruction. */
struct TraceRecord
{
    StaticId sid = 0;        ///< Static instruction id.
    BlockId block = 0;       ///< Containing basic block.
    Opcode op = Opcode::Nop; ///< Operation.
    RegId rd = kNoReg;       ///< Destination register or kNoReg.
    RegId rs1 = kNoReg;      ///< First source or kNoReg.
    RegId rs2 = kNoReg;      ///< Second source or kNoReg.
    std::uint64_t memAddr = 0; ///< Effective address (loads/stores).
    bool isBranch = false;   ///< Conditional branch?
    bool taken = false;      ///< Branch outcome (valid if isBranch).
    bool backward = false;   ///< Branch target is an earlier block
                             ///  (loop latch) — valid if isBranch.
};

/** Index of a dynamic instruction within a trace. */
using DynIndex = std::uint64_t;

class PreparedTrace;
struct Trace;

namespace detail
{

/**
 * A trace's lazily built PreparedTrace. Copies start unprepared (their
 * records live in a new buffer); moves carry the view along with the
 * buffer it describes.
 */
class PreparedSlot
{
  public:
    PreparedSlot() = default;
    PreparedSlot(const PreparedSlot &) noexcept {}
    PreparedSlot &operator=(const PreparedSlot &other) noexcept;
    PreparedSlot(PreparedSlot &&other) noexcept;
    PreparedSlot &operator=(PreparedSlot &&other) noexcept;
    ~PreparedSlot();

    /** The view of @p trace, built by the first caller; the others
     *  wait for it and get the same object. */
    const PreparedTrace &get(const Trace &trace) const;

  private:
    mutable std::atomic<const PreparedTrace *> view_{nullptr};
    mutable std::mutex mutex_;
};

} // namespace detail

/** A dynamic instruction stream plus the static-side sizes it indexes. */
struct Trace
{
    std::vector<TraceRecord> records;
    /** Static instruction count of the generating program. */
    std::uint32_t numStatic = 0;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    const TraceRecord &operator[](DynIndex i) const { return records[i]; }

    /**
     * The shared per-trace view of these records, built on first use
     * (thread-safe; every caller gets the same object). Once a trace
     * has been prepared — simulated, in practice — its records must not
     * change: a call after records were appended or reallocated panics.
     */
    const PreparedTrace &prepared() const;

  private:
    detail::PreparedSlot prepared_;
};

/**
 * One branch path: records [begin, end) of the trace; the last record is
 * the exit conditional branch except possibly for the final path.
 */
struct BranchPath
{
    DynIndex begin = 0;
    DynIndex end = 0; ///< one past the last record
    bool endsInBranch = false;

    DynIndex size() const { return end - begin; }
    /** Index of the exit branch (only valid if endsInBranch). */
    DynIndex branchIndex() const { return end - 1; }
};

/** Splits a trace into branch paths at every conditional branch. */
std::vector<BranchPath> segmentPaths(const Trace &trace);

/** Aggregate statistics over a trace. */
struct TraceStats
{
    std::uint64_t instructions = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t taken = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t jumps = 0;
    double branchFraction = 0.0;  ///< cond branches / instructions
    double meanPathLength = 0.0;  ///< instructions per branch path

    std::string render() const;
};

/** Computes TraceStats in one pass. */
TraceStats computeStats(const Trace &trace);

} // namespace dee

#endif // DEE_TRACE_TRACE_HH
