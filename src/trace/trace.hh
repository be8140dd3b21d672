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
 * A trace holds its records in a RecordStore, not as TraceRecords: every
 * field but the branch outcome and the address is a function of the
 * static instruction, so each record is a 4-byte id into a per-trace
 * table of the distinct static tuples it has seen, plus its address when
 * that is non-zero — ~5 bytes per record instead of 32. Reads rebuild a
 * TraceRecord by value; the encoding is lossless for any record sequence.
 *
 * A branch path — the unit in which the paper counts resources — is "the
 * dynamic code between branches, including the exit branch"
 * (Section 1.2/2). segmentPaths() splits a trace accordingly.
 *
 * Trace::prepared() adds the per-trace view the simulators share
 * (trace/prepared.hh): paths, exit branches, the decode of each store
 * entry, memory ids and join points, built once on first use instead
 * of once per cell.
 */

#ifndef DEE_TRACE_TRACE_HH
#define DEE_TRACE_TRACE_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
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

/**
 * The records of one trace in compact, lossless form (see the file
 * comment), behind the read-mostly part of the std::vector API.
 *
 *  - entries(): the distinct (sid, block, op, rd, rs1, rs2, isBranch,
 *    taken, backward) tuples, in first-seen order; memAddr is 0 in
 *    every entry. Entry ids index it.
 *  - the id buffer: one entry id per record, in chunks of kChunkRecords
 *    (idChunks()). It grows a chunk at a time, so appending never
 *    copies it and touches each page once.
 *  - addresses: the non-zero memAddrs in record order, found in O(1)
 *    through one presence bit per record and a running count per 64.
 *
 * Reads return TraceRecord by value and change nothing, so any number of
 * threads may read one store at once. push_back() finds a record's entry
 * through a hash index that it builds and extends itself; the
 * interpreter bypasses it with addEntry()/append(), because it already
 * knows which (static instruction, outcome) pairs it has seen.
 */
class RecordStore
{
  public:
    /** Input iterator over the records, by value. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = TraceRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = TraceRecord;

        const_iterator(const RecordStore *store, std::size_t i)
            : store_(store), i_(i)
        {
        }

        TraceRecord operator*() const { return (*store_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const RecordStore *store_;
        std::size_t i_;
    };

    RecordStore &operator=(std::initializer_list<TraceRecord> records);

    /** Records per chunk of the id buffer (256 KB of ids). */
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    TraceRecord
    operator[](std::size_t i) const
    {
        TraceRecord rec = entries_[id(i)];
        rec.memAddr = memAddr(i);
        return rec;
    }

    TraceRecord back() const { return (*this)[size() - 1]; }

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size()); }

    /** Appends @p rec, reusing an equal entry when there is one. */
    void push_back(const TraceRecord &rec);

    /** Room for @p n records without moving any chunk of the id
     *  buffer. */
    void reserve(std::size_t n);
    /** Releases unused capacity; a chunk with slack moves. */
    void shrink_to_fit();
    /** Records the id buffer holds before a chunk moves or is added. */
    std::size_t capacity() const;
    /** Removes every record and entry. */
    void clear();

    /** The distinct static tuples, indexed by entry id. */
    const std::vector<TraceRecord> &entries() const { return entries_; }

    /** Entry id of record @p i. */
    std::uint32_t
    id(std::size_t i) const
    {
        return idChunks_[i / kChunkRecords][i % kChunkRecords];
    }

    /** The id buffer: chunk k holds the ids of records from
     *  k * kChunkRecords on (reserve() may leave empty chunks past the
     *  last record). */
    const std::vector<std::vector<std::uint32_t>> &
    idChunks() const
    {
        return idChunks_;
    }

    /** Record @p i's memAddr. */
    std::uint64_t
    memAddr(std::size_t i) const
    {
        const AddrWord &w = addrWords_[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if ((w.bits & bit) == 0)
            return 0;
        return addrs_[w.before + std::popcount(w.bits & (bit - 1))];
    }

    /**
     * Appends @p tuple's fields but memAddr as a new entry, without
     * looking for an equal one; returns its id.
     */
    std::uint32_t addEntry(const TraceRecord &tuple);

    /** Appends a record of entry @p id, an id addEntry() or
     *  push_back() returned, at address @p addr. */
    void
    append(std::uint32_t id, std::uint64_t addr)
    {
        const std::size_t i = size_++;
        if (i / kChunkRecords == idChunks_.size())
            addChunk();
        idChunks_[i / kChunkRecords].push_back(id);
        if (i % 64 == 0)
            addrWords_.push_back(AddrWord{0, addrs_.size()});
        if (addr != 0) {
            addrWords_.back().bits |= std::uint64_t{1} << (i % 64);
            addrs_.push_back(addr);
        }
    }

    /** Heap bytes the store holds, counting allocated capacity. */
    std::size_t bytes() const;

  private:
    /** Which of 64 records carry an address, and how many before. */
    struct AddrWord
    {
        std::uint64_t bits = 0;
        std::uint64_t before = 0;
    };

    std::uint32_t internEntry(const TraceRecord &tuple);
    void addChunk();

    std::vector<TraceRecord> entries_;
    std::vector<std::vector<std::uint32_t>> idChunks_;
    std::size_t size_ = 0;
    std::vector<AddrWord> addrWords_;
    std::vector<std::uint64_t> addrs_;
    /** push_back()'s open-addressing index of entries_ (entry id + 1;
     *  0 marks an empty slot); covers entries [0, indexed_). */
    std::vector<std::uint32_t> index_;
    std::size_t indexed_ = 0;
};

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
    RecordStore records;
    /** Static instruction count of the generating program. */
    std::uint32_t numStatic = 0;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    TraceRecord operator[](DynIndex i) const { return records[i]; }

    /**
     * The shared per-trace view of these records, built on first use
     * (thread-safe; every caller gets the same object). Once a trace
     * has been prepared — simulated, in practice — its records must not
     * change: a call after records were appended or the id buffer moved
     * panics.
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
