#include "trace/trace.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace dee
{

namespace
{

/** A tuple's fields but memAddr, packed into two words. */
struct TupleKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    explicit TupleKey(const TraceRecord &r)
        : lo(r.sid | std::uint64_t{r.block} << 32),
          hi(static_cast<std::uint64_t>(r.op) |
             std::uint64_t{r.rd} << 8 | std::uint64_t{r.rs1} << 16 |
             std::uint64_t{r.rs2} << 24 |
             std::uint64_t{r.isBranch} << 32 |
             std::uint64_t{r.taken} << 33 |
             std::uint64_t{r.backward} << 34)
    {
    }

    bool operator==(const TupleKey &) const = default;

    /** splitmix64-style finalizer over both words. */
    std::uint64_t
    hash() const
    {
        std::uint64_t x = lo ^ (hi * 0x9e3779b97f4a7c15ull);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }
};

} // namespace

RecordStore &
RecordStore::operator=(std::initializer_list<TraceRecord> records)
{
    clear();
    for (const TraceRecord &rec : records)
        push_back(rec);
    return *this;
}

std::uint32_t
RecordStore::addEntry(const TraceRecord &tuple)
{
    dee_assert(entries_.size() < UINT32_MAX, "entry table is full");
    entries_.push_back(tuple);
    entries_.back().memAddr = 0;
    return static_cast<std::uint32_t>(entries_.size() - 1);
}

std::uint32_t
RecordStore::internEntry(const TraceRecord &tuple)
{
    // Keep the load factor at most 1/2: rebuild at twice the size
    // when the entries (indexed or not) would pass it.
    if (2 * (entries_.size() + 1) > index_.size()) {
        std::size_t cap = 16;
        while (cap < 4 * (entries_.size() + 1))
            cap <<= 1;
        index_.assign(cap, 0);
        indexed_ = 0;
    }
    const std::size_t mask = index_.size() - 1;
    // Finds the slot of @p key: its entry's, or the empty one ending
    // its probe sequence.
    auto slotOf = [&](const TupleKey &key) {
        std::size_t h = key.hash() & mask;
        while (index_[h] != 0 &&
               !(TupleKey(entries_[index_[h] - 1]) == key))
            h = (h + 1) & mask;
        return h;
    };
    // Entries added by addEntry() since the last call; a duplicate
    // keeps the first id.
    for (; indexed_ < entries_.size(); ++indexed_) {
        const std::size_t h = slotOf(TupleKey(entries_[indexed_]));
        if (index_[h] == 0)
            index_[h] = static_cast<std::uint32_t>(indexed_ + 1);
    }
    const std::size_t h = slotOf(TupleKey(tuple));
    if (index_[h] == 0) {
        index_[h] = addEntry(tuple) + 1;
        indexed_ = entries_.size();
    }
    return index_[h] - 1;
}

void
RecordStore::push_back(const TraceRecord &rec)
{
    append(internEntry(rec), rec.memAddr);
}

void
RecordStore::addChunk()
{
    idChunks_.emplace_back();
    idChunks_.back().reserve(kChunkRecords);
}

void
RecordStore::reserve(std::size_t n)
{
    for (std::size_t k = 0; k * kChunkRecords < n; ++k) {
        if (k == idChunks_.size())
            idChunks_.emplace_back();
        idChunks_[k].reserve(std::min(kChunkRecords, n - k * kChunkRecords));
    }
    addrWords_.reserve((n + 63) / 64);
}

void
RecordStore::shrink_to_fit()
{
    // Chunks past the last record hold none; a full chunk moves only if
    // reserve() let it grow past kChunkRecords.
    idChunks_.resize((size_ + kChunkRecords - 1) / kChunkRecords);
    for (std::vector<std::uint32_t> &chunk : idChunks_)
        chunk.shrink_to_fit();
    idChunks_.shrink_to_fit();
    entries_.shrink_to_fit();
    addrWords_.shrink_to_fit();
    addrs_.shrink_to_fit();
}

std::size_t
RecordStore::capacity() const
{
    std::size_t records = 0;
    for (const std::vector<std::uint32_t> &chunk : idChunks_)
        records += chunk.capacity();
    return records;
}

void
RecordStore::clear()
{
    entries_.clear();
    idChunks_.clear();
    size_ = 0;
    addrWords_.clear();
    addrs_.clear();
    index_.clear();
    indexed_ = 0;
}

std::size_t
RecordStore::bytes() const
{
    return entries_.capacity() * sizeof(TraceRecord) +
           capacity() * sizeof(std::uint32_t) +
           idChunks_.capacity() * sizeof(idChunks_[0]) +
           addrWords_.capacity() * sizeof(AddrWord) +
           addrs_.capacity() * sizeof(std::uint64_t) +
           index_.capacity() * sizeof(std::uint32_t);
}

std::vector<BranchPath>
segmentPaths(const Trace &trace)
{
    std::vector<BranchPath> paths;
    DynIndex begin = 0;
    for (DynIndex i = 0; i < trace.records.size(); ++i) {
        if (trace.records[i].isBranch) {
            paths.push_back(BranchPath{begin, i + 1, true});
            begin = i + 1;
        }
    }
    if (begin < trace.records.size())
        paths.push_back(
            BranchPath{begin, static_cast<DynIndex>(trace.records.size()),
                       false});
    return paths;
}

TraceStats
computeStats(const Trace &trace)
{
    TraceStats s;
    s.instructions = trace.records.size();
    for (const auto &r : trace.records) {
        switch (opClass(r.op)) {
          case OpClass::CondBranch:
            ++s.condBranches;
            if (r.taken)
                ++s.taken;
            break;
          case OpClass::Load:
            ++s.loads;
            break;
          case OpClass::Store:
            ++s.stores;
            break;
          case OpClass::Jump:
            ++s.jumps;
            break;
          default:
            break;
        }
    }
    if (s.instructions > 0) {
        s.branchFraction = static_cast<double>(s.condBranches) /
                           static_cast<double>(s.instructions);
    }
    if (s.condBranches > 0) {
        s.meanPathLength = static_cast<double>(s.instructions) /
                           static_cast<double>(s.condBranches);
    }
    return s;
}

std::string
TraceStats::render() const
{
    std::ostringstream oss;
    oss << "instructions:   " << instructions << "\n"
        << "cond branches:  " << condBranches << " ("
        << 100.0 * branchFraction << "% of instructions)\n"
        << "taken:          " << taken << "\n"
        << "loads:          " << loads << "\n"
        << "stores:         " << stores << "\n"
        << "jumps:          " << jumps << "\n"
        << "mean path len:  " << meanPathLength << " instructions\n";
    return oss.str();
}

} // namespace dee
