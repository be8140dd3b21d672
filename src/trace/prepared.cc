#include "trace/prepared.hh"

#include "cfg/cfg.hh"
#include "common/logging.hh"

namespace dee
{

namespace
{

inline std::uint8_t
srcSlot(RegId r)
{
    return (r == kNoReg || r == kZeroReg) ? kZeroSlot : r;
}

inline std::uint8_t
dstSlot(RegId r)
{
    return (r == kNoReg || r == kZeroReg) ? kSinkSlot : r;
}

/** splitmix64 finalizer — full-avalanche address hashing. */
inline std::uint64_t
mixAddr(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Dense address ids in first-touch order, from an open-addressing
 * linear-probe table (id 0 marks an empty slot) that doubles as it
 * hands out ids, keeping its load factor at most 1/2. Lives only while
 * a trace is being prepared.
 */
class AddressIds
{
  public:
    AddressIds() { rehash(16); }

    std::uint32_t
    idOf(std::uint64_t addr)
    {
        std::uint64_t h = slotOf(addr);
        if (ids_[h] != 0)
            return ids_[h];
        dee_assert(next_ != 0, "more than 2^32 - 1 distinct addresses");
        if (2 * std::uint64_t{next_} > mask_ + 1) {
            rehash(2 * (mask_ + 1));
            h = slotOf(addr);
        }
        keys_[h] = addr;
        ids_[h] = next_;
        return next_++;
    }

    /** Ids handed out so far plus the reserved id 0. */
    std::uint32_t count() const { return next_; }

  private:
    /** The slot of @p addr: its own, or the empty one ending its probe
     *  sequence. */
    std::uint64_t
    slotOf(std::uint64_t addr) const
    {
        std::uint64_t h = mixAddr(addr) & mask_;
        while (ids_[h] != 0 && keys_[h] != addr)
            h = (h + 1) & mask_;
        return h;
    }

    /** Moves every id into a table of @p cap slots. */
    void
    rehash(std::uint64_t cap)
    {
        std::vector<std::uint64_t> keys(cap, 0);
        std::vector<std::uint32_t> ids(cap, 0);
        keys.swap(keys_);
        ids.swap(ids_);
        mask_ = cap - 1;
        for (std::size_t s = 0; s < ids.size(); ++s) {
            if (ids[s] != 0) {
                const std::uint64_t h = slotOf(keys[s]);
                keys_[h] = keys[s];
                ids_[h] = ids[s];
            }
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> ids_;
    std::uint64_t mask_ = 0;
    std::uint32_t next_ = 1;
};

} // namespace

void
checkPreparable(std::uint64_t records)
{
    if (records > UINT32_MAX) {
        dee_fatal("a trace of ", records, " records cannot be prepared: ",
                  "the prepared view holds record indices in 32 bits, so "
                  "a trace must have fewer than 2^32 (4294967296) records");
    }
}

PreparedTrace::PreparedTrace(const Trace &trace)
{
    const RecordStore &store = trace.records;
    checkPreparable(store.size());
    const std::vector<TraceRecord> &entries = store.entries();
    size_ = store.size();
    for (const std::vector<std::uint8_t> &chunk : store.idChunks())
        idChunks_.push_back(chunk.data());
    idWidth_ = store.idWidth();

    // Everything but the memory id is a fact of the record's entry.
    entryDecode_.resize(entries.size());
    entryExit_.resize(entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        const TraceRecord &t = entries[e];
        DecodedInstr &d = entryDecode_[e];
        d.src1 = srcSlot(t.rs1);
        d.src2 = srcSlot(t.rs2);
        d.dst = dstSlot(t.rd);
        d.cls = opClass(t.op);
        entryExit_[e] = PathExit{t.sid, t.block, t.taken, t.backward};
    }
    AddressIds addr_ids;
    withIdType(idWidth_, [&](auto type) {
        using Id = decltype(type);
        std::vector<std::uint64_t> uses(entries.size(), 0);
        for (std::uint64_t i = 0; i < size_; ++i)
            ++uses[entryIdAs<Id>(i)];
        std::uint64_t mem_ops = 0;
        for (std::size_t e = 0; e < entries.size(); ++e) {
            if (takesMemId(entryDecode_[e].cls))
                mem_ops += uses[e];
            if (entries[e].isBranch)
                numBranches_ += uses[e];
        }

        memIds_.reserve(mem_ops + 1);
        bounds_.reserve(numBranches_ + 2);
        bounds_.push_back(0);
        for (std::uint64_t i = 0; i < size_; ++i) {
            const std::uint32_t e = entryIdAs<Id>(i);
            if (takesMemId(entryDecode_[e].cls))
                memIds_.push_back(addr_ids.idOf(store.memAddr(i)));
            if (entries[e].isBranch)
                bounds_.push_back(static_cast<std::uint32_t>(i + 1));
        }
    });
    memIds_.push_back(0);
    if (bounds_.back() < size_)
        bounds_.push_back(static_cast<std::uint32_t>(size_));
    numMemIds_ = addr_ids.count();
}

PreparedTrace::~PreparedTrace() = default;

std::size_t
PreparedTrace::bytes() const
{
    return idChunks_.capacity() * sizeof(idChunks_[0]) +
           entryDecode_.capacity() * sizeof(DecodedInstr) +
           entryExit_.capacity() * sizeof(PathExit) +
           bounds_.capacity() * sizeof(std::uint32_t) +
           memIds_.capacity() * sizeof(std::uint32_t);
}

bool
PreparedTrace::describes(const Trace &trace) const
{
    const auto &chunks = trace.records.idChunks();
    if (trace.records.size() != size_ ||
        trace.records.idWidth() != idWidth_ ||
        chunks.size() != idChunks_.size())
        return false;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
        if (chunks[k].data() != idChunks_[k])
            return false;
    }
    return true;
}

const std::vector<std::uint32_t> &
PreparedTrace::joinIndex(const Cfg &cfg) const
{
    const std::vector<BlockId> &ipostdoms = cfg.ipostdoms();
    const std::lock_guard<std::mutex> lock(joinMutex_);
    for (const auto &entry : joins_) {
        if (entry->ipostdoms == ipostdoms)
            return entry->joinIdx;
    }

    // A branch instance controls exactly the dynamic instructions
    // between itself and the first later occurrence of its block's
    // immediate postdominator. One backward sweep: next_occ[b] is the
    // first dynamic index of block b strictly after the sweep cursor,
    // so each branch reads its join point in O(1). A path's own
    // records are swept after its branch is queried — a branch's
    // block never joins at itself.
    auto entry = std::make_unique<JoinEntry>();
    entry->ipostdoms = ipostdoms;
    const auto n = static_cast<std::uint32_t>(size());
    const std::uint64_t num_paths = numPaths();
    const std::size_t num_blocks = cfg.numBlocks();
    std::vector<std::uint32_t> &join_idx = entry->joinIdx;
    join_idx.assign(num_paths, n);
    std::vector<std::uint32_t> next_occ(num_blocks + 1, n);
    withIdType(idWidth_, [&](auto type) {
        using Id = decltype(type);
        for (std::uint64_t k = num_paths; k-- > 0;) {
            const BranchPath p = path(k);
            if (p.endsInBranch) {
                const BlockId ipdom = cfg.ipostdom(
                    entryExit_[entryIdAs<Id>(p.branchIndex())].block);
                if (ipdom < num_blocks)
                    join_idx[k] = next_occ[ipdom];
            }
            for (DynIndex i = p.end; i-- > p.begin;) {
                const BlockId block = entryExit_[entryIdAs<Id>(i)].block;
                dee_assert(block <= num_blocks, "record ", i,
                           " runs block ", block, " of a ", num_blocks,
                           "-block Cfg");
                next_occ[block] = static_cast<std::uint32_t>(i);
            }
        }
    });
    joins_.push_back(std::move(entry));
    return joins_.back()->joinIdx;
}

PreparedTrace::Attachment::~Attachment() = default;

PreparedTrace::Attachment &
PreparedTrace::attachment(
    const std::function<std::unique_ptr<Attachment>()> &make) const
{
    const std::lock_guard<std::mutex> lock(attachMutex_);
    if (attachment_ == nullptr)
        attachment_ = make();
    return *attachment_;
}

namespace detail
{

PreparedSlot &
PreparedSlot::operator=(const PreparedSlot &other) noexcept
{
    if (this != &other)
        delete view_.exchange(nullptr);
    return *this;
}

PreparedSlot::PreparedSlot(PreparedSlot &&other) noexcept
    : view_(other.view_.exchange(nullptr))
{
}

PreparedSlot &
PreparedSlot::operator=(PreparedSlot &&other) noexcept
{
    if (this != &other)
        delete view_.exchange(other.view_.exchange(nullptr));
    return *this;
}

PreparedSlot::~PreparedSlot()
{
    delete view_.load();
}

const PreparedTrace &
PreparedSlot::get(const Trace &trace) const
{
    const PreparedTrace *view = view_.load(std::memory_order_acquire);
    if (view == nullptr) {
        const std::lock_guard<std::mutex> lock(mutex_);
        view = view_.load(std::memory_order_relaxed);
        if (view == nullptr) {
            view = new PreparedTrace(trace);
            view_.store(view, std::memory_order_release);
        }
    }
    return *view;
}

} // namespace detail

const PreparedTrace &
Trace::prepared() const
{
    const PreparedTrace &view = prepared_.get(*this);
    if (!view.describes(*this)) {
        dee_panic("trace records changed after the trace was prepared "
                  "(", view.size(), " records then, ", records.size(),
                  " now); prepared traces are immutable");
    }
    return view;
}

} // namespace dee
