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
 * linear-probe table (id 0 marks an empty slot) sized to a load factor
 * of at most 1/2. Lives only while a trace is being prepared.
 */
class AddressIds
{
  public:
    explicit AddressIds(std::uint64_t mem_ops)
    {
        std::uint64_t cap = 16;
        while (cap < 2 * mem_ops)
            cap <<= 1;
        mask_ = cap - 1;
        keys_.assign(cap, 0);
        ids_.assign(cap, 0);
    }

    std::uint32_t
    idOf(std::uint64_t addr)
    {
        std::uint64_t h = mixAddr(addr) & mask_;
        while (ids_[h] != 0) {
            if (keys_[h] == addr)
                return ids_[h];
            h = (h + 1) & mask_;
        }
        dee_assert(next_ != 0, "more than 2^32 - 1 distinct addresses");
        keys_[h] = addr;
        ids_[h] = next_;
        return next_++;
    }

    /** Ids handed out so far plus the reserved id 0. */
    std::uint32_t count() const { return next_; }

  private:
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> ids_;
    std::uint64_t mask_ = 0;
    std::uint32_t next_ = 1;
};

} // namespace

PreparedTrace::PreparedTrace(const Trace &trace)
{
    const RecordStore &store = trace.records;
    const std::vector<TraceRecord> &entries = store.entries();
    size_ = store.size();
    for (const std::vector<std::uint32_t> &chunk : store.idChunks())
        idChunks_.push_back(chunk.data());

    // Everything but the memory id is a fact of the record's entry.
    entryDecode_.resize(entries.size());
    blockOf_.resize(entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
        const TraceRecord &t = entries[e];
        DecodedInstr &d = entryDecode_[e];
        d.src1 = srcSlot(t.rs1);
        d.src2 = srcSlot(t.rs2);
        d.dst = dstSlot(t.rd);
        d.cls = opClass(t.op);
        blockOf_[e] = t.block;
    }
    std::vector<std::uint64_t> uses(entries.size(), 0);
    for (const std::vector<std::uint32_t> &chunk : store.idChunks()) {
        for (const std::uint32_t e : chunk)
            ++uses[e];
    }
    std::uint64_t mem_ops = 0;
    std::uint64_t branches = 0;
    for (std::size_t e = 0; e < entries.size(); ++e) {
        if (takesMemId(entryDecode_[e].cls))
            mem_ops += uses[e];
        if (entries[e].isBranch)
            branches += uses[e];
    }

    AddressIds addr_ids(mem_ops);
    memIds_.reserve(mem_ops + 1);
    exits_.reserve(branches);
    bounds_.reserve(branches + 2);
    bounds_.push_back(0);
    for (std::uint64_t i = 0; i < size_; ++i) {
        const std::uint32_t e = store.id(i);
        if (takesMemId(entryDecode_[e].cls))
            memIds_.push_back(addr_ids.idOf(store.memAddr(i)));
        const TraceRecord &t = entries[e];
        if (t.isBranch) {
            bounds_.push_back(i + 1);
            exits_.push_back(PathExit{t.sid, t.block, t.taken, t.backward});
        }
    }
    memIds_.push_back(0);
    if (bounds_.back() < size_)
        bounds_.push_back(size_);
    numMemIds_ = addr_ids.count();
}

PreparedTrace::~PreparedTrace() = default;

std::size_t
PreparedTrace::bytes() const
{
    return idChunks_.capacity() * sizeof(idChunks_[0]) +
           entryDecode_.capacity() * sizeof(DecodedInstr) +
           blockOf_.capacity() * sizeof(BlockId) +
           bounds_.capacity() * sizeof(DynIndex) +
           exits_.capacity() * sizeof(PathExit) +
           memIds_.capacity() * sizeof(std::uint32_t);
}

bool
PreparedTrace::describes(const Trace &trace) const
{
    const auto &chunks = trace.records.idChunks();
    if (trace.records.size() != size_ ||
        chunks.size() != idChunks_.size())
        return false;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
        if (chunks[k].data() != idChunks_[k])
            return false;
    }
    return true;
}

const std::vector<DynIndex> &
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
    const std::uint64_t n = size();
    const std::uint64_t num_paths = numPaths();
    const std::size_t num_blocks = cfg.numBlocks();
    std::vector<DynIndex> &join_idx = entry->joinIdx;
    join_idx.assign(num_paths, n);
    std::vector<DynIndex> next_occ(num_blocks + 1, n);
    for (std::uint64_t k = num_paths; k-- > 0;) {
        const BranchPath p = path(k);
        if (p.endsInBranch) {
            const BlockId ipdom = cfg.ipostdom(exits_[k].block);
            if (ipdom < num_blocks)
                join_idx[k] = next_occ[ipdom];
        }
        for (DynIndex i = p.end; i-- > p.begin;) {
            const BlockId block = blockOf_[entryId(i)];
            dee_assert(block <= num_blocks, "record ", i, " runs block ",
                       block, " of a ", num_blocks, "-block Cfg");
            next_occ[block] = i;
        }
    }
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
