/**
 * @file
 * AddressIds: dense ids for 64-bit addresses, in first-touch order.
 *
 * The one address table of the repository. The interpreter and the Levo
 * machine number the words a run touches with it (exec/execute.hh), and
 * the prepared trace numbers its loads' and stores' addresses with it
 * (trace/prepared.hh), so that no hot loop hashes an address into a
 * node-allocating map.
 */

#ifndef DEE_COMMON_ADDRESS_IDS_HH
#define DEE_COMMON_ADDRESS_IDS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace dee
{

/**
 * Dense address ids from 1, in first-touch order, from an
 * open-addressing linear-probe table (id 0 marks an empty slot) that
 * doubles as it hands out ids, keeping its load factor at most 1/2.
 */
class AddressIds
{
  public:
    AddressIds() { rehash(16); }

    /** The id of @p addr, handing out the next one on its first
     *  touch. */
    [[gnu::always_inline]] std::uint32_t
    idOf(std::uint64_t addr)
    {
        const std::uint64_t h = slotOf(addr);
        return ids_[h] != 0 ? ids_[h] : add(addr, h);
    }

    /** The id of @p addr, or 0 when none was handed out for it. */
    [[gnu::always_inline]] std::uint32_t
    find(std::uint64_t addr) const
    {
        return ids_[slotOf(addr)];
    }

    /** Ids handed out so far plus the reserved id 0: the size of a
     *  table indexed by id. */
    std::uint32_t count() const { return next_; }

    /** Calls @p visit(addr, id) once per id handed out, in table
     *  order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (std::size_t s = 0; s < ids_.size(); ++s) {
            if (ids_[s] != 0)
                visit(keys_[s], ids_[s]);
        }
    }

  private:
    /** splitmix64 finalizer — full-avalanche address hashing. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    /** The slot of @p addr: its own, or the empty one ending its probe
     *  sequence. */
    std::uint64_t
    slotOf(std::uint64_t addr) const
    {
        std::uint64_t h = mix(addr) & mask_;
        while (ids_[h] != 0 && keys_[h] != addr)
            h = (h + 1) & mask_;
        return h;
    }

    /** Hands @p addr, whose probe sequence ends at empty slot @p h,
     *  the next id. Kept out of line, so that idOf() inlines into the
     *  loops that number every load and store. */
    [[gnu::noinline]] std::uint32_t
    add(std::uint64_t addr, std::uint64_t h)
    {
        dee_assert(next_ != 0, "more than 2^32 - 1 distinct addresses");
        if (2 * std::uint64_t{next_} > mask_ + 1) {
            rehash(2 * (mask_ + 1));
            h = slotOf(addr);
        }
        keys_[h] = addr;
        ids_[h] = next_;
        return next_++;
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

} // namespace dee

#endif // DEE_COMMON_ADDRESS_IDS_HH
