/**
 * @file
 * Packed bit vector (BitVec64), the fast simulation engine's per-path
 * set representation.
 */

#ifndef DEE_COMMON_BIT_MATRIX_HH
#define DEE_COMMON_BIT_MATRIX_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace dee
{

/**
 * Packed bit vector over uint64 words with popcount/ctz scans: the
 * per-path set representation of the fast simulation engine
 * (ends-in-branch, prediction-correctness and mispredict sets over
 * branch paths).
 *
 * Element order is LSB-first within each word, so forEachSet() visits
 * indices in ascending order — the property the engines rely on for
 * deterministic, grid-ordered iteration.
 */
class BitVec64
{
  public:
    explicit BitVec64(std::size_t size = 0)
        : size_(size), words_((size + 63) / 64, 0)
    {
    }

    std::size_t size() const { return size_; }
    std::size_t numWords() const { return words_.size(); }

    std::uint64_t
    word(std::size_t w) const
    {
        dee_assert(w < words_.size(), "BitVec64 word ", w, " out of ",
                   words_.size());
        return words_[w];
    }

    bool
    test(std::size_t i) const
    {
        dee_assert(i < size_, "BitVec64 index ", i, " out of ", size_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::size_t i)
    {
        dee_assert(i < size_, "BitVec64 index ", i, " out of ", size_);
        words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    void
    reset(std::size_t i)
    {
        dee_assert(i < size_, "BitVec64 index ", i, " out of ", size_);
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    void
    assign(std::size_t i, bool v)
    {
        if (v)
            set(i);
        else
            reset(i);
    }

    /** Clears every bit, keeping the size. */
    void
    clear()
    {
        words_.assign(words_.size(), 0);
    }

    /** Number of set bits (word-parallel popcount). */
    std::size_t
    popcount() const
    {
        std::size_t n = 0;
        for (const std::uint64_t w : words_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** In-place intersection; sizes must match. */
    void
    andWith(const BitVec64 &other)
    {
        dee_assert(other.size_ == size_, "BitVec64 size mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= other.words_[w];
    }

    /** In-place union; sizes must match. */
    void
    orWith(const BitVec64 &other)
    {
        dee_assert(other.size_ == size_, "BitVec64 size mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] |= other.words_[w];
    }

    /** In-place difference (this &= ~other); sizes must match. */
    void
    andNotWith(const BitVec64 &other)
    {
        dee_assert(other.size_ == size_, "BitVec64 size mismatch");
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~other.words_[w];
    }

    /** The first set index at or after @p from; size() when none. */
    std::size_t
    nextSet(std::size_t from) const
    {
        if (from >= size_)
            return size_;
        std::size_t w = from >> 6;
        std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == words_.size())
                return size_;
            bits = words_[w];
        }
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }

    /** Calls @p fn with every set index, ascending, via ctz scan. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const int b = std::countr_zero(bits);
                fn((w << 6) + static_cast<std::size_t>(b));
                bits &= bits - 1; // clear lowest set bit
            }
        }
    }

  private:
    std::size_t size_;
    std::vector<std::uint64_t> words_;
};

} // namespace dee

#endif // DEE_COMMON_BIT_MATRIX_HH
