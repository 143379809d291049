/**
 * @file
 * Packed binary spike vector.
 *
 * A BitVector models one row of a spike matrix: a fixed number of bits
 * packed into 64-bit words. The operations mirror exactly what the
 * Prosperity hardware performs on spike rows: popcount (the detector's
 * number-of-ones), subset test (the TCAM match) and bit-scan-forward
 * (the Processor's address decode); the residual pattern row ^ prefix
 * is formed on tile words (TileWords). The per-word loops live in
 * bitmatrix/word_kernels.h; popcount runs through the runtime SIMD
 * dispatch (bitmatrix/simd_dispatch.h) at whatever tier the host
 * supports, the other queries call the scalar loops directly.
 *
 * @par Word layout
 * Bit `pos` lives in `words()[pos / 64]` at bit `pos % 64` (little-endian
 * within and across words). `words().size() == wordCount() ==
 * ceil(size() / 64)`, and the backing store holds exactly those words.
 * Vectors of at most kInlineWords words (<= 512 bits) store them inline
 * in the object — no heap allocation, so building a layer's spike
 * matrix (every row constructed, and the spike generator's repeated
 * time steps copied) costs no per-row heap traffic; wider vectors fall
 * back to one heap block.
 *
 * @par Tail-masking invariant
 * Bits of the last word at positions `>= size() % 64` (when `size()` is
 * not word-aligned) are always zero. The invariant cannot be bypassed:
 * every write that can introduce arbitrary out-of-range bits —
 * `setWord` and the word-batched `randomize`, i.e. all
 * word-granularity entry points future kernels would use — funnels
 * through one private masked-write path (`storeWord`) that discards
 * tail bits, while the remaining mutators preserve the invariant by
 * construction (`set` asserts `pos < size()`; AND/OR between
 * canonical equal-width operands yield canonical words). The invariant
 * is what makes `hash()`, `operator==`, and the word kernels canonical:
 * equal bit content implies equal words.
 */

#ifndef PROSPERITY_BITMATRIX_BIT_VECTOR_H
#define PROSPERITY_BITMATRIX_BIT_VECTOR_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/logging.h"
#include "sim/rng.h"

namespace prosperity {

/** A fixed-width vector of bits packed into 64-bit words. */
class BitVector
{
  public:
    /** Widest vector, in words, whose words are stored in-object. */
    static constexpr std::size_t kInlineWords = 8;

    /** Construct an all-zero vector of `bits` bits. */
    explicit BitVector(std::size_t bits = 0);

    BitVector(const BitVector& other);
    BitVector(BitVector&& other) noexcept;
    BitVector& operator=(const BitVector& other);
    BitVector& operator=(BitVector&& other) noexcept;
    ~BitVector() = default;

    /**
     * Construct from a string of '0'/'1' characters, most significant
     * position first matching the paper's figures, e.g. "1001" sets
     * bit 0 and bit 3.
     */
    static BitVector fromString(const std::string& pattern);

    /** Number of bits. */
    std::size_t size() const { return bits_; }

    /** Read bit `pos`. */
    bool test(std::size_t pos) const
    {
        PROSPERITY_ASSERT(pos < bits_, "bit index out of range");
        return (data()[pos / 64] >> (pos % 64)) & 1ULL;
    }

    /**
     * Set bit `pos` to `value`. Inline: the spike generator sets each
     * clustered row's spikes bit by bit, so this sits in a hot loop.
     */
    void set(std::size_t pos, bool value = true)
    {
        PROSPERITY_ASSERT(pos < bits_, "bit index out of range");
        // In-range single-bit writes cannot touch the tail padding.
        const std::uint64_t mask = 1ULL << (pos % 64);
        if (value)
            data()[pos / 64] |= mask;
        else
            data()[pos / 64] &= ~mask;
    }

    /** Clear every bit. */
    void clear();

    /** Number of set bits (the hardware popcount). */
    std::size_t popcount() const;

    /**
     * TCAM-style subset test: true when every set bit of this vector is
     * also set in `other` (this row's spike set is a subset of other's).
     * Implemented as (this & ~other) == 0 with early exit on the first
     * violating word.
     */
    bool isSubsetOf(const BitVector& other) const;

    /** Index of the lowest set bit, or size() when empty. */
    std::size_t findFirst() const;

    /** Index of the lowest set bit strictly above `pos`, or size(). */
    std::size_t findNext(std::size_t pos) const;

    /** Indices of all set bits in ascending order (the spike set S_i). */
    std::vector<std::size_t> setBits() const;

    BitVector operator&(const BitVector& other) const;
    BitVector operator|(const BitVector& other) const;
    /** this & ~other — the residual ProSparsity pattern. */
    BitVector andNot(const BitVector& other) const;

    BitVector& operator&=(const BitVector& other);
    BitVector& operator|=(const BitVector& other);

    bool operator==(const BitVector& other) const;
    bool operator!=(const BitVector& other) const = default;

    /**
     * Fill with Bernoulli(p) bits from `rng`, one whole word per batch
     * of draws (Rng::nextBernoulliWord) rather than bit by bit.
     *
     * @par Determinism
     * Output is a pure function of (`rng` state, `density`, size());
     * the number of raw draws consumed is ceil(size()/64) times
     * (Rng::kBernoulliBits minus the trailing zero digits of the
     * quantized density) — fixed per (density, size), so downstream
     * draws from the same stream stay reproducible.
     */
    void randomize(Rng& rng, double density);

    /** "1001"-style rendering used by tests and trace dumps. */
    std::string toString() const;

    /** 64-bit hash of contents (for exact-match grouping). */
    std::uint64_t hash() const;

    /**
     * Backing words, low bits first; the final word is zero-padded
     * (the tail-masking invariant above), so spans handed to the word
     * kernels never expose phantom bits.
     */
    std::span<const std::uint64_t> words() const
    {
        return {data(), word_count_};
    }

    /** Number of words, ceil(size() / 64). */
    std::size_t wordCount() const { return word_count_; }

    /**
     * Direct word write for bulk generators and kernels. Tail bits
     * beyond size() are discarded by the masked-write path — the
     * invariant holds even for garbage high bits in `value`.
     */
    void setWord(std::size_t index, std::uint64_t value);

  private:
    /**
     * The single masked-write path for word-granularity writes: every
     * word value of external origin (setWord, randomize, future
     * kernels) lands here, so the tail-masking invariant cannot be
     * bypassed.
     */
    void storeWord(std::size_t index, std::uint64_t value);

    /** All-ones mask of valid bits for word `index`. */
    std::uint64_t wordMask(std::size_t index) const;

    /** Backing words: inline up to kInlineWords, heap beyond. */
    const std::uint64_t* data() const
    {
        return heap_words_ ? heap_words_.get() : inline_words_;
    }
    std::uint64_t* data()
    {
        return heap_words_ ? heap_words_.get() : inline_words_;
    }

    std::size_t bits_ = 0;
    std::size_t word_count_ = 0; ///< ceil(bits_ / 64)
    /** In-object storage for vectors of at most kInlineWords words. */
    std::uint64_t inline_words_[kInlineWords] = {};
    /** Heap storage (word_count_ words) for wider vectors. */
    std::unique_ptr<std::uint64_t[]> heap_words_;
};

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_BIT_VECTOR_H
