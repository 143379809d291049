/**
 * @file
 * Packed binary spike vector.
 *
 * A BitVector models one row of a spike matrix: a fixed number of bits
 * packed into 64-bit words. The operations mirror exactly what the
 * Prosperity hardware performs on spike rows: popcount (the detector's
 * number-of-ones), subset test (the TCAM match), XOR (the residual
 * pattern row ^ prefix), and bit-scan-forward (the Processor's address
 * decode). The per-word loops live in bitmatrix/word_kernels.h (scalar
 * reference) and are executed through the runtime SIMD dispatch
 * (bitmatrix/simd_dispatch.h), so prefix selection runs the same fused
 * kernels — at whatever tier the host supports — over raw word spans.
 *
 * @par Word layout
 * Bit `pos` lives in `words()[pos / 64]` at bit `pos % 64` (little-endian
 * within and across words). `words().size() == ceil(size() / 64)`.
 *
 * @par Padded stride (SIMD layout contract)
 * The backing store is padded past the logical words up to a multiple
 * of kRowStrideWords (8 words = 512 bits, the widest vector tier), so
 * a kernel streaming whole 512-bit chunks from `words().data()` never
 * reads past the allocation at any logical width — every row span is
 * alignment-safe for full-vector loads. `wordCount()` is the logical
 * word count (== words().size()), `strideWords()` the padded one;
 * `paddedWords()` exposes the full stride. Pad words are always zero
 * (checked by the property tests), so handing the padded stride to
 * popcount / subset / any kernels cannot change their result.
 *
 * Vectors of at most one stride (<= 512 bits) store their words inline
 * in the object — no heap allocation, so copying a tile row of the
 * paper's 16 columns (BitMatrix::tile, the residual pattern) costs no
 * heap traffic; wider vectors fall back to one heap block of
 * strideWords() words.
 *
 * @par Tail-masking invariant
 * Bits of the last word at positions `>= size() % 64` (when `size()` is
 * not word-aligned) are always zero, and every pad word beyond
 * wordCount() is zero. The invariant cannot be bypassed: every write
 * that can introduce arbitrary out-of-range bits — `setWord` and the
 * word-batched `randomize`, i.e. all word-granularity entry points
 * future kernels would use — funnels through one private masked-write
 * path (`storeWord`) that discards tail bits, while the remaining
 * mutators preserve the invariant by construction (`set` asserts
 * `pos < size()`; AND/OR/XOR between canonical equal-width operands
 * yield canonical words, pad included). The invariant is what makes
 * `hash()`, `operator==`, and the word kernels canonical: equal bit
 * content implies equal words.
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
    /**
     * Row stride granularity in words: the backing store of every
     * non-empty vector is a multiple of this, sized for the widest
     * SIMD tier (512 bits).
     */
    static constexpr std::size_t kRowStrideWords = 8;

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

    /** Whether any bit is set. */
    bool any() const;

    /** Whether no bit is set. */
    bool none() const { return !any(); }

    /** Read bit `pos`. */
    bool test(std::size_t pos) const
    {
        PROSPERITY_ASSERT(pos < bits_, "bit index out of range");
        return (data()[pos / 64] >> (pos % 64)) & 1ULL;
    }

    /**
     * Set bit `pos` to `value`. Inline: BitMatrix::tile copies every
     * tile row bit by bit, so this sits in a hot loop.
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

    /**
     * 64-bit occupancy signature (see signatureWords): a one-word
     * necessary-condition prefilter for isSubsetOf. If A.isSubsetOf(B)
     * then `A.signature() & ~B.signature() == 0`; prefix selection rejects
     * most non-subset candidates on this single word operation.
     */
    std::uint64_t signature() const;

    /** Index of the lowest set bit, or size() when empty. */
    std::size_t findFirst() const;

    /** Index of the lowest set bit strictly above `pos`, or size(). */
    std::size_t findNext(std::size_t pos) const;

    /** Indices of all set bits in ascending order (the spike set S_i). */
    std::vector<std::size_t> setBits() const;

    /** Popcount of (this & other) without materializing the AND. */
    std::size_t andPopcount(const BitVector& other) const;

    BitVector operator&(const BitVector& other) const;
    BitVector operator|(const BitVector& other) const;
    BitVector operator^(const BitVector& other) const;
    /** this & ~other — the residual ProSparsity pattern. */
    BitVector andNot(const BitVector& other) const;

    BitVector& operator&=(const BitVector& other);
    BitVector& operator|=(const BitVector& other);
    BitVector& operator^=(const BitVector& other);

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
     * Logical backing words, low bits first; the final word is
     * zero-padded (the tail-masking invariant above), so spans handed
     * to the word kernels never expose phantom bits. The allocation
     * extends to strideWords() (see the padded-stride contract above),
     * so full-vector reads from `words().data()` up to the stride are
     * always in bounds.
     */
    std::span<const std::uint64_t> words() const
    {
        return {data(), word_count_};
    }

    /** Number of logical words, ceil(size() / 64). */
    std::size_t wordCount() const { return word_count_; }

    /**
     * Padded stride in words: wordCount() rounded up to
     * kRowStrideWords (0 for an empty vector).
     */
    std::size_t strideWords() const { return stride_words_; }

    /**
     * The whole padded stride, pad words included. Pad words are
     * always zero; kernels that are popcount/subset/any-shaped may
     * consume this span instead of words() to skip scalar tails.
     */
    std::span<const std::uint64_t> paddedWords() const
    {
        return {data(), stride_words_};
    }

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

    /**
     * Word count handed to the dispatched query kernels: the padded
     * stride for vectors of at least one stride (tail-free
     * whole-vector loops over zero pad), the logical count below that
     * (a 1-word row must not pay for an 8-word sweep).
     */
    std::size_t queryLen() const
    {
        return word_count_ >= kRowStrideWords ? stride_words_
                                              : word_count_;
    }

    /** Backing words: inline up to one stride, heap beyond. */
    const std::uint64_t* data() const
    {
        return heap_words_ ? heap_words_.get() : inline_words_;
    }
    std::uint64_t* data()
    {
        return heap_words_ ? heap_words_.get() : inline_words_;
    }

    std::size_t bits_ = 0;
    std::size_t word_count_ = 0; ///< logical words, ceil(bits_ / 64)
    std::size_t stride_words_ = 0; ///< padded to kRowStrideWords
    /** In-object storage for vectors of at most kRowStrideWords. */
    std::uint64_t inline_words_[kRowStrideWords] = {};
    /** Heap storage (stride_words_ words) for wider vectors. */
    std::unique_ptr<std::uint64_t[]> heap_words_;
};

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_BIT_VECTOR_H
