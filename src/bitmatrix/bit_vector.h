/**
 * @file
 * Packed binary spike vector.
 *
 * A BitVector is one free-standing spike train or spike row: a fixed
 * number of bits packed into 64-bit words. The spike generator draws
 * its bank patterns into one, the LIF and FS neurons emit and decode
 * them, and BitMatrix::setRow / fromStrings copy them into a matrix.
 * A layer's spike matrix is not built from BitVectors: BitMatrix keeps
 * all its rows in one contiguous word array (bitmatrix/bit_matrix.h),
 * and the word kernels (bitmatrix/word_kernels.h) read its row spans.
 *
 * @par Word layout
 * Bit `pos` lives in `words()[pos / 64]` at bit `pos % 64` (little-endian
 * within and across words); `words().size() == ceil(size() / 64)`.
 *
 * @par Tail-masking invariant
 * Bits of the last word at positions `>= size() % 64` (when `size()` is
 * not word-aligned) are always zero: `set` asserts `pos < size()`, and
 * `randomize` masks the last word after its word-batched draw. Equal
 * bit content therefore means equal words, which is what makes
 * `operator==` and the word kernels canonical.
 */

#ifndef PROSPERITY_BITMATRIX_BIT_VECTOR_H
#define PROSPERITY_BITMATRIX_BIT_VECTOR_H

#include <cstdint>
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
    /** Construct an all-zero vector of `bits` bits. */
    explicit BitVector(std::size_t bits = 0)
        : bits_(bits), words_((bits + 63) / 64, 0)
    {
    }

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
        return (words_[pos / 64] >> (pos % 64)) & 1ULL;
    }

    /** Set bit `pos` to `value`. */
    void set(std::size_t pos, bool value = true)
    {
        PROSPERITY_ASSERT(pos < bits_, "bit index out of range");
        // In-range single-bit writes cannot touch the tail padding.
        const std::uint64_t mask = 1ULL << (pos % 64);
        if (value)
            words_[pos / 64] |= mask;
        else
            words_[pos / 64] &= ~mask;
    }

    /** Indices of all set bits in ascending order (the spike set S_i). */
    std::vector<std::size_t> setBits() const;

    /**
     * Fill with Bernoulli(p) bits from `rng`: one
     * Rng::nextBernoulliWords call over the whole vector, then the
     * tail mask.
     *
     * @par Determinism
     * Output is a pure function of (`rng` state, `density`, size());
     * the number of raw draws consumed is ceil(size()/64) times
     * (Rng::kBernoulliBits minus the trailing zero digits of the
     * quantized density) — fixed per (density, size), so downstream
     * draws from the same stream stay reproducible.
     * BitMatrix::randomizeRow draws exactly the same.
     */
    void randomize(Rng& rng, double density);

    /** Backing words, low bits first; the final word is zero-padded. */
    std::span<const std::uint64_t> words() const { return words_; }

    bool operator==(const BitVector& other) const = default;

  private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_; ///< ceil(bits_ / 64)
};

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_BIT_VECTOR_H
