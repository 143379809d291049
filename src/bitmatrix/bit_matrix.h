/**
 * @file
 * Packed binary spike matrix and tiling.
 *
 * A BitMatrix is the unrolled spike activation of one SNN layer: the T
 * per-time-step spike matrices are concatenated along the row dimension
 * (Sec. II-A of the paper), giving a single (T*L) x K binary matrix that
 * multiplies a shared K x N weight matrix. Tiling (Sec. V-A) slices this
 * into m x k sub-matrices for the PPU, whose prefix search reads each
 * tile row (a k-bit TCAM word) in place: no tile is copied out.
 */

#ifndef PROSPERITY_BITMATRIX_BIT_MATRIX_H
#define PROSPERITY_BITMATRIX_BIT_MATRIX_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/rng.h"

namespace prosperity {

/**
 * A dense row-major matrix of bits in one contiguous word array. It is
 * the only packed-bit type: a free-standing row (a spike-generator bank
 * base, a test fixture) is a 1 x cols BitMatrix.
 *
 * @par Word layout and tail invariant
 * The matrix holds rows() x rowWords() 64-bit words, row-major, with
 * rowWords() = ceil(cols() / 64): bit (r, c) is bit c % 64 of
 * `row(r)[c / 64]`. Bits past cols() in each row's last word are zero.
 * row() hands out read-only spans, and every write goes through a
 * mutator that keeps the tail zero (set, copyRow, orRow, randomizeRow,
 * randomize), so the word kernels may stream any row, and equal bit
 * content means equal words.
 *
 * @par Determinism
 * randomizeRow() makes one Rng::nextBernoulliWords call over the row's
 * rowWords() words and masks the tail. It consumes rowWords() times
 * (Rng::kBernoulliBits minus the trailing zero digits of the quantized
 * density) draws, a number fixed per (density, cols()), so matrices
 * and every draw after them are reproducible per (rng state, shape,
 * density), and a 1 x cols matrix draws what any cols-wide row does.
 */
class BitMatrix
{
  public:
    BitMatrix() = default;

    /** Construct an all-zero matrix of `rows` x `cols` bits. */
    BitMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Words per row, ceil(cols() / 64). */
    std::size_t rowWords() const { return row_words_; }

    /**
     * Row `r`'s words, low bits first, tail zero-padded. The span is
     * returned const so that `m.row(r) = …` does not compile: rows are
     * written through the mutators.
     */
    const std::span<const std::uint64_t> row(std::size_t r) const
    {
        PROSPERITY_ASSERT(r < rows_, "row index out of range");
        return {words_.data() + r * row_words_, row_words_};
    }

    bool test(std::size_t r, std::size_t c) const
    {
        PROSPERITY_ASSERT(c < cols_, "column index out of range");
        return (row(r)[c / 64] >> (c % 64)) & 1ULL;
    }

    /**
     * Set bit (r, c) to `v`. Inline: the spike generator sets the
     * spikes a bank-prefix snapshot does not cover (at most 63 per
     * prefix) and every stray spike with it.
     */
    void set(std::size_t r, std::size_t c, bool v = true)
    {
        PROSPERITY_ASSERT(c < cols_, "column index out of range");
        std::uint64_t& word = rowData(r)[c / 64];
        const std::uint64_t mask = 1ULL << (c % 64);
        word = v ? word | mask : word & ~mask;
    }

    /** Overwrite row `dst` with row `src`. */
    void copyRow(std::size_t dst, std::size_t src);

    /**
     * OR row `src_row` of `src`, which must be cols() wide, into row
     * `r`, a word at a time. Equal widths mean equal tail masks, so
     * the tail stays zero.
     */
    void orRow(std::size_t r, const BitMatrix& src, std::size_t src_row);

    /**
     * Fill row `r` with Bernoulli(density) bits: one
     * Rng::nextBernoulliWords call over the row, then the tail mask.
     * Every word is overwritten, so a reused row needs no clearing.
     */
    void randomizeRow(std::size_t r, Rng& rng, double density);

    /** Fill every row with Bernoulli(density) bits, row by row. */
    void randomize(Rng& rng, double density);

    /** Total number of set bits. */
    std::size_t popcount() const;

    /** Fraction of bits set (the paper's bit density). */
    double density() const;

    bool operator==(const BitMatrix& other) const = default;

  private:
    std::uint64_t* rowData(std::size_t r)
    {
        PROSPERITY_ASSERT(r < rows_, "row index out of range");
        return words_.data() + r * row_words_;
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t row_words_ = 0;        ///< ceil(cols_ / 64)
    std::vector<std::uint64_t> words_; ///< rows_ * row_words_, row-major
};

/** Geometry of one spiking GeMM: (M x K) spikes times (K x N) weights. */
struct GemmShape
{
    std::size_t m = 0; ///< spike rows (time steps x spatial positions)
    std::size_t k = 0; ///< reduction dimension (input channels)
    std::size_t n = 0; ///< output columns (output channels)

    /**
     * How many GeMM input bits map to one stored activation bit. For
     * im2col-lowered convolutions this is kernel^2: the accelerator
     * fetches the feature map once from DRAM and materializes the
     * im2col duplication on chip, so off-chip spike traffic is the
     * GeMM operand size divided by this factor.
     */
    std::size_t input_reuse = 1;

    /** Dense multiply-accumulate count M*K*N. */
    double denseOps() const
    {
        return static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    }

    bool operator==(const GemmShape&) const = default;
};

/** Tile dimensions used by the PPU (paper default 256 x 128 x 16). */
struct TileConfig
{
    std::size_t m = 256; ///< spike rows per tile
    std::size_t n = 128; ///< output columns per tile (PE lanes)
    std::size_t k = 16;  ///< spike columns per tile (TCAM entry width)

    bool operator==(const TileConfig&) const = default;
};

/**
 * The tiles an analysis of one matrix visits: their (row0, col0)
 * origins, and how many of the matrix's tiles each visited one stands
 * for.
 */
struct TileSample
{
    std::vector<std::pair<std::size_t, std::size_t>> origins;
    double scale = 1.0;
};

/**
 * Tile origins of a `rows` x `cols` matrix, row-major (col0 varies
 * fastest); the tiles at the bottom and right edges are cropped by
 * their readers. When there are more than `max_tiles` tiles (and
 * max_tiles > 0), keeps the max_tiles origins at multiples of the
 * stride all/max_tiles, and sets `scale` to all/max_tiles so summed
 * per-tile counts extrapolate to the whole matrix. Each kept origin is
 * computed from its flat index, so memory grows with the kept tiles,
 * not with all of them.
 */
TileSample sampleTiles(std::size_t rows, std::size_t cols,
                       const TileConfig& tile, std::size_t max_tiles);

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_BIT_MATRIX_H
