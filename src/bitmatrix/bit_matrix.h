/**
 * @file
 * Packed binary spike matrix and tiling.
 *
 * A BitMatrix is the unrolled spike activation of one SNN layer: the T
 * per-time-step spike matrices are concatenated along the row dimension
 * (Sec. II-A of the paper), giving a single (T*L) x K binary matrix that
 * multiplies a shared K x N weight matrix. Tiling (Sec. V-A) slices this
 * into m x k sub-matrices for the PPU, each extracted as contiguous row
 * words (TileWords).
 */

#ifndef PROSPERITY_BITMATRIX_BIT_MATRIX_H
#define PROSPERITY_BITMATRIX_BIT_MATRIX_H

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bitmatrix/bit_vector.h"
#include "sim/rng.h"

namespace prosperity {

/**
 * A dense row-major matrix of bits; rows are BitVectors.
 *
 * @par Word layout and tail invariant
 * Each row is an independent BitVector of cols() bits: bit (r, c) lives
 * in `row(r).words()[c / 64]` at bit `c % 64`, and every row upholds
 * the BitVector tail-masking invariant (padding bits beyond cols() are
 * zero). Word-level kernels may therefore stream any row's words()
 * span directly.
 *
 * @par Determinism
 * randomize() consumes a shape-dependent but fixed number of draws per
 * row (see BitVector::randomize), so matrices are reproducible per
 * (rng state, shape, density) and equality / hashing over rows is
 * canonical.
 */
class BitMatrix
{
  public:
    BitMatrix() = default;

    /** Construct an all-zero matrix of `rows` x `cols` bits. */
    BitMatrix(std::size_t rows, std::size_t cols);

    /**
     * Construct from row strings, e.g. {"1010", "1001"}; all rows must
     * have equal length. Mirrors the figures in the paper.
     */
    static BitMatrix fromStrings(const std::vector<std::string>& rows);

    std::size_t rows() const { return rows_.size(); }
    std::size_t cols() const { return cols_; }

    /** Mutable row access. */
    BitVector& row(std::size_t r);
    const BitVector& row(std::size_t r) const;

    bool test(std::size_t r, std::size_t c) const { return row(r).test(c); }
    void set(std::size_t r, std::size_t c, bool v = true)
    {
        row(r).set(c, v);
    }

    /** Total number of set bits. */
    std::size_t popcount() const;

    /** Fraction of bits set (the paper's bit density). */
    double density() const;

    /** Fill with Bernoulli(p) bits. */
    void randomize(Rng& rng, double density);

    bool operator==(const BitMatrix& other) const = default;

  private:
    std::size_t cols_ = 0;
    std::vector<BitVector> rows_;
};

/**
 * One cropped m x k tile as contiguous row words: the layout the
 * detector searches, one k-bit TCAM word per row (Secs. V-A, V-B).
 *
 * Tile bit (r, c) is bit c % 64 of `row(r)[c / 64]`. Bits past `cols`
 * in each row's last word are zero, so the word kernels may stream any
 * row, and equal rows have equal words.
 */
struct TileWords
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t row_words = 0;        ///< ceil(cols / 64)
    std::vector<std::uint64_t> words; ///< rows * row_words, row-major

    std::span<const std::uint64_t> row(std::size_t r) const
    {
        return {words.data() + r * row_words, row_words};
    }
};

/**
 * Extract the tile of `matrix` starting at (row0, col0) with at most
 * `tile_rows` x `tile_cols` bits into `out`, reusing its buffer. Edge
 * tiles are cropped, not padded, so tile ops never see phantom bits.
 * Each output word shifts and merges at most two source words.
 */
void extractTile(const BitMatrix& matrix, std::size_t row0,
                 std::size_t col0, std::size_t tile_rows,
                 std::size_t tile_cols, TileWords& out);

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
 * extractTile. When there are more than `max_tiles` tiles (and
 * max_tiles > 0), keeps the max_tiles origins at multiples of the
 * stride all/max_tiles, and sets `scale` to all/max_tiles so summed
 * per-tile counts extrapolate to the whole matrix.
 */
TileSample sampleTiles(std::size_t rows, std::size_t cols,
                       const TileConfig& tile, std::size_t max_tiles);

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_BIT_MATRIX_H
