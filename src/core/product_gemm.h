/**
 * @file
 * Functional ProSparsity spiking GeMM.
 *
 * Executes a spiking GeMM exactly the way the Prosperity Processor does
 * (Sec. V-E): tile by tile, rows issued in (popcount, index) order —
 * the dispatcher's sorted order — each row starting from its prefix's
 * output row and accumulating only the weight rows selected by its
 * residual pattern row ^ prefix, each tile read in place through one
 * DistinctRows workspace per multiply. Because ProSparsity is lossless,
 * the result is bit-identical to the dense reference — the property
 * tests in tests/ verify this on every configuration.
 */

#ifndef PROSPERITY_CORE_PRODUCT_GEMM_H
#define PROSPERITY_CORE_PRODUCT_GEMM_H

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"

namespace prosperity {

/** Functional executor for spiking GeMM under ProSparsity. */
class ProductGemm
{
  public:
    explicit ProductGemm(TileConfig tile = {}) : tile_(tile) {}

    /** Result of one multiplication with its operation accounting. */
    struct Result
    {
        OutputMatrix output;       ///< M x N accumulated currents
        double dense_ops = 0.0;    ///< M*K*N scalar MACs of the dense op
        double bit_ops = 0.0;      ///< scalar adds under bit sparsity
        double product_ops = 0.0;  ///< scalar adds under ProSparsity
        std::size_t prefix_hits = 0;
        std::size_t exact_matches = 0;
        std::size_t partial_matches = 0;
    };

    /**
     * Multiply an M x K spike matrix by a K x N weight matrix through
     * the ProSparsity pipeline.
     */
    Result multiply(const BitMatrix& spikes,
                    const WeightMatrix& weights) const;

    /** Dense reference: plain row-by-row accumulation. */
    static OutputMatrix referenceMultiply(const BitMatrix& spikes,
                                          const WeightMatrix& weights);

    const TileConfig& tile() const { return tile_; }

  private:
    TileConfig tile_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_PRODUCT_GEMM_H
