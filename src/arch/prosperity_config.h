/**
 * @file
 * Full hardware configuration of the Prosperity accelerator.
 *
 * Defaults reproduce Table III of the paper: tile 256 x 128 x 16, 1 KB
 * TCAM (double-buffered 256x16), 1.5 KB product sparsity table, 128
 * 8-bit adder PEs, 8/32/96 KB spike/weight/output buffers, 32-cell LIF
 * array, and the SFU mix used for spiking transformers.
 */

#ifndef PROSPERITY_ARCH_PROSPERITY_CONFIG_H
#define PROSPERITY_ARCH_PROSPERITY_CONFIG_H

#include <cstddef>

#include "arch/tech.h"
#include "bitmatrix/bit_matrix.h"

namespace prosperity {

/** Hardware parameters of one Prosperity instance. */
struct ProsperityConfig
{
    TileConfig tile{};      ///< m=256, n=128, k=16 (Table III)
    Tech tech{};            ///< 500 MHz, 28 nm
    DramConfig dram{};      ///< DDR4-2133 x4 channels, 64 GB/s

    std::size_t num_pes = 128;        ///< Processor adder lanes (= tile.n)

    /**
     * Inter-PPU parallelism (Sec. VIII-A): number of PPU instances.
     * Row-tiles of a spiking GeMM are distributed across PPUs; each
     * instance replicates the PPU logic and its buffers while the DRAM
     * channel is shared, so memory-bound layers stop scaling.
     */
    std::size_t num_ppus = 1;
    std::size_t weight_bits = 8;      ///< weight precision
    std::size_t psum_bits = 24;       ///< output partial-sum precision
    std::size_t num_popcounts = 8;    ///< detector popcount units
    std::size_t num_lif_cells = 32;   ///< Spiking Neuron Array width

    /** Spike buffer bytes: several double-buffered m x k tiles (8 KB). */
    std::size_t
    spikeBufferBytes() const
    {
        const std::size_t tile_bytes = tile.m * tile.k / 8;
        // 8 KB at the default 512 B tile => 16 tile slots.
        return tile_bytes * 16;
    }

    /** Weight buffer bytes: double-buffered k x n tiles (32 KB). */
    std::size_t
    weightBufferBytes() const
    {
        const std::size_t tile_bytes = tile.k * tile.n * weight_bits / 8;
        return tile_bytes * 16;
    }

    /** Output buffer bytes: one m x n tile of psums (96 KB). */
    std::size_t
    outputBufferBytes() const
    {
        return tile.m * tile.n * psum_bits / 8;
    }

    /** TCAM bits including the double buffer (Table III: 1 KB). */
    std::size_t tcamBits() const { return 2 * tile.m * tile.k; }

    /** Bits of one product-sparsity-table entry (prefix id, pattern,
     *  row id, NO, valid/control). 48 b at defaults => 1.5 KB table. */
    std::size_t tableEntryBits() const;

    /** Product sparsity table bits including the double buffer. */
    std::size_t tableBits() const { return 2 * tile.m * tableEntryBits(); }
};

/** ceil(log2(x)) for sizing indices; log2ceil(1) == 1 bit. */
std::size_t log2ceil(std::size_t x);

} // namespace prosperity

#endif // PROSPERITY_ARCH_PROSPERITY_CONFIG_H
