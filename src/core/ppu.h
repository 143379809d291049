/**
 * @file
 * ProSparsity Processing Unit — layer-level pipeline model (Secs. V, VI).
 *
 * Maps one spiking GeMM onto the tiled PPU:
 *
 *  - the spike matrix is cut into ceil(M/m) x ceil(K/k) tiles;
 *  - each tile's ProSparsity phase (m + 4 cycles, plus exposed dispatch
 *    cycles in the ablation's traversal mode) overlaps the previous
 *    tile's computation phase (inter-phase pipeline, Sec. VI-B);
 *  - the computation phase of a tile repeats ceil(N/n) passes over the
 *    PE lanes, reusing the tile's meta information;
 *  - DRAM transfers stream under double buffering and only bound the
 *    layer when the GeMM is memory-bound.
 *
 * Large layers can be sampled (a strided subset of tiles is analyzed
 * and scaled) for a large simulation speedup, at a cost in accuracy.
 * On the fig9 campaign at seed 7, the default of 96 tiles moves a
 * cell's cycles by up to 0.996% of the exact-tile value
 * (max_sampled_tiles = 0) for prosperity, 1.87% for the traversal
 * ablation and 2.69% for bit-only, and its energy by up to 0.054%,
 * 0.211% and 0.603%. ROADMAP.md's exact-tiles item makes exact tiles
 * the default. Sampling is disabled in the unit tests.
 */

#ifndef PROSPERITY_CORE_PPU_H
#define PROSPERITY_CORE_PPU_H

#include "arch/energy_model.h"
#include "arch/prosperity_config.h"
#include "core/tile_pipeline.h"

namespace prosperity {

/** Cycle/activity result of one spiking GeMM on the PPU. */
struct PpuLayerResult
{
    double cycles = 0.0;          ///< end-to-end latency (incl. memory)
    double compute_cycles = 0.0;  ///< PE-array busy cycles
    double prosparsity_cycles = 0.0; ///< total ProSparsity-phase cycles
    double exposed_prosparsity_cycles = 0.0; ///< not hidden by compute
    double dram_cycles = 0.0;
    double dram_bytes = 0.0;

    double dense_ops = 0.0;   ///< M*K*N scalar ops
    double bit_ops = 0.0;     ///< scalar adds under bit sparsity
    double product_ops = 0.0; ///< scalar adds under ProSparsity

    double prefix_hits = 0.0;
    double exact_matches = 0.0;
    double partial_matches = 0.0;
    double rows_processed = 0.0;
};

/** Layer-level PPU simulator. */
class Ppu
{
  public:
    struct Options
    {
        SparsityMode sparsity = SparsityMode::kProductSparsity;
        DispatchMode dispatch = DispatchMode::kOverheadFree;
        /** Analyze at most this many tiles per GeMM (0 = no sampling). */
        std::size_t max_sampled_tiles = 96;

        /**
         * Intra-PPU parallelism (Sec. VIII-A): how many independent
         * forest nodes the dispatcher issues per cycle. Nodes in the
         * same tree level have no dependency; extra issue slots let
         * exact-match copies (which bypass the weight port) proceed
         * alongside accumulating rows.
         */
        std::size_t issue_width = 1;
    };

    explicit Ppu(ProsperityConfig config = {})
        : config_(config), options_(Options{})
    {
    }

    Ppu(ProsperityConfig config, Options options)
        : config_(config), options_(options)
    {
    }

    const ProsperityConfig& config() const { return config_; }
    const Options& options() const { return options_; }

    /**
     * Run one spiking GeMM. `spikes` must be shape.m x shape.k; `energy`
     * may be null when only cycles/ops are needed.
     */
    PpuLayerResult runGemm(const GemmShape& shape, const BitMatrix& spikes,
                           EnergyModel* energy) const;

  private:
    ProsperityConfig config_;
    Options options_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_PPU_H
