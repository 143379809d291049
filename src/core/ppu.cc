#include "ppu.h"

#include <algorithm>

#include "arch/sram.h"
#include "sim/logging.h"

namespace prosperity {

namespace {

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

} // namespace

PpuLayerResult
Ppu::runGemm(const GemmShape& shape, const BitMatrix& spikes,
             EnergyModel* energy, TileSummaryCache* summaries) const
{
    PROSPERITY_ASSERT(spikes.rows() == shape.m && spikes.cols() == shape.k,
                      "spike matrix does not match GeMM shape");
    const TileConfig& tile = config_.tile;
    const std::size_t row_tiles = ceilDiv(shape.m, tile.m);
    const std::size_t col_tiles = ceilDiv(shape.k, tile.k);
    const std::size_t n_passes = ceilDiv(shape.n, tile.n);
    const double total_tiles =
        static_cast<double>(row_tiles) * static_cast<double>(col_tiles);

    // The analyzed tiles' summaries: a strided sample of huge layers
    // (scale = tiles per analyzed one), shared with the rest of the
    // lineup when it passes its cache.
    PROSPERITY_ASSERT(!summaries || &summaries->spikes() == &spikes,
                      "tile summaries belong to another spike matrix");
    TileSummaryCache local(spikes, "spiking_gemm");
    const TileSummarySet& sample =
        (summaries ? *summaries : local)
            .summaries(tile, options_.max_sampled_tiles);
    const double scale = sample.scale;

    const TilePipeline pipeline(options_.sparsity, options_.dispatch,
                                options_.issue_width);
    PpuLayerResult result;
    result.dense_ops = shape.denseOps();

    // Per-byte access energies of the weight, output and spike
    // buffers: they depend only on the config, so the three SramBuffers
    // are built once per layer, and only when energy is charged (a
    // tile narrower than 8 columns has no spike-buffer word).
    double wgt_pj_per_byte = 0.0;
    double out_pj_per_byte = 0.0;
    double spk_pj_per_byte = 0.0;
    if (energy) {
        wgt_pj_per_byte =
            SramBuffer("weight", config_.weightBufferBytes(), tile.n)
                .accessEnergyPerBytePj();
        out_pj_per_byte =
            SramBuffer("output", config_.outputBufferBytes(),
                       tile.n * config_.psum_bits / 8)
                .accessEnergyPerBytePj();
        spk_pj_per_byte =
            SramBuffer("spike", config_.spikeBufferBytes(), tile.k / 8)
                .accessEnergyPerBytePj();
    }

    const double n_total = static_cast<double>(shape.n);
    double pipelined_cycles = 0.0;
    double first_phase = 0.0;
    bool first = true;

    for (const TileSummary& summary : sample.tiles) {
        const TileStats stats = pipeline.cost(summary);

        const double compute =
            static_cast<double>(stats.compute_cycles) *
            static_cast<double>(n_passes);
        const double phase =
            static_cast<double>(stats.prosparsity_cycles);
        if (first) {
            first_phase = phase;
            first = false;
        }
        // Inter-phase pipeline: a tile's ProSparsity phase hides behind
        // the previous tile's computation; whichever is longer paces
        // the machine.
        pipelined_cycles += std::max(compute, phase);
        result.compute_cycles += compute;
        result.prosparsity_cycles += phase;
        result.exposed_prosparsity_cycles +=
            std::max(0.0, phase - compute);

        result.bit_ops += stats.bit_row_ops * n_total;
        result.product_ops += stats.accum_row_ops * n_total;
        result.prefix_hits += static_cast<double>(stats.prefix_hits);
        result.exact_matches += static_cast<double>(stats.exact_matches);
        result.partial_matches +=
            static_cast<double>(stats.partial_matches);
        result.rows_processed += static_cast<double>(stats.rows);

        if (energy) {
            const EnergyParams& e = kEnergyParams;
            energy->charge(EnergyComponent::kDetector,
                           e.tcam_search_per_bit_pj,
                           stats.tcam_bit_ops * scale);
            energy->charge(EnergyComponent::kDetector,
                           e.popcount_per_row_pj,
                           stats.popcount_ops * scale);
            energy->charge(EnergyComponent::kPruner, e.pruner_per_row_pj,
                           stats.pruner_ops * scale);
            energy->charge(EnergyComponent::kDispatcher,
                           e.sorter_per_compare_pj,
                           stats.sorter_compares * scale);
            energy->charge(EnergyComponent::kDispatcher,
                           e.table_access_per_entry_pj,
                           stats.table_accesses * scale);
            energy->charge(EnergyComponent::kProcessor, e.pe_add8_pj,
                           stats.accum_row_ops * n_total * scale);

            const double psum_bytes =
                static_cast<double>(config_.psum_bits) / 8.0;
            energy->charge(EnergyComponent::kBuffer, wgt_pj_per_byte,
                           stats.accum_row_ops * n_total * scale);
            energy->charge(EnergyComponent::kBuffer, out_pj_per_byte,
                           (static_cast<double>(stats.rows) +
                            stats.prefix_loads) *
                               n_total * psum_bytes * scale);
            energy->charge(EnergyComponent::kBuffer, spk_pj_per_byte,
                           2.0 * static_cast<double>(stats.rows) *
                               static_cast<double>(stats.cols) / 8.0 *
                               scale);
        }
    }

    // Inter-PPU parallelism: row-tiles are distributed across PPU
    // instances; each instance runs its own ProSparsity front end, so
    // the tile stream divides evenly (row-tile counts are large
    // compared to the PPU count for every evaluated model).
    const double ppus = static_cast<double>(
        std::max<std::size_t>(1, std::min(config_.num_ppus, row_tiles)));
    pipelined_cycles = pipelined_cycles * scale / ppus + first_phase;
    result.compute_cycles *= scale;
    result.prosparsity_cycles *= scale;
    result.exposed_prosparsity_cycles *= scale;
    result.bit_ops *= scale;
    result.product_ops *= scale;
    result.prefix_hits *= scale;
    result.exact_matches *= scale;
    result.partial_matches *= scale;
    result.rows_processed *= scale;

    // Off-chip traffic. Weights are the large operand, so the dataflow
    // keeps each weight tile resident and streams it exactly once; the
    // packed spike matrix (tiny by comparison) is re-streamed once per
    // n-pass when it exceeds the spike buffer; outputs leave as packed
    // spikes from the neuron array.
    const double weight_bytes = static_cast<double>(shape.k) *
                                static_cast<double>(shape.n);
    const double spike_bytes_once =
        static_cast<double>(shape.m) * static_cast<double>(shape.k) /
        8.0 / static_cast<double>(std::max<std::size_t>(1,
                                                        shape.input_reuse));
    const double spike_passes =
        spike_bytes_once > static_cast<double>(config_.spikeBufferBytes())
            ? static_cast<double>(n_passes)
            : 1.0;
    const double out_bytes = static_cast<double>(shape.m) *
                             static_cast<double>(shape.n) / 8.0;
    result.dram_bytes =
        spike_bytes_once * spike_passes + weight_bytes + out_bytes;
    result.dram_cycles = config_.dram.cyclesFor(result.dram_bytes,
                                                config_.tech);
    if (energy) {
        energy->charge(EnergyComponent::kDram,
                       kEnergyParams.dram_per_byte_pj, result.dram_bytes);
        energy->charge(EnergyComponent::kOther,
                       kEnergyParams.other_per_cycle_pj,
                       std::max(pipelined_cycles, result.dram_cycles));
    }

    // Double buffering overlaps memory with compute; the slower side
    // bounds the layer.
    result.cycles = std::max(pipelined_cycles, result.dram_cycles);
    PROSPERITY_ASSERT(total_tiles >= 1.0 || result.cycles == first_phase,
                      "tile accounting is inconsistent");
    return result;
}

} // namespace prosperity
