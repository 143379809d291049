#include "prosperity_accelerator.h"

#include <stdexcept>

#include "arch/registry.h"

namespace prosperity {

ProsperityAccelerator::ProsperityAccelerator(ProsperityConfig config)
    : ProsperityAccelerator(config, Ppu::Options{})
{
}

ProsperityAccelerator::ProsperityAccelerator(ProsperityConfig config,
                                             Ppu::Options options)
    : config_(config), ppu_(config, options)
{
}

std::string
ProsperityAccelerator::name() const
{
    if (ppu_.options().sparsity == SparsityMode::kBitSparsity)
        return "Prosperity(bit-only)";
    if (ppu_.options().dispatch == DispatchMode::kTreeTraversal)
        return "Prosperity(traversal)";
    return "Prosperity";
}

double
ProsperityAccelerator::areaMm2() const
{
    return AreaModel(config_).area().total();
}

double
ProsperityAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                           const BitMatrix& spikes,
                                           EnergyModel& energy)
{
    last_ = ppu_.runGemm(shape, spikes, &energy, layerTileSummaries());
    noteDramBytes(last_.dram_bytes);
    return last_.cycles;
}

void
registerProsperityAccelerator(AcceleratorRegistry& registry)
{
    registry.add(
        "prosperity",
        "the paper's ProSparsity accelerator (Table III config); "
        "params: sparsity=product|bit, dispatch=overhead-free|traversal, "
        "issue_width, num_ppus, max_sampled_tiles, tile_m, tile_k",
        [](const AcceleratorParams& params) {
            params.expectOnly({"sparsity", "dispatch", "issue_width",
                               "num_ppus", "max_sampled_tiles", "tile_m",
                               "tile_k"});
            ProsperityConfig config;
            config.num_ppus = params.getSize("num_ppus", config.num_ppus);
            config.tile.m = params.getSize("tile_m", config.tile.m);
            config.tile.k = params.getSize("tile_k", config.tile.k);
            // The spike buffer's word is tile_k / 8 bytes, so a tile
            // narrower than 8 columns has none. The cap keeps the
            // buffer sizes (2·m·k, 2048·k and 384·m bytes) far inside
            // size_t.
            constexpr std::size_t kMaxTileDim = 65536;
            if (config.tile.m == 0 || config.tile.m > kMaxTileDim)
                throw std::invalid_argument(
                    "prosperity: tile_m must lie in [1, 65536]");
            if (config.tile.k < 8 || config.tile.k > kMaxTileDim)
                throw std::invalid_argument(
                    "prosperity: tile_k must lie in [8, 65536]");
            if (config.num_ppus == 0)
                throw std::invalid_argument(
                    "prosperity: num_ppus must be at least 1");

            Ppu::Options options;
            const std::string sparsity =
                params.getString("sparsity", "product");
            if (sparsity == "bit")
                options.sparsity = SparsityMode::kBitSparsity;
            else if (sparsity != "product")
                throw std::invalid_argument(
                    "prosperity: unknown sparsity mode \"" + sparsity +
                    "\" (want product|bit)");
            const std::string dispatch =
                params.getString("dispatch", "overhead-free");
            if (dispatch == "traversal")
                options.dispatch = DispatchMode::kTreeTraversal;
            else if (dispatch != "overhead-free")
                throw std::invalid_argument(
                    "prosperity: unknown dispatch mode \"" + dispatch +
                    "\" (want overhead-free|traversal)");
            options.issue_width =
                params.getSize("issue_width", options.issue_width);
            if (options.issue_width == 0)
                throw std::invalid_argument(
                    "prosperity: issue_width must be at least 1");
            options.max_sampled_tiles = params.getSize(
                "max_sampled_tiles", options.max_sampled_tiles);

            return std::make_unique<ProsperityAccelerator>(config,
                                                           options);
        });
}

} // namespace prosperity
