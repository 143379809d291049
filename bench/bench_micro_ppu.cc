/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's PPU stage models:
 * prefix selection (the TCAM detector and the pruner in one pass) and
 * the functional ProSparsity GeMM. These measure *simulator software*
 * throughput, useful when sizing sampling budgets for large sweeps.
 */

#include <benchmark/benchmark.h>

#include "core/prefix_select.h"
#include "core/product_gemm.h"
#include "gen/spike_generator.h"
#include "sim/rng.h"

namespace prosperity {
namespace {

TileWords
makeTile(std::size_t m, std::size_t k, double density)
{
    Rng rng(m * 131 + k);
    BitMatrix spikes(m, k);
    spikes.randomize(rng, density);
    TileWords tile;
    extractTile(spikes, 0, 0, m, k, tile);
    return tile;
}

void
BM_SelectPrefixes(benchmark::State& state)
{
    const TileWords tile =
        makeTile(static_cast<std::size_t>(state.range(0)), 16, 0.25);
    for (auto _ : state) {
        benchmark::DoNotOptimize(selectPrefixes(tile));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectPrefixes)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_ProductGemm(benchmark::State& state)
{
    ActivationProfile p;
    p.bit_density = 0.25;
    p.cluster_fraction = 0.85;
    p.bank_size = 12;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.4;
    const std::size_t m = static_cast<std::size_t>(state.range(0));
    const BitMatrix spikes = SpikeGenerator(p, 5).generate(m, 64, 4, 0);
    const WeightMatrix weights = randomWeights(64, 128, 3);
    const ProductGemm gemm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gemm.multiply(spikes, weights));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m) * 64 * 128);
}
BENCHMARK(BM_ProductGemm)->Arg(256)->Arg(1024);

void
BM_SpikeGeneration(benchmark::State& state)
{
    ActivationProfile p;
    p.bit_density = 0.3;
    const SpikeGenerator gen(p, 1);
    const std::size_t m = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.generate(m, 128, 4, 0));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(m) * 128);
}
BENCHMARK(BM_SpikeGeneration)->Arg(1024)->Arg(8192);

} // namespace
} // namespace prosperity
