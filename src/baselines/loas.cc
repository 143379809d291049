#include "loas.h"

#include <algorithm>
#include <stdexcept>

#include "arch/registry.h"
#include "baselines/calibration.h"
#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

std::vector<LoasModel>
loasModelCatalog()
{
    // Weight + activation densities as reported in Table V's LoAS
    // column (AlexNet / VGG-16 / ResNet-19 pruned with minimal
    // accuracy loss).
    return {
        {"AlexNet", 0.018, 0.2932},
        {"VGG-16", 0.018, 0.3107},
        {"ResNet-19", 0.040, 0.3568},
    };
}

BitMatrix
Loas::weightMask(std::size_t k, std::size_t n, double weight_density,
                 Rng& rng)
{
    PROSPERITY_ASSERT(weight_density > 0.0 && weight_density <= 1.0,
                      "weight density must lie in (0, 1]");
    BitMatrix mask(k, n);
    mask.randomize(rng, weight_density);
    return mask;
}

double
Loas::dualSideOps(const BitMatrix& spikes, const BitMatrix& weight_mask)
{
    PROSPERITY_ASSERT(spikes.cols() == weight_mask.rows(),
                      "GeMM inner dimensions disagree");
    // ops = sum over output columns of popcount(spike_row AND w_col).
    // Count column-wise by transposing the mask walk: for each weight
    // row r (spike column r), every surviving weight in that row meets
    // popcount(spike column r) spikes.
    std::vector<std::size_t> spikes_per_col(spikes.cols(), 0);
    for (std::size_t i = 0; i < spikes.rows(); ++i)
        forEachSetBit(spikes.row(i).data(), spikes.rowWords(),
                      [&](std::size_t c) { ++spikes_per_col[c]; });
    const SimdOps& simd = simdOps();
    double ops = 0.0;
    for (std::size_t r = 0; r < weight_mask.rows(); ++r)
        ops += static_cast<double>(simd.popcountWords(
                   weight_mask.row(r).data(), weight_mask.rowWords())) *
               static_cast<double>(spikes_per_col[r]);
    return ops;
}

LoasAccelerator::LoasAccelerator(double weight_density)
    : weight_density_(weight_density)
{
    PROSPERITY_ASSERT(weight_density > 0.0 && weight_density <= 1.0,
                      "weight density must lie in (0, 1]");
}

std::size_t
LoasAccelerator::numPes() const
{
    return calibration::kLoasPes;
}

double
LoasAccelerator::areaMm2() const
{
    return calibration::kLoasAreaMm2;
}

double
LoasAccelerator::staticPjPerCycle() const
{
    return calibration::kLoasStaticPjPerCycle;
}

const BitMatrix&
LoasAccelerator::maskFor(std::size_t k, std::size_t n)
{
    const auto key = std::make_pair(k, n);
    const auto it = masks_.find(key);
    if (it != masks_.end())
        return it->second;
    // Seed depends only on the geometry and density: the same layer
    // shape always sees the same pruned weights, whichever thread or
    // layer order reaches it first.
    const std::uint64_t seed =
        0x10A5ull ^ (static_cast<std::uint64_t>(k) * 1315423911ull) ^
        (static_cast<std::uint64_t>(n) * 2654435761ull) ^
        static_cast<std::uint64_t>(weight_density_ * 1e6);
    Rng rng(seed);
    return masks_.emplace(key, Loas::weightMask(k, n, weight_density_, rng))
        .first->second;
}

double
LoasAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                     const BitMatrix& spikes,
                                     EnergyModel& energy)
{
    const BitMatrix& mask = maskFor(shape.k, shape.n);
    const double ops = Loas::dualSideOps(spikes, mask);
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_add8_pj, ops);
    // Gated operand fetches.
    energy.charge(EnergyComponent::kBuffer, 0.45, ops);

    // Packed spikes in, compressed sparse weights (index overhead on
    // top of the surviving values), packed spikes out.
    const double spikes_in =
        static_cast<double>(shape.m) * static_cast<double>(shape.k) /
        8.0 / static_cast<double>(std::max<std::size_t>(1,
                                                        shape.input_reuse));
    const double weight_bytes = static_cast<double>(shape.k) *
                                static_cast<double>(shape.n) *
                                weight_density_ *
                                calibration::kLoasWeightIndexOverhead;
    const double out_bytes =
        static_cast<double>(shape.m) * static_cast<double>(shape.n) / 8.0;
    const double dram_bytes = spikes_in + weight_bytes + out_bytes;
    energy.charge(EnergyComponent::kDram, kEnergyParams.dram_per_byte_pj,
                  dram_bytes);
    noteDramBytes(dram_bytes);

    const double compute_cycles =
        ops / (static_cast<double>(numPes()) *
               calibration::kLoasUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

void
registerLoasAccelerator(AcceleratorRegistry& registry)
{
    registry.add("loas",
                 "dual-sparse (pruned weights x spike bits) "
                 "temporal-parallel accelerator (Yin et al., 2024); "
                 "params: weight_density",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({"weight_density"});
                     const double weight_density = params.getDouble(
                         "weight_density",
                         calibration::kLoasDefaultWeightDensity);
                     // Written so that NaN fails it too.
                     if (!(weight_density > 0.0 && weight_density <= 1.0))
                         throw std::invalid_argument(
                             "loas: weight_density must lie in (0, 1], "
                             "got " +
                             params.getString("weight_density", ""));
                     return std::make_unique<LoasAccelerator>(
                         weight_density);
                 });
}

} // namespace prosperity
