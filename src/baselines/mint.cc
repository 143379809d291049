#include "mint.h"

#include <algorithm>

#include "arch/registry.h"
#include "baselines/calibration.h"

namespace prosperity {

std::size_t
MintAccelerator::numPes() const
{
    return calibration::kMintPes;
}

double
MintAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                     const BitMatrix& spikes,
                                     EnergyModel& energy)
{
    const double bit_ops = static_cast<double>(spikes.popcount()) *
                           static_cast<double>(shape.n);
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_add2_pj,
                  bit_ops);
    // 2-bit operand fetches.
    energy.charge(EnergyComponent::kBuffer, 0.25, bit_ops);

    // 2-bit weights: a quarter of the 8-bit weight traffic.
    const double spikes_in =
        static_cast<double>(shape.m) * static_cast<double>(shape.k) /
        8.0 / static_cast<double>(std::max<std::size_t>(1,
                                                        shape.input_reuse));
    const double weight_bytes = static_cast<double>(shape.k) *
                                static_cast<double>(shape.n) *
                                calibration::kMintWeightBytesScale;
    const double out_bytes =
        static_cast<double>(shape.m) * static_cast<double>(shape.n) / 8.0;
    const double dram_bytes = spikes_in + weight_bytes + out_bytes;
    energy.charge(EnergyComponent::kDram, kEnergyParams.dram_per_byte_pj,
                  dram_bytes);
    noteDramBytes(dram_bytes);

    const double compute_cycles =
        bit_ops / (static_cast<double>(numPes()) *
                   calibration::kMintUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

double
MintAccelerator::staticPjPerCycle() const
{
    return calibration::kMintStaticPjPerCycle;
}

void
registerMintAccelerator(AcceleratorRegistry& registry)
{
    registry.add("mint",
                 "SATA-style bit-sparse accelerator with 2-bit "
                 "weight/membrane quantization (Yin et al., ASP-DAC "
                 "2024)",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<MintAccelerator>();
                 });
}

} // namespace prosperity
