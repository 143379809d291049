#include "stellar.h"

#include <algorithm>

#include "arch/registry.h"
#include "baselines/calibration.h"

namespace prosperity {

std::size_t
StellarAccelerator::numPes() const
{
    return calibration::kStellarPes;
}

double
StellarAccelerator::areaMm2() const
{
    return calibration::kStellarAreaMm2;
}

double
StellarAccelerator::fsDensity(double bit_density)
{
    return bit_density / calibration::kStellarFsDensityRatio;
}

double
StellarAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                        const BitMatrix& spikes,
                                        EnergyModel& energy)
{
    // FS recoding keeps the same matrix geometry with ~3.5x fewer
    // spikes; apply the measured ratio to the measured bit count.
    const double fs_ops = static_cast<double>(spikes.popcount()) /
                          calibration::kStellarFsDensityRatio *
                          static_cast<double>(shape.n);
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_add12_pj,
                  fs_ops);
    energy.charge(EnergyComponent::kBuffer, 0.55, fs_ops);
    // Stellar's sparsity preprocessing is a large fixed share of its
    // energy (47% of total per its paper, Sec. VII-G here).
    energy.charge(EnergyComponent::kOther, kEnergyParams.pe_add12_pj,
                  fs_ops * 0.9);
    const double dram_bytes = chargeDramTraffic(shape, 128, energy);

    const double compute_cycles =
        fs_ops / (static_cast<double>(numPes()) *
                  calibration::kStellarUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

double
StellarAccelerator::staticPjPerCycle() const
{
    return calibration::kStellarStaticPjPerCycle;
}

void
registerStellarAccelerator(AcceleratorRegistry& registry)
{
    registry.add("stellar",
                 "FS-neuron algorithm-hardware co-design, spiking CNNs "
                 "only (Mao et al., HPCA 2024)",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<StellarAccelerator>();
                 });
}

} // namespace prosperity
