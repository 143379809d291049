#include "eyeriss.h"

#include <algorithm>

#include "arch/registry.h"
#include "baselines/calibration.h"

namespace prosperity {

std::size_t
EyerissAccelerator::numPes() const
{
    return calibration::kEyerissPes;
}

double
EyerissAccelerator::areaMm2() const
{
    return calibration::kEyerissAreaMm2;
}

double
EyerissAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                        const BitMatrix& spikes,
                                        EnergyModel& energy)
{
    (void)spikes; // dense processing ignores the spike pattern
    const double macs = shape.denseOps();
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_mac8_pj,
                  macs);
    // Dense designs stream full-width activations, not packed bits.
    const double act_bytes =
        static_cast<double>(shape.m) * static_cast<double>(shape.k) /
        static_cast<double>(std::max<std::size_t>(1, shape.input_reuse));
    const double weight_bytes =
        static_cast<double>(shape.k) * static_cast<double>(shape.n);
    const double out_bytes =
        static_cast<double>(shape.m) * static_cast<double>(shape.n);
    const double dram_bytes = act_bytes + weight_bytes + out_bytes;
    energy.charge(EnergyComponent::kDram, kEnergyParams.dram_per_byte_pj,
                  dram_bytes);
    noteDramBytes(dram_bytes);
    // Operand staging per MAC.
    energy.charge(EnergyComponent::kBuffer, 0.6, macs);

    const double compute_cycles =
        macs / (static_cast<double>(numPes()) *
                calibration::kEyerissUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

double
EyerissAccelerator::staticPjPerCycle() const
{
    return calibration::kEyerissStaticPjPerCycle;
}

void
registerEyerissAccelerator(AcceleratorRegistry& registry)
{
    registry.add("eyeriss",
                 "dense row-stationary DNN accelerator (Chen et al., "
                 "JSSC 2016); the normalization baseline",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<EyerissAccelerator>();
                 });
}

} // namespace prosperity
