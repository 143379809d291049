#include "a100.h"

#include <algorithm>
#include <cmath>

#include "arch/registry.h"
#include "baselines/calibration.h"

namespace prosperity {

namespace cal = calibration;

double
A100Accelerator::areaMm2() const
{
    return cal::kA100AreaMm2;
}

double
A100Accelerator::utilization(const GemmShape& shape)
{
    // Tensor cores want large, square-ish tiles; skinny spiking GeMMs
    // (small M from few tokens/time steps, small N) strand most lanes.
    const double m_fill =
        std::min(1.0, static_cast<double>(shape.m) / 512.0);
    const double n_fill =
        std::min(1.0, static_cast<double>(shape.n) / 1024.0);
    const double k_fill =
        std::min(1.0, static_cast<double>(shape.k) / 256.0);
    return cal::kA100UtilizationCeiling * m_fill * n_fill *
           std::sqrt(k_fill);
}

double
A100Accelerator::kernelCycles(const GemmShape& shape, EnergyModel& energy)
{
    const double ops = 2.0 * shape.denseOps(); // MAC = 2 OPs
    const double compute_s =
        ops / (cal::kA100PeakOpsPerS * std::max(1e-3, utilization(shape)));
    // SpikingJelly stores spikes as fp16 tensors: 2 B per element.
    const double bytes =
        2.0 * (static_cast<double>(shape.m) * shape.k +
               static_cast<double>(shape.k) * shape.n +
               static_cast<double>(shape.m) * shape.n);
    const double mem_s = bytes / cal::kA100MemBandwidth;
    const double total_s =
        std::max(compute_s, mem_s) + cal::kA100LaunchOverheadS;

    energy.charge(EnergyComponent::kGpu, cal::kA100AveragePowerW * 1e12,
                  total_s);
    // Report cycles in the common 500 MHz domain for comparability.
    return total_s * tech().frequency_hz;
}

double
A100Accelerator::simulateSpikingGemm(const GemmShape& shape,
                                     const BitMatrix& spikes,
                                     EnergyModel& energy)
{
    (void)spikes; // the GPU executes densely regardless of sparsity
    return kernelCycles(shape, energy);
}

double
A100Accelerator::simulateDenseGemm(const GemmShape& shape,
                                   EnergyModel& energy)
{
    return kernelCycles(shape, energy);
}

double
A100Accelerator::simulateSfu(double ops, EnergyModel& energy)
{
    // Elementwise kernels are bandwidth/launch bound on the GPU.
    const double total_s =
        ops / 1e12 + cal::kA100LaunchOverheadS;
    energy.charge(EnergyComponent::kGpu, cal::kA100AveragePowerW * 1e12,
                  total_s);
    return total_s * tech().frequency_hz;
}

void
registerA100Accelerator(AcceleratorRegistry& registry)
{
    registry.add("a100",
                 "NVIDIA A100 roofline running SNNs through PyTorch + "
                 "SpikingJelly",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<A100Accelerator>();
                 });
}

} // namespace prosperity
