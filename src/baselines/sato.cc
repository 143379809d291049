#include "sato.h"

#include <algorithm>
#include <vector>

#include "arch/registry.h"
#include "baselines/calibration.h"
#include "bitmatrix/simd_dispatch.h"

namespace prosperity {

std::size_t
SatoAccelerator::numPes() const
{
    return calibration::kSatoPes;
}

double
SatoAccelerator::areaMm2() const
{
    return calibration::kSatoAreaMm2;
}

double
SatoAccelerator::paddedOps(const BitMatrix& spikes, std::size_t batch_rows,
                           std::size_t n)
{
    // SATO's bucket sort groups rows of similar spike count before
    // dispatch, so each PE batch is load-balanced up to the residual
    // spread inside a bucket: sort popcounts, then pad each batch of
    // consecutive (sorted) rows to its maximum. Popcounts lie in
    // [0, cols], so a count per popcount is the sort.
    const std::size_t m = spikes.rows();
    std::vector<std::size_t> rows_with(spikes.cols() + 1, 0);
    const SimdOps& ops = simdOps();
    for (std::size_t r = 0; r < m; ++r)
        ++rows_with[ops.popcountWords(spikes.row(r).data(),
                                      spikes.rowWords())];

    // Walk the sorted order from the densest row: a batch's maximum is
    // the popcount of its first row.
    double padded = 0.0;
    std::size_t pop = spikes.cols();
    std::size_t denser = 0; // rows of popcount above `pop`
    for (std::size_t r0 = 0; r0 < m; r0 += batch_rows) {
        while (denser + rows_with[pop] <= r0)
            denser += rows_with[pop--];
        const std::size_t end = std::min(m, r0 + batch_rows);
        padded += static_cast<double>(pop) * static_cast<double>(end - r0);
    }
    return padded * static_cast<double>(n);
}

double
SatoAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                     const BitMatrix& spikes,
                                     EnergyModel& energy)
{
    // Real adds performed follow the bit count; cycles follow the
    // imbalance-padded count.
    const double bit_ops = static_cast<double>(spikes.popcount()) *
                           static_cast<double>(shape.n);
    const double padded =
        paddedOps(spikes, calibration::kSatoBatchRows, shape.n);

    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_add8_pj,
                  bit_ops);
    energy.charge(EnergyComponent::kBuffer, 0.55, bit_ops);
    const double dram_bytes = chargeDramTraffic(shape, 128, energy);

    const double compute_cycles =
        padded / (static_cast<double>(numPes()) *
                  calibration::kSatoUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

double
SatoAccelerator::staticPjPerCycle() const
{
    return calibration::kSatoStaticPjPerCycle;
}

void
registerSatoAccelerator(AcceleratorRegistry& registry)
{
    registry.add("sato",
                 "temporal-oriented dataflow with bucket dispatch (Liu "
                 "et al., DAC 2022)",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<SatoAccelerator>();
                 });
}

} // namespace prosperity
