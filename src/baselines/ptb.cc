#include "ptb.h"

#include <algorithm>
#include <vector>

#include "arch/registry.h"
#include "baselines/calibration.h"
#include "bitmatrix/simd_dispatch.h"
#include "sim/logging.h"

namespace prosperity {

std::size_t
PtbAccelerator::numPes() const
{
    return calibration::kPtbPes;
}

double
PtbAccelerator::structuredOps(const BitMatrix& spikes,
                              std::size_t time_steps, std::size_t n)
{
    const std::size_t m = spikes.rows();
    if (m == 0 || spikes.cols() == 0)
        return 0.0;

    // Rows are t-major: position i of step t is row t * positions + i.
    std::size_t t = std::max<std::size_t>(1, time_steps);
    if (m % t != 0)
        t = 1; // attention-style GeMMs: no clean temporal layout
    const std::size_t positions = m / t;
    const std::size_t window = std::min(t, calibration::kPtbTimeWindow);
    const std::size_t windows = (t + window - 1) / window;

    const SimdOps& ops = simdOps();
    const std::size_t nwords = spikes.rowWords();
    std::vector<std::uint64_t> live(nwords); // one window's OR
    double live_window_bits = 0.0;
    for (std::size_t i = 0; i < positions; ++i) {
        for (std::size_t w = 0; w < windows; ++w) {
            // OR the window's rows: a set bit marks a live window slot.
            std::fill(live.begin(), live.end(), 0);
            std::size_t steps_in_window = 0;
            for (std::size_t dt = 0; dt < window; ++dt) {
                const std::size_t step = w * window + dt;
                if (step >= t)
                    break;
                const std::span<const std::uint64_t> row =
                    spikes.row(step * positions + i);
                for (std::size_t x = 0; x < nwords; ++x)
                    live[x] |= row[x];
                ++steps_in_window;
            }
            live_window_bits +=
                static_cast<double>(ops.popcountWords(live.data(), nwords)) *
                static_cast<double>(steps_in_window);
        }
    }
    return live_window_bits * static_cast<double>(n);
}

double
PtbAccelerator::simulateSpikingGemm(const GemmShape& shape,
                                    const BitMatrix& spikes,
                                    EnergyModel& energy)
{
    const double ops = structuredOps(spikes, time_steps_, shape.n);
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_add8_pj, ops);
    // Weight fetch per add.
    energy.charge(EnergyComponent::kBuffer, 0.55, ops);
    const double dram_bytes = chargeDramTraffic(shape, 128, energy);

    const double compute_cycles =
        ops / (static_cast<double>(numPes()) *
               calibration::kPtbUtilization);
    const double dram_cycles = DramConfig{}.cyclesFor(dram_bytes, tech());
    return std::max(compute_cycles, dram_cycles);
}

double
PtbAccelerator::staticPjPerCycle() const
{
    return calibration::kPtbStaticPjPerCycle;
}

void
registerPtbAccelerator(AcceleratorRegistry& registry)
{
    registry.add("ptb",
                 "parallel time batching on a systolic array (Lee et "
                 "al., HPCA 2022)",
                 [](const AcceleratorParams& params) {
                     params.expectOnly({});
                     return std::make_unique<PtbAccelerator>();
                 });
}

} // namespace prosperity
