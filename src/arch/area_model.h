/**
 * @file
 * Parametric silicon area and peak-power model for Prosperity.
 *
 * Stands in for the paper's Synopsys Design Compiler synthesis (ARM 28 nm
 * standard cells). Component areas are analytic in the tile parameters
 * (TCAM ~ m*k, pruner ~ m, sparsity table ~ m * entry bits, bitonic
 * sorter ~ m log^2 m, PE array ~ n) with coefficients anchored so the
 * default configuration reproduces Fig. 10 (a): total 0.529 mm^2 with
 * detector 0.021, pruner 0.020, dispatcher 0.088, processor 0.074,
 * other 0.022 and buffer 0.303 mm^2. The same structure provides the
 * super-linear area/power growth with m shown in Fig. 7.
 */

#ifndef PROSPERITY_ARCH_AREA_MODEL_H
#define PROSPERITY_ARCH_AREA_MODEL_H

#include "arch/energy_model.h"
#include "arch/prosperity_config.h"

namespace prosperity {

/** Component-wise area breakdown in mm^2. */
struct AreaBreakdown
{
    double detector = 0.0;
    double pruner = 0.0;
    double dispatcher = 0.0;
    double processor = 0.0;
    double other = 0.0;
    double buffer = 0.0;

    double total() const
    {
        return detector + pruner + dispatcher + processor + other + buffer;
    }
};

/** Area/power estimator parametric in the Prosperity configuration. */
class AreaModel
{
  public:
    explicit AreaModel(ProsperityConfig config = {}) : config_(config) {}

    /** Full area breakdown for the configured instance. */
    AreaBreakdown area() const;

    /**
     * Peak on-chip power (W) assuming full activity every cycle: the
     * TCAM searches all m entries, the PE array issues n adds, buffers
     * stream one weight row and one output row. Used for the Fig. 7
     * power-vs-tile-size curves.
     */
    double peakOnChipPowerW() const;

    const ProsperityConfig& config() const { return config_; }

  private:
    ProsperityConfig config_;
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_AREA_MODEL_H
