/**
 * @file
 * PTB baseline (Lee et al., HPCA 2022): parallel time batching on a
 * systolic array. Spikes are grouped into fixed time windows; a window
 * with at least one spike is processed whole (all its time steps),
 * windows with no spikes are squeezed out. This is the structured
 * bit-sparsity design Prosperity is primarily compared against.
 *
 * The window occupancy is measured on the actual spike matrix: for each
 * (spatial position, spike column, time window) the window is live iff
 * any of its time steps carries a spike there.
 */

#ifndef PROSPERITY_BASELINES_PTB_H
#define PROSPERITY_BASELINES_PTB_H

#include "arch/accelerator.h"

namespace prosperity {

/** Structured time-window systolic accelerator model. */
class PtbAccelerator : public Accelerator
{
  public:
    /**
     * @param time_steps T of the current model; rows of spike matrices
     *        are laid out t-major so windows can be reconstructed.
     */
    explicit PtbAccelerator(std::size_t time_steps = 4)
        : time_steps_(time_steps)
    {
    }

    std::string name() const override { return "PTB"; }
    std::size_t numPes() const override;
    double areaMm2() const override { return 0.82; } // not in Table IV

    double staticPjPerCycle() const override;

    void beginModel(const ModelHints& hints) override
    {
        time_steps_ = hints.time_steps;
    }

    /**
     * Structured ops after window squeezing: live windows x window
     * length x N. Exposed for the density analyses.
     */
    static double structuredOps(const BitMatrix& spikes,
                                std::size_t time_steps, std::size_t n);

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const BitMatrix& spikes,
                               EnergyModel& energy) override;

  private:
    std::size_t time_steps_;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_PTB_H
