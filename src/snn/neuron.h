/**
 * @file
 * Spiking neuron models.
 *
 * The functional inference path uses the leaky integrate-and-fire (LIF)
 * neuron (Sec. II-A): each time step integrates the input current into
 * the membrane potential, applies leak, and fires a spike when the
 * potential crosses the threshold.
 */

#ifndef PROSPERITY_SNN_NEURON_H
#define PROSPERITY_SNN_NEURON_H

#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"

namespace prosperity {

/** LIF dynamics parameters. */
struct LifParams
{
    double leak = 0.5;        ///< membrane decay factor per step (1/tau)
    double threshold = 64.0;  ///< firing threshold (integer-current scale)
    bool soft_reset = true;   ///< subtract threshold instead of zeroing
};

/**
 * A bank of LIF neurons evaluated functionally over time steps.
 *
 * Currents arrive as an integer matrix of shape (T, N): row t holds the
 * accumulated input current of every neuron at time step t (the output
 * of one spiking GeMM). run() produces the binary spike outputs.
 */
class LifArray
{
  public:
    LifArray(std::size_t num_neurons, LifParams params = {});

    std::size_t size() const { return potentials_.size(); }
    const LifParams& params() const { return params_; }

    /**
     * Run all T time steps of `currents` (T x N) and return the (T x N)
     * spike matrix: row t holds the spikes fired at step t. The
     * membrane potentials carry over to the next call.
     */
    BitMatrix run(const OutputMatrix& currents);

    /** Current membrane potential of neuron `i` (for tests). */
    double potential(std::size_t i) const { return potentials_[i]; }

  private:
    LifParams params_;
    std::vector<double> potentials_;
};

} // namespace prosperity

#endif // PROSPERITY_SNN_NEURON_H
