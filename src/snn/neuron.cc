#include "neuron.h"

#include "sim/logging.h"

namespace prosperity {

LifArray::LifArray(std::size_t num_neurons, LifParams params)
    : params_(params), potentials_(num_neurons, 0.0)
{
    PROSPERITY_ASSERT(params_.threshold > 0.0, "threshold must be positive");
    PROSPERITY_ASSERT(params_.leak >= 0.0 && params_.leak <= 1.0,
                      "leak factor must lie in [0, 1]");
}

BitMatrix
LifArray::run(const OutputMatrix& currents)
{
    PROSPERITY_ASSERT(currents.cols() == potentials_.size(),
                      "current matrix width mismatch");
    BitMatrix spikes(currents.rows(), currents.cols());
    for (std::size_t t = 0; t < currents.rows(); ++t) {
        const std::int32_t* in = currents.rowPtr(t);
        for (std::size_t i = 0; i < potentials_.size(); ++i) {
            double v = potentials_[i] * params_.leak +
                       static_cast<double>(in[i]);
            if (v >= params_.threshold) {
                spikes.set(t, i);
                v = params_.soft_reset ? v - params_.threshold : 0.0;
            }
            potentials_[i] = v;
        }
    }
    return spikes;
}

} // namespace prosperity
