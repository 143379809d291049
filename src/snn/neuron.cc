#include "neuron.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace prosperity {

LifArray::LifArray(std::size_t num_neurons, LifParams params)
    : params_(params), potentials_(num_neurons, 0.0)
{
    PROSPERITY_ASSERT(params_.threshold > 0.0, "threshold must be positive");
    PROSPERITY_ASSERT(params_.leak >= 0.0 && params_.leak <= 1.0,
                      "leak factor must lie in [0, 1]");
}

void
LifArray::reset()
{
    std::fill(potentials_.begin(), potentials_.end(), 0.0);
}

BitVector
LifArray::step(const std::int32_t* currents, std::size_t count)
{
    PROSPERITY_ASSERT(count == potentials_.size(),
                      "current vector width mismatch");
    BitVector spikes(count);
    for (std::size_t i = 0; i < count; ++i) {
        double v = potentials_[i] * params_.leak +
                   static_cast<double>(currents[i]);
        if (v >= params_.threshold) {
            spikes.set(i);
            v = params_.soft_reset ? v - params_.threshold : 0.0;
        }
        potentials_[i] = v;
    }
    return spikes;
}

BitMatrix
LifArray::run(const OutputMatrix& currents)
{
    PROSPERITY_ASSERT(currents.cols() == potentials_.size(),
                      "current matrix width mismatch");
    BitMatrix spikes(currents.rows(), currents.cols());
    for (std::size_t t = 0; t < currents.rows(); ++t)
        spikes.setRow(t, step(currents.rowPtr(t), currents.cols()));
    return spikes;
}

FsNeuron::FsNeuron(std::size_t time_steps, std::size_t max_spikes,
                   double value_range)
    : time_steps_(time_steps), max_spikes_(max_spikes),
      value_range_(value_range)
{
    PROSPERITY_ASSERT(time_steps_ > 0, "FS neuron needs >= 1 time step");
    PROSPERITY_ASSERT(value_range_ > 0.0, "value range must be positive");
}

BitVector
FsNeuron::encode(double activation) const
{
    BitVector train(time_steps_);
    double residual = std::clamp(activation, 0.0, value_range_);
    std::size_t spikes = 0;
    for (std::size_t t = 0; t < time_steps_ && spikes < max_spikes_; ++t) {
        const double weight = value_range_ / std::pow(2.0, double(t) + 1.0);
        // Fire when taking the spike reduces the coding error.
        if (residual >= weight / 2.0) {
            train.set(t);
            residual -= weight;
            ++spikes;
        }
    }
    return train;
}

double
FsNeuron::decode(const BitVector& train) const
{
    PROSPERITY_ASSERT(train.size() == time_steps_, "train length mismatch");
    double value = 0.0;
    for (std::size_t t = 0; t < time_steps_; ++t)
        if (train.test(t))
            value += value_range_ / std::pow(2.0, double(t) + 1.0);
    return value;
}

} // namespace prosperity
