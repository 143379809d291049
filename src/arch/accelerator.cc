#include "accelerator.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "sim/logging.h"

namespace prosperity {

LayerRequest
LayerRequest::spikingGemm(const GemmShape& shape, const BitMatrix& spikes)
{
    LayerRequest request;
    request.kind = Kind::kSpikingGemm;
    request.shape = shape;
    request.spikes = &spikes;
    return request;
}

LayerRequest
LayerRequest::denseGemm(const GemmShape& shape)
{
    LayerRequest request;
    request.kind = Kind::kDenseGemm;
    request.shape = shape;
    return request;
}

LayerResult
Accelerator::runLayer(const LayerRequest& request)
{
    LayerResult result;
    EnergyModel& energy = result.energy;

    layer_dram_bytes_ = 0.0;
    layer_tile_summaries_ = request.tile_summaries;
    // Per-stage child spans: these are the leaves of a request's trace
    // timeline, and no-ops (no clock read) when tracing is off.
    switch (request.kind) {
    case LayerRequest::Kind::kSpikingGemm: {
        PROSPERITY_ASSERT(request.spikes != nullptr,
                          "spiking GeMM request carries no spike matrix");
        obs::ScopedSpan span("stage", "spiking_gemm");
        result.cycles =
            simulateSpikingGemm(request.shape, *request.spikes, energy);
        result.dense_macs = request.shape.denseOps();
        break;
    }
    case LayerRequest::Kind::kDenseGemm: {
        obs::ScopedSpan span("stage", "dense_gemm");
        result.cycles = simulateDenseGemm(request.shape, energy);
        result.dense_macs = request.shape.denseOps();
        break;
    }
    case LayerRequest::Kind::kAuxiliary:
        break;
    }

    if (request.lif_updates > 0.0) {
        obs::ScopedSpan span("stage", "lif");
        simulateLif(request.lif_updates, energy);
    }
    if (request.sfu_ops > 0.0) {
        obs::ScopedSpan span("stage", "sfu");
        result.cycles += simulateSfu(request.sfu_ops, energy);
    }

    energy.charge(EnergyComponent::kStatic, staticPjPerCycle(),
                  result.cycles);
    // Bytes noted by the hooks (chargeDramTraffic or designs' own
    // traffic models); designs that fold memory into another budget
    // (the A100's board power) report 0 here.
    result.dram_bytes = layer_dram_bytes_;
    return result;
}

double
Accelerator::simulateDenseGemm(const GemmShape& shape, EnergyModel& energy)
{
    const double macs = shape.denseOps();
    energy.charge(EnergyComponent::kProcessor, kEnergyParams.pe_mac8_pj,
                  macs);
    chargeDramTraffic(shape, 256, energy);
    return macs / static_cast<double>(std::max<std::size_t>(1, numPes()));
}

double
Accelerator::simulateSfu(double ops, EnergyModel& energy)
{
    energy.charge(EnergyComponent::kOther, kEnergyParams.sfu_op_pj, ops);
    return ops / 32.0;
}

void
Accelerator::simulateLif(double neuron_updates, EnergyModel& energy)
{
    energy.charge(EnergyComponent::kOther, kEnergyParams.lif_update_pj,
                  neuron_updates);
}

double
Accelerator::chargeDramTraffic(const GemmShape& shape, std::size_t row_tile,
                               EnergyModel& energy)
{
    // Weight-resident dataflow: weights stream once; the packed spike
    // matrix re-streams once per row_tile-wide output-column pass when
    // it exceeds the 8 KiB spike staging buffer.
    const double spikes_in =
        static_cast<double>(shape.m) * static_cast<double>(shape.k) /
        8.0 / static_cast<double>(std::max<std::size_t>(1,
                                                        shape.input_reuse));
    const double weight_bytes =
        static_cast<double>(shape.k) * static_cast<double>(shape.n);
    const double spike_passes =
        spikes_in > 8.0 * 1024.0
            ? std::ceil(static_cast<double>(shape.n) /
                        static_cast<double>(std::max<std::size_t>(1,
                                                                  row_tile)))
            : 1.0;
    const double spikes_out =
        static_cast<double>(shape.m) * static_cast<double>(shape.n) / 8.0;

    const double bytes = spikes_in * spike_passes + weight_bytes +
                         spikes_out;
    energy.charge(EnergyComponent::kDram, kEnergyParams.dram_per_byte_pj,
                  bytes);
    noteDramBytes(bytes);
    return bytes;
}

} // namespace prosperity
