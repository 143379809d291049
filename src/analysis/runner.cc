#include "runner.h"

#include <cmath>

#include "core/tile_pipeline.h"
#include "gen/spike_generator.h"
#include "obs/trace.h"
#include "sim/logging.h"

namespace prosperity {

namespace {

ModelHints
hintsFor(const ModelSpec& model)
{
    ModelHints hints;
    hints.time_steps = model.time_steps;
    return hints;
}

/** Run one layer on one accelerator and fold it into `result`. */
void
accumulateLayer(Accelerator& accel, const LayerSpec& layer,
                const BitMatrix* spikes, TileSummaryCache* summaries,
                const RunOptions& options, RunResult& result)
{
    // One child span per layer; Accelerator::runLayer adds per-stage
    // grandchildren. Free when the thread is not being traced.
    obs::ScopedSpan span("layer", layer.name);
    if (span.active())
        span.setDetail(accel.name());
    LayerRequest request = layerRequestFor(layer, spikes);
    request.tile_summaries = summaries;
    const LayerResult lr = accel.runLayer(request);
    result.cycles += lr.cycles;
    result.dense_macs += lr.dense_macs;
    result.dram_bytes += lr.dram_bytes;
    result.energy.merge(lr.energy);
    if (options.keep_layer_records)
        result.layers.push_back(
            LayerRunRecord{layer.name, lr.cycles, layer.denseOps()});
}

} // namespace

LayerRequest
layerRequestFor(const LayerSpec& layer, const BitMatrix* spikes)
{
    LayerRequest request;
    if (layer.isSpikingGemm()) {
        PROSPERITY_ASSERT(spikes != nullptr,
                          "spiking layer needs its spike matrix");
        request = LayerRequest::spikingGemm(layer.gemm, *spikes);
        // Output currents feed the spiking neuron array.
        request.lif_updates = static_cast<double>(layer.gemm.m) *
                              static_cast<double>(layer.gemm.n);
    } else if (layer.gemm.m > 0) {
        // Direct-coded (non-spiking) GeMM, e.g. the first conv.
        request = LayerRequest::denseGemm(layer.gemm);
    }
    request.sfu_ops = layer.sfu_ops;
    return request;
}

std::vector<RunResult>
runWorkloadOnAll(const std::vector<Accelerator*>& accels,
                 const Workload& workload, const RunOptions& options)
{
    const ModelSpec model = workload.buildModel();
    const SpikeGenerator gen(workload.profile, options.seed);

    std::vector<RunResult> results(accels.size());
    const ModelHints hints = hintsFor(model);
    for (std::size_t a = 0; a < accels.size(); ++a) {
        results[a].accelerator = accels[a]->name();
        results[a].workload = workload.name();
        results[a].tech = accels[a]->tech();
        accels[a]->beginModel(hints);
    }

    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        BitMatrix spikes;
        const bool is_spiking = layer.isSpikingGemm();
        if (is_spiking) {
            obs::ScopedSpan span("spikegen", layer.name);
            spikes = gen.generateLayer(layer, layer_index);
        }

        // The designs that tile these spikes alike share one front-end
        // pass over them.
        TileSummaryCache summaries(spikes, layer.name);
        for (std::size_t a = 0; a < accels.size(); ++a)
            accumulateLayer(*accels[a], layer,
                            is_spiking ? &spikes : nullptr,
                            is_spiking ? &summaries : nullptr, options,
                            results[a]);
    }
    return results;
}

RunResult
runWorkload(Accelerator& accel, const Workload& workload,
            const RunOptions& options)
{
    return std::move(runWorkloadOnAll({&accel}, workload, options).front());
}

double
geometricMean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        PROSPERITY_ASSERT(v > 0.0, "geometric mean needs positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace prosperity
