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
                 const std::vector<const Workload*>& workloads,
                 const RunOptions& options)
{
    PROSPERITY_ASSERT(!accels.empty() && workloads.size() == accels.size(),
                      "a lineup runs one workload per design");
    // Lower each distinct workload once; design a runs
    // models[model_of[a]], and models[0] (the first design's) leads.
    std::vector<const Workload*> lowered;
    std::vector<ModelSpec> models;
    std::vector<std::size_t> model_of(accels.size());
    for (std::size_t a = 0; a < accels.size(); ++a) {
        std::size_t m = 0;
        while (m < lowered.size() && !(*lowered[m] == *workloads[a]))
            ++m;
        if (m == lowered.size()) {
            lowered.push_back(workloads[a]);
            models.push_back(workloads[a]->buildModel());
            PROSPERITY_ASSERT(
                workloads[a]->profile == lowered.front()->profile &&
                    models.back().layers.size() ==
                        models.front().layers.size(),
                "a lineup's workloads must draw one spike stream");
        }
        model_of[a] = m;
    }
    const std::vector<LayerSpec>& lead = models.front().layers;
    const SpikeGenerator gen(lowered.front()->profile, options.seed);

    std::vector<RunResult> results(accels.size());
    for (std::size_t a = 0; a < accels.size(); ++a) {
        results[a].accelerator = accels[a]->name();
        results[a].workload = workloads[a]->name();
        results[a].tech = accels[a]->tech();
        accels[a]->beginModel(hintsFor(models[model_of[a]]));
    }

    for (std::size_t i = 0; i < lead.size(); ++i) {
        const LayerSpec& layer = lead[i];
        for (std::size_t m = 1; m < models.size(); ++m)
            PROSPERITY_ASSERT(sameLayerSpikes(models[m].layers[i], layer),
                              "a lineup's workloads must draw one spike "
                              "stream");
        BitMatrix spikes;
        const bool is_spiking = layer.isSpikingGemm();
        if (is_spiking) {
            obs::ScopedSpan span("spikegen", layer.name);
            spikes = gen.generateLayer(layer, i + 1);
        }

        // The designs that tile these spikes alike share one front-end
        // pass over them; each folds it with its own layer's n.
        TileSummaryCache summaries(spikes, layer.name);
        for (std::size_t a = 0; a < accels.size(); ++a)
            accumulateLayer(*accels[a], models[model_of[a]].layers[i],
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
    return std::move(
        runWorkloadOnAll({&accel}, {&workload}, options).front());
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
