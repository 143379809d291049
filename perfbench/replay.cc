/**
 * @file
 * Single-thread replay: every unique job behind a run's reports, driven
 * through the library's public functions in runWorkload's order, with a
 * span around each call so host time splits across the src/ modules:
 *
 *   snn       Workload::buildModel
 *   arch      AcceleratorRegistry::create + beginModel
 *   gen       SpikeGenerator::generateLayer (honouring per-layer
 *             profile overrides, as runWorkload does)
 *   analysis  layerRequestFor, CampaignSpec::expand,
 *             assembleCampaignReport
 *   core      Accelerator::runLayer on ProsperityAccelerator designs
 *   baselines Accelerator::runLayer on every other design
 *   util      CampaignReport::toJson + json::Value::dump
 *   bench     the replay loop itself
 *
 * The replayed results are re-assembled into each report and must
 * reproduce the timed run's bytes (cycles, energy and DRAM bytes of
 * every job included), so the trace measures the same work.
 */

#include <map>
#include <memory>

#include "analysis/runner.h"
#include "arch/registry.h"
#include "bench.h"
#include "core/prosperity_accelerator.h"
#include "gen/spike_generator.h"

namespace perfbench {

namespace {

using namespace prosperity;

std::size_t
ceilDiv(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

/** Tiles Ppu::runGemm analyses for one spiking layer. */
double
tilesAnalysed(const ProsperityAccelerator& accel, const GemmShape& shape)
{
    const TileConfig& tile = accel.config().tile;
    const std::size_t all = ceilDiv(shape.m, tile.m) * ceilDiv(shape.k, tile.k);
    const std::size_t cap = accel.options().max_sampled_tiles;
    return static_cast<double>(cap > 0 && all > cap ? cap : all);
}

RunResult
replayJob(const SimulationJob& job, bool reference, SpanRecorder& spans,
          ReplayOutcome& out)
{
    ScopedSpan job_span(&spans, "bench",
                        "job " + job.accelerator.name + " " +
                            job.workload.name());
    ModelSpec model;
    {
        ScopedSpan s(&spans, "snn", "Workload::buildModel");
        model = job.workload.buildModel();
    }
    std::unique_ptr<Accelerator> accel;
    {
        ScopedSpan s(&spans, "arch", "AcceleratorRegistry::create");
        accel = AcceleratorRegistry::instance().create(
            job.accelerator.name, job.accelerator.params);
        ModelHints hints;
        hints.time_steps = model.time_steps;
        accel->beginModel(hints);
    }
    const auto* prosperity =
        dynamic_cast<const ProsperityAccelerator*>(accel.get());
    const bool full = prosperity &&
                      prosperity->options().sparsity ==
                          SparsityMode::kProductSparsity &&
                      prosperity->options().dispatch ==
                          DispatchMode::kOverheadFree;
    const bool traversal = prosperity &&
                           prosperity->options().dispatch ==
                               DispatchMode::kTreeTraversal;
    const char* run_layer = prosperity ? "core" : "baselines";

    const SpikeGenerator gen(job.workload.profile, job.options.seed);
    RunResult result;
    result.accelerator = accel->name();
    result.workload = job.workload.name();
    result.tech = accel->tech();

    std::size_t layer_index = 0;
    for (const LayerSpec& layer : model.layers) {
        ++layer_index;
        BitMatrix spikes;
        const bool spiking = layer.isSpikingGemm();
        if (spiking) {
            ScopedSpan s(&spans, "gen", "generateLayer " + layer.name);
            spikes = layer.profile_override
                         ? SpikeGenerator(*layer.profile_override,
                                          job.options.seed)
                               .generateLayer(layer, layer_index)
                         : gen.generateLayer(layer, layer_index);
            out.generated_bits += static_cast<double>(spikes.rows()) *
                                  static_cast<double>(spikes.cols());
        }
        LayerRequest request;
        {
            ScopedSpan s(&spans, "analysis", "layerRequestFor");
            request = layerRequestFor(layer, spiking ? &spikes : nullptr);
        }
        LayerResult lr;
        {
            ScopedSpan s(&spans, run_layer, "runLayer " + layer.name);
            lr = accel->runLayer(request);
        }
        result.cycles += lr.cycles;
        result.dense_macs += lr.dense_macs;
        result.dram_bytes += lr.dram_bytes;
        result.energy.merge(lr.energy);
        if (job.options.keep_layer_records)
            result.layers.push_back(
                LayerRunRecord{layer.name, lr.cycles, layer.denseOps()});

        if (!prosperity || !spiking)
            continue;
        // Modelled clock: lastResult() is this layer's PPU result.
        const PpuLayerResult& last = prosperity->lastResult();
        out.prosperity_tiles += tilesAnalysed(*prosperity, layer.gemm);
        if (reference) {
            out.ref_dense_ops += last.dense_ops;
            out.ref_bit_ops += last.bit_ops;
            out.ref_product_ops += last.product_ops;
        }
        if (full) {
            out.prefix_hits += last.prefix_hits;
            out.rows_processed += last.rows_processed;
            if (last.dram_cycles > 0.0 && last.cycles == last.dram_cycles)
                ++out.dram_bound_layers;
        }
        if (traversal) {
            out.traversal_exposed += last.exposed_prosparsity_cycles;
            out.traversal_cycles += last.cycles;
        }
    }
    return result;
}

} // namespace

ReplayOutcome
replayReports(const std::vector<Report>& reports, SpanRecorder& spans,
              const std::string& reference_label,
              const std::string& reference_workload)
{
    ReplayOutcome out;
    ScopedSpan root(&spans, "bench", "replay");
    out.root_span = root.index();

    std::map<std::string, RunResult> results; // by SimulationEngine::jobKey
    std::map<std::string, bool> seen_report;
    for (const Report& report : reports) {
        if (!seen_report.emplace(report.spec.name, true).second)
            continue;
        CampaignSpec::CampaignExpansion expansion;
        {
            ScopedSpan s(&spans, "analysis", "CampaignSpec::expand");
            expansion = report.spec.expand();
        }
        for (const CampaignSpec::Cell& cell : expansion.cells) {
            const SimulationJob& job = expansion.jobs[cell.job_index];
            const std::string key = SimulationEngine::jobKey(job);
            if (results.count(key))
                continue;
            const bool reference =
                report.spec.accelerators[cell.accelerator_index].label ==
                    reference_label &&
                job.workload.name() == reference_workload &&
                out.ref_dense_ops == 0.0;
            const std::uint64_t start = nowNs();
            results.emplace(key, replayJob(job, reference, spans, out));
            out.job_s += secondsBetween(start, nowNs());
            ++out.jobs;
        }

        std::vector<RunResult> ordered;
        ordered.reserve(expansion.jobs.size());
        for (const SimulationJob& job : expansion.jobs)
            ordered.push_back(results.at(SimulationEngine::jobKey(job)));
        CampaignReport assembled;
        {
            ScopedSpan s(&spans, "analysis", "assembleCampaignReport");
            assembled = assembleCampaignReport(report.spec, expansion,
                                               std::move(ordered));
        }
        std::string bytes;
        {
            ScopedSpan s(&spans, "util", "CampaignReport::toJson+dump");
            bytes = assembled.toJson().dump(2) + "\n";
        }
        out.report_bytes += static_cast<double>(bytes.size());
        ++out.reports;
        if (bytes != report.bytes) {
            ++out.mismatches;
            out.errors.push_back("replay of " + report.spec.name +
                                 " does not reproduce the timed report");
        }
    }
    return out;
}

} // namespace perfbench
