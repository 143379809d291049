/**
 * @file
 * Workload runner: drives a lineup of Accelerators, each on its own
 * (model, dataset) workload, through every layer of workloads that
 * draw one stream of calibrated synthetic activations, and aggregates
 * latency / energy / throughput per design — the machinery behind
 * Table IV, Fig. 8 and Fig. 9.
 */

#ifndef PROSPERITY_ANALYSIS_RUNNER_H
#define PROSPERITY_ANALYSIS_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "snn/workload.h"

namespace prosperity {

/** Per-layer record for inspection. */
struct LayerRunRecord
{
    std::string layer_name;
    double cycles = 0.0;
    double dense_macs = 0.0;
};

/** End-to-end result of one workload on one accelerator. */
struct RunResult
{
    std::string accelerator;
    std::string workload;

    double cycles = 0.0;
    double dense_macs = 0.0; ///< MACs of all GeMM layers (dense count)
    double dram_bytes = 0.0; ///< total off-chip traffic (0 for the GPU)
    EnergyModel energy;
    Tech tech;

    std::vector<LayerRunRecord> layers;

    /** Wall-clock seconds at the design's frequency. */
    double seconds() const { return tech.secondsFor(cycles); }

    /** Dense-equivalent throughput in GOP/s (Table IV). One OP is one
     *  accumulate position of the dense GeMM — the paper's convention,
     *  under which Eyeriss's 168 MACs at 35% utilization produce its
     *  reported 29.4 GOP/s. */
    double gops() const
    {
        const double s = seconds();
        return s > 0.0 ? dense_macs / s / 1e9 : 0.0;
    }

    /** Energy efficiency, GOP/J (Table IV, same OP convention). */
    double gopj() const
    {
        const double joules = energy.totalPj() * 1e-12;
        return joules > 0.0 ? dense_macs / joules / 1e9 : 0.0;
    }

    /** Average power in watts over the run. */
    double averagePowerW() const
    {
        return energy.averagePowerW(cycles, tech);
    }
};

/** Runner options. */
struct RunOptions
{
    std::uint64_t seed = 7;
    bool keep_layer_records = false;
};

inline bool
operator==(const RunOptions& a, const RunOptions& b)
{
    return a.seed == b.seed &&
           a.keep_layer_records == b.keep_layer_records;
}
inline bool
operator!=(const RunOptions& a, const RunOptions& b)
{
    return !(a == b);
}

/**
 * Build the LayerRequest a workload layer maps to. `spikes` must be the
 * layer's generated spike matrix for spiking-GeMM layers (it may be
 * null for dense/SFU layers) and must outlive the returned request.
 */
LayerRequest layerRequestFor(const LayerSpec& layer,
                             const BitMatrix* spikes);

/**
 * Run a lineup: accels[i] runs workloads[i]. The workloads must draw
 * one spike stream (equal spikeStreamKey under options.seed; asserted
 * layer by layer), e.g. one model on datasets that differ only in the
 * classifier's n. The walk lowers each distinct workload once, then
 * generates and tile-summarises each spiking layer once, from the
 * first workload's layer, and every design folds it with its own
 * layer. Accelerators share nothing but the read-only matrices and
 * summaries, so results[i] is what runWorkload(*accels[i],
 * *workloads[i]) alone would produce.
 */
std::vector<RunResult> runWorkloadOnAll(
    const std::vector<Accelerator*>& accels,
    const std::vector<const Workload*>& workloads,
    const RunOptions& options = {});

/** Run one workload end to end on `accel`: the one-design lineup. */
RunResult runWorkload(Accelerator& accel, const Workload& workload,
                      const RunOptions& options = {});

/** Geometric mean helper for the Fig. 8 summary columns. */
double geometricMean(const std::vector<double>& values);

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_RUNNER_H
