/**
 * @file
 * Adaptive (run-until-confident) execution of Monte Carlo cells over
 * SimulationEngine::submit.
 *
 * Each unique campaign job is treated as a Monte Carlo cell whose
 * activation seed is resampled: seed index 0 is the job's own seed (so
 * an adaptive cell's headline result is bitwise identical to the
 * fixed-seed run of the same spec), and seed index i > 0 is derived
 * from (job key, base seed, i) alone — appending more seeds never
 * changes the seeds already drawn, which is what makes convergence
 * curves and incremental reruns meaningful.
 *
 * Determinism: each round's seeds are submitted as one batch (all
 * cells in parallel across the engine's pool) but their results are
 * *appended* to the per-cell accumulators strictly in (cell index,
 * seed index) order, and the stopping rule is consulted only at batch
 * boundaries — so the number of seeds drawn, every mean/half-width,
 * and the final report are bitwise identical for any engine thread
 * count.
 */

#ifndef PROSPERITY_STATS_ADAPTIVE_RUNNER_H
#define PROSPERITY_STATS_ADAPTIVE_RUNNER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "stats/sampling_plan.h"
#include "stats/stopping.h"

namespace prosperity::stats {

/**
 * The activation seed of substream index `index` of the cell
 * identified by `job_key` (the SimulationEngine::jobKey of the cell's
 * base job) with base seed `base_seed`.
 *
 * Index 0 is `base_seed` itself; later indices are a splitmix64-style
 * mix of an FNV-1a hash of the key and the index, masked to 53 bits so
 * every derived seed survives a JSON round trip exactly
 * (requireSizeValue rejects values >= 2^53). Depends only on its three
 * arguments: substreams are independent of how many seeds any cell
 * ends up drawing.
 */
std::uint64_t deriveSubstreamSeed(const std::string& job_key,
                                  std::uint64_t base_seed,
                                  std::size_t index);

/** Outcome of adaptively sampling one cell. */
struct AdaptiveCellOutcome
{
    /** Seed-index-0 result — bitwise the fixed-seed run's result. */
    RunResult first;
    CellSampling sampling;
};

/** Per-seed progress of an adaptive run. */
struct AdaptiveProgress
{
    std::size_t job_index = 0;   ///< cell (unique-job) index
    std::size_t total_jobs = 0;  ///< number of cells
    std::size_t seeds_drawn = 0; ///< seeds of this cell, incl. this one
    std::size_t total_seeds = 0; ///< seeds campaign-wide, incl. this one
    const SimulationJob* job = nullptr; ///< the cell's base job
    const RunResult* result = nullptr;  ///< this seed's result
};

using AdaptiveProgressCallback =
    std::function<void(const AdaptiveProgress&)>;

/**
 * Sample every cell until its metrics converge (or the plan's seed
 * cap), returning outcomes aligned with `jobs`. The union bound spans
 * jobs.size() x plan.metrics.size() simultaneous intervals. Engine
 * errors propagate as exceptions from the offending seed's future.
 */
std::vector<AdaptiveCellOutcome> runAdaptive(
    SimulationEngine& engine, const std::vector<SimulationJob>& jobs,
    const SamplingPlan& plan,
    const AdaptiveProgressCallback& progress = {});

} // namespace prosperity::stats

#endif // PROSPERITY_STATS_ADAPTIVE_RUNNER_H
