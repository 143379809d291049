/**
 * @file
 * SamplingPlan: the declarative "sampling" block of an adaptive
 * campaign spec — what "enough seeds" means for every Monte Carlo
 * cell.
 *
 * A plan names the reported metrics, the target precision (eps, by
 * default *relative* to the running mean), the campaign-wide
 * confidence (1 - alpha, union-bounded across every cell and metric),
 * the seed budget bracket [min_seeds, max_seeds], and the checkpoint
 * schedule for convergence curves. Parsed from / serialized to the
 * campaign-spec JSON with the repository's key-path error style;
 * `SamplingPlan::fromJson(p.toJson(), ...)` gives back p exactly.
 */

#ifndef PROSPERITY_STATS_SAMPLING_PLAN_H
#define PROSPERITY_STATS_SAMPLING_PLAN_H

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "stats/checkpoints.h"
#include "util/json.h"

namespace prosperity::stats {

/** The most seeds a plan may ask of one cell. An adaptive campaign's
 *  first round builds min_seeds jobs per cell, so a spec must not set
 *  the budget without bound; every checked-in plan stays at 64 or
 *  below. */
inline constexpr std::size_t kMaxSeeds = 1024;

struct SamplingPlan
{
    /** Target CI half-width: relative to |mean| by default, absolute
     *  when `relative` is false. */
    double eps = 0.05;

    /** All intervals hold simultaneously at confidence 1 - alpha. */
    double alpha = 0.05;

    bool relative = true;

    /** Seeds every cell draws before the stopping rule may fire. */
    std::size_t min_seeds = 4;

    /** Hard per-cell budget; a cell stopping here without converging
     *  is flagged in the report. */
    std::size_t max_seeds = 64;

    /** RunResult metrics the stopping rule watches (see
     *  metricValue()). */
    std::vector<std::string> metrics = {"cycles", "energy_pj"};

    CheckpointSchedule checkpoints;

    /**
     * Parse the `"sampling"` object of a campaign spec; `context`
     * prefixes key-path errors. Validates ranges (eps > 0, alpha in
     * (0,1), 2 <= min_seeds <= max_seeds <= kMaxSeeds) and metric
     * names against the supported roster.
     */
    static SamplingPlan fromJson(const json::Value& value,
                                 const std::string& context);

    json::Value toJson() const;
};

/** The metric names metricValue() understands, in canonical order. */
const std::vector<std::string>& supportedMetrics();

/**
 * Extract a reported metric from a RunResult by name: "cycles",
 * "seconds", "energy_pj", "dram_bytes", "dense_macs", "gops", "gopj",
 * "avg_power_w". Throws std::invalid_argument (listing the roster) for
 * unknown names — callers validate at spec-load time via
 * SamplingPlan::fromJson, so a throw here is a programming error
 * surfaced loudly.
 */
double metricValue(const RunResult& result, const std::string& metric);

} // namespace prosperity::stats

#endif // PROSPERITY_STATS_SAMPLING_PLAN_H
