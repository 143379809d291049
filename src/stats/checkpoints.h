/**
 * @file
 * Checkpoint schedules for convergence-over-seeds curves.
 *
 * An adaptive campaign cell appends seed results one at a time; a
 * CheckpointSchedule names the sample counts at which the per-metric
 * mean and confidence half-width are snapshotted into the report, so a
 * single run yields the whole convergence curve (half-width vs n) for
 * plotting — no re-running at different budgets.
 *
 * Two schedule shapes:
 * - **linear**: start, start+step, start+2*step, ...
 * - **log**: start, ceil(start*factor), ceil(start*factor^2), ...
 *   (strictly increasing; a factor close to 1 still advances by at
 *   least one sample per point)
 */

#ifndef PROSPERITY_STATS_CHECKPOINTS_H
#define PROSPERITY_STATS_CHECKPOINTS_H

#include <cstddef>
#include <string>

#include "util/json.h"

namespace prosperity::stats {

struct CheckpointSchedule
{
    enum class Kind { kLinear, kLog };

    Kind kind = Kind::kLog;
    std::size_t start = 2; ///< first checkpointed sample count (>= 1)
    std::size_t step = 1;  ///< linear increment (>= 1)
    double factor = 2.0;   ///< log multiplier (> 1)

    /** Is `n` a checkpointed count (n >= start on the schedule)? */
    bool contains(std::size_t n) const;

    /**
     * Parse from the campaign-spec JSON form
     * (`{"kind": "log", "start": 4, "factor": 2}`); `context`
     * prefixes key-path errors. Validates start/step/factor ranges.
     */
    static CheckpointSchedule fromJson(const json::Value& value,
                                       const std::string& context);

    json::Value toJson() const;
};

} // namespace prosperity::stats

#endif // PROSPERITY_STATS_CHECKPOINTS_H
