/**
 * @file
 * Field-for-field equality of the spec types, for the round-trip tests
 * (parse(serialize(spec)) == spec) and for comparing a job with the
 * spec axis it came from. No program compares specs, so the operators
 * live with the tests; C++20 derives each `!=` from its `==`.
 */

#ifndef PROSPERITY_TESTS_SPEC_EQUALITY_H
#define PROSPERITY_TESTS_SPEC_EQUALITY_H

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "snn/layer.h"
#include "stats/checkpoints.h"
#include "stats/sampling_plan.h"

namespace prosperity {

namespace stats {

inline bool
operator==(const CheckpointSchedule& a, const CheckpointSchedule& b)
{
    if (a.kind != b.kind || a.start != b.start)
        return false;
    return a.kind == CheckpointSchedule::Kind::kLinear
               ? a.step == b.step
               : a.factor == b.factor;
}

inline bool
operator==(const SamplingPlan& a, const SamplingPlan& b)
{
    return a.eps == b.eps && a.alpha == b.alpha &&
           a.relative == b.relative && a.min_seeds == b.min_seeds &&
           a.max_seeds == b.max_seeds && a.metrics == b.metrics &&
           a.checkpoints == b.checkpoints;
}

} // namespace stats

/** Same design point: name and parameters match verbatim. */
inline bool
operator==(const AcceleratorSpec& a, const AcceleratorSpec& b)
{
    return a.name == b.name &&
           a.params.entries() == b.params.entries();
}

inline bool
operator==(const CampaignAccelerator& a, const CampaignAccelerator& b)
{
    return a.label == b.label && a.spec == b.spec;
}

inline bool
operator==(const CampaignSpec& a, const CampaignSpec& b)
{
    return a.name == b.name && a.description == b.description &&
           a.expansion == b.expansion && a.baseline == b.baseline &&
           a.accelerators == b.accelerators &&
           a.workloads == b.workloads && a.options == b.options &&
           a.sampling == b.sampling;
}

inline bool
operator==(const LayerSpec& a, const LayerSpec& b)
{
    return a.name == b.name && a.type == b.type &&
           a.time_steps == b.time_steps && a.gemm == b.gemm &&
           a.sfu_ops == b.sfu_ops && a.spiking == b.spiking &&
           a.profile_override == b.profile_override;
}

inline bool
operator==(const ModelSpec& a, const ModelSpec& b)
{
    return a.name == b.name && a.time_steps == b.time_steps &&
           a.layers == b.layers;
}

} // namespace prosperity

#endif // PROSPERITY_TESTS_SPEC_EQUALITY_H
