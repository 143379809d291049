#include "checkpoints.h"

#include <cmath>

#include "util/json_schema.h"

namespace prosperity::stats {

namespace {

/** The checkpoint after `n` on a log schedule: strictly increasing
 *  even when factor * n rounds back to n. */
std::size_t
nextLogPoint(std::size_t n, double factor)
{
    const double scaled = std::ceil(static_cast<double>(n) * factor);
    const auto next = static_cast<std::size_t>(scaled);
    return next > n ? next : n + 1;
}

} // namespace

bool
CheckpointSchedule::contains(std::size_t n) const
{
    if (n < start)
        return false;
    if (kind == Kind::kLinear)
        return (n - start) % step == 0;
    std::size_t point = start;
    while (point < n)
        point = nextLogPoint(point, factor);
    return point == n;
}

CheckpointSchedule
CheckpointSchedule::fromJson(const json::Value& value,
                             const std::string& context)
{
    json::requireObject(value, context);
    json::expectOnlyKeys(value, {"kind", "start", "step", "factor"},
                         context);
    CheckpointSchedule schedule;
    const std::string kind =
        json::optionalString(value, "kind", "log", context);
    if (kind == "linear")
        schedule.kind = Kind::kLinear;
    else if (kind == "log")
        schedule.kind = Kind::kLog;
    else
        json::schemaError(context, "unknown checkpoint kind \"" + kind +
                                       "\" (accepted: linear, log)");

    schedule.start =
        json::optionalSize(value, "start", schedule.start, context);
    if (schedule.start < 1)
        json::schemaError(context, "\"start\" must be at least 1");

    if (const json::Value* step = value.find("step")) {
        if (schedule.kind != Kind::kLinear)
            json::schemaError(context,
                              "\"step\" only applies to the linear "
                              "kind (log schedules use \"factor\")");
        schedule.step =
            json::requireSizeValue(*step, context + ".step");
        if (schedule.step < 1)
            json::schemaError(context, "\"step\" must be at least 1");
    }
    if (const json::Value* factor = value.find("factor")) {
        if (schedule.kind != Kind::kLog)
            json::schemaError(context,
                              "\"factor\" only applies to the log "
                              "kind (linear schedules use \"step\")");
        schedule.factor =
            json::requireNumberValue(*factor, context + ".factor");
        if (!(schedule.factor > 1.0))
            json::schemaError(context,
                              "\"factor\" must be greater than 1");
    }
    return schedule;
}

json::Value
CheckpointSchedule::toJson() const
{
    json::Value out = json::Value::object();
    out.set("kind", kind == Kind::kLinear ? "linear" : "log");
    out.set("start", start);
    if (kind == Kind::kLinear)
        out.set("step", step);
    else
        out.set("factor", factor);
    return out;
}

} // namespace prosperity::stats
