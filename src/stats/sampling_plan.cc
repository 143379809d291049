#include "sampling_plan.h"

#include <stdexcept>

#include "util/json_schema.h"

namespace prosperity::stats {

namespace {

std::string
metricRoster()
{
    std::string out;
    for (const std::string& name : supportedMetrics()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

const std::vector<std::string>&
supportedMetrics()
{
    static const std::vector<std::string> kMetrics = {
        "cycles", "seconds",  "energy_pj", "dram_bytes",
        "dense_macs", "gops", "gopj",      "avg_power_w"};
    return kMetrics;
}

double
metricValue(const RunResult& result, const std::string& metric)
{
    if (metric == "cycles")
        return result.cycles;
    if (metric == "seconds")
        return result.seconds();
    if (metric == "energy_pj")
        return result.energy.totalPj();
    if (metric == "dram_bytes")
        return result.dram_bytes;
    if (metric == "dense_macs")
        return result.dense_macs;
    if (metric == "gops")
        return result.gops();
    if (metric == "gopj")
        return result.gopj();
    if (metric == "avg_power_w")
        return result.averagePowerW();
    throw std::invalid_argument("unknown sampling metric \"" + metric +
                                "\" (supported: " + metricRoster() +
                                ")");
}

SamplingPlan
SamplingPlan::fromJson(const json::Value& value,
                       const std::string& context)
{
    json::requireObject(value, context);
    json::expectOnlyKeys(value,
                         {"eps", "alpha", "relative", "min_seeds",
                          "max_seeds", "metrics", "checkpoints"},
                         context);
    SamplingPlan plan;

    const json::Value* eps = value.find("eps");
    if (!eps)
        json::schemaError(context, "missing required key \"eps\"");
    plan.eps = json::requireNumberValue(*eps, context + ".eps");
    if (!(plan.eps > 0.0))
        json::schemaError(context + ".eps",
                          "must be greater than 0 (got " +
                              json::formatDouble(plan.eps) + ")");

    if (const json::Value* alpha = value.find("alpha")) {
        plan.alpha =
            json::requireNumberValue(*alpha, context + ".alpha");
        if (!(plan.alpha > 0.0) || !(plan.alpha < 1.0))
            json::schemaError(context + ".alpha",
                              "must be in (0, 1), got " +
                                  json::formatDouble(plan.alpha));
    }

    plan.relative = json::optionalBool(value, "relative", plan.relative,
                                       context);
    plan.min_seeds =
        json::optionalSize(value, "min_seeds", plan.min_seeds, context);
    if (plan.min_seeds < 2)
        json::schemaError(context + ".min_seeds",
                          "must be at least 2 — a single seed has no "
                          "observed range, so no interval");
    if (plan.min_seeds > kMaxSeeds)
        json::schemaError(
            context + ".min_seeds",
            "must be at most " + std::to_string(kMaxSeeds) + ", got " +
                std::to_string(plan.min_seeds));
    plan.max_seeds =
        json::optionalSize(value, "max_seeds", plan.max_seeds, context);
    if (plan.max_seeds < plan.min_seeds)
        json::schemaError(
            context + ".max_seeds",
            "must be at least min_seeds (" +
                std::to_string(plan.min_seeds) + "), got " +
                std::to_string(plan.max_seeds));
    if (plan.max_seeds > kMaxSeeds)
        json::schemaError(
            context + ".max_seeds",
            "must be at most " + std::to_string(kMaxSeeds) + ", got " +
                std::to_string(plan.max_seeds));

    if (const json::Value* metrics = value.find("metrics")) {
        if (!metrics->isArray())
            json::schemaError(context,
                              "key \"metrics\" must be an array, got " +
                                  std::string(json::Value::typeName(
                                      metrics->type())));
        plan.metrics.clear();
        const json::Value::Array& entries = metrics->asArray();
        if (entries.empty())
            json::schemaError(context + ".metrics",
                              "must name at least one metric (" +
                                  metricRoster() + ")");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const std::string item_context =
                context + ".metrics[" + std::to_string(i) + "]";
            if (!entries[i].isString())
                json::schemaError(
                    item_context,
                    std::string("expected a string, got ") +
                        json::Value::typeName(entries[i].type()));
            const std::string& name = entries[i].asString();
            bool known = false;
            for (const std::string& supported : supportedMetrics())
                if (name == supported) {
                    known = true;
                    break;
                }
            if (!known)
                json::schemaError(item_context,
                                  "unknown metric \"" + name +
                                      "\" (supported: " +
                                      metricRoster() + ")");
            for (const std::string& seen : plan.metrics)
                if (seen == name)
                    json::schemaError(item_context,
                                      "duplicate metric \"" + name +
                                          '"');
            plan.metrics.push_back(name);
        }
    }

    // Default checkpoint curves start where intervals first exist.
    plan.checkpoints.start = plan.min_seeds;
    if (const json::Value* checkpoints = value.find("checkpoints"))
        plan.checkpoints = CheckpointSchedule::fromJson(
            *checkpoints, context + ".checkpoints");
    return plan;
}

json::Value
SamplingPlan::toJson() const
{
    json::Value out = json::Value::object();
    out.set("eps", eps);
    out.set("alpha", alpha);
    out.set("relative", relative);
    out.set("min_seeds", min_seeds);
    out.set("max_seeds", max_seeds);
    json::Value metric_names = json::Value::array();
    for (const std::string& name : metrics)
        metric_names.push(name);
    out.set("metrics", std::move(metric_names));
    out.set("checkpoints", checkpoints.toJson());
    return out;
}

} // namespace prosperity::stats
