#include "result_json.h"

#include "util/json_schema.h"

namespace prosperity {

namespace {

double
requireNumber(const json::Value& object, const char* key,
              const std::string& context)
{
    const json::Value* value = object.find(key);
    if (!value)
        json::schemaError(context, std::string("missing required key \"") +
                                       key + '"');
    return json::requireNumberValue(*value, context + "." + key);
}

} // namespace

json::Value
runResultToJson(const RunResult& result)
{
    json::Value root = json::Value::object();
    root.set("accelerator", result.accelerator);
    root.set("workload", result.workload);
    root.set("cycles", result.cycles);
    root.set("dense_macs", result.dense_macs);
    root.set("dram_bytes", result.dram_bytes);

    json::Value tech = json::Value::object();
    tech.set("frequency_hz", result.tech.frequency_hz);
    tech.set("node_nm", result.tech.node_nm);
    root.set("tech", std::move(tech));
    setBreakdownAndLayers(root, result);
    return root;
}

void
setBreakdownAndLayers(json::Value& entry, const RunResult& result)
{
    json::Value breakdown = json::Value::object();
    result.energy.forEachCharged([&](EnergyComponent component, double pj) {
        breakdown.set(std::string(energyComponentName(component)), pj);
    });
    entry.set("energy_breakdown", std::move(breakdown));

    if (!result.layers.empty()) {
        json::Value layers = json::Value::array();
        for (const LayerRunRecord& layer : result.layers) {
            json::Value record = json::Value::object();
            record.set("layer", layer.layer_name);
            record.set("cycles", layer.cycles);
            record.set("dense_macs", layer.dense_macs);
            layers.push(std::move(record));
        }
        entry.set("layers", std::move(layers));
    }
}

RunResult
runResultFromJson(const json::Value& value)
{
    const std::string top = "run result";
    json::requireObject(value, top);
    json::expectOnlyKeys(value,
                         {"accelerator", "workload", "cycles",
                          "dense_macs", "dram_bytes", "tech",
                          "energy_breakdown", "layers"},
                         top);

    RunResult result;
    result.accelerator = json::requireString(value, "accelerator", top);
    result.workload = json::requireString(value, "workload", top);
    result.cycles = requireNumber(value, "cycles", top);
    result.dense_macs = requireNumber(value, "dense_macs", top);
    result.dram_bytes = requireNumber(value, "dram_bytes", top);

    const json::Value* tech = value.find("tech");
    if (!tech)
        json::schemaError(top, "missing required key \"tech\"");
    json::requireObject(*tech, top + ".tech");
    json::expectOnlyKeys(*tech, {"frequency_hz", "node_nm"},
                         top + ".tech");
    result.tech.frequency_hz =
        requireNumber(*tech, "frequency_hz", top + ".tech");
    result.tech.node_nm = static_cast<int>(json::requireSize(
        *tech, "node_nm", top + ".tech"));

    const json::Value* breakdown = value.find("energy_breakdown");
    if (!breakdown)
        json::schemaError(top,
                          "missing required key \"energy_breakdown\"");
    json::requireObject(*breakdown, top + ".energy_breakdown");
    for (const auto& [name, pj] : breakdown->asObject()) {
        const std::string context = top + ".energy_breakdown." + name;
        const std::optional<EnergyComponent> component =
            energyComponentFromName(name);
        if (!component)
            json::schemaError(context, "unknown energy component");
        const double each = json::requireNumberValue(pj, context);
        if (each < 0.0)
            json::schemaError(context, "energy must be non-negative, got " +
                                           json::formatDouble(each));
        result.energy.charge(*component, each, 1.0);
    }

    if (const json::Value* layers = value.find("layers")) {
        const json::Value::Array& entries =
            json::requireArray(value, "layers", top);
        (void)layers;
        result.layers.reserve(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const std::string context =
                top + ".layers[" + std::to_string(i) + ']';
            json::requireObject(entries[i], context);
            json::expectOnlyKeys(entries[i],
                                 {"layer", "cycles", "dense_macs"},
                                 context);
            LayerRunRecord layer;
            layer.layer_name =
                json::requireString(entries[i], "layer", context);
            layer.cycles = requireNumber(entries[i], "cycles", context);
            layer.dense_macs =
                requireNumber(entries[i], "dense_macs", context);
            result.layers.push_back(std::move(layer));
        }
    }
    return result;
}

} // namespace prosperity
