#include "campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/export.h"
#include "analysis/result_json.h"
#include "snn/model_desc.h"
#include "snn/model_registry.h"
#include "stats/adaptive_runner.h"
#include "util/json_schema.h"

namespace prosperity {

std::vector<RunOptions>
CampaignSpec::effectiveOptions() const
{
    return options.empty() ? std::vector<RunOptions>{RunOptions{}}
                           : options;
}

std::string
CampaignSpec::baselineLabel() const
{
    if (!baseline.empty())
        return baseline;
    return accelerators.empty() ? std::string() : accelerators.front().label;
}

namespace {

[[noreturn]] void
specError(const std::string& campaign, const std::string& message)
{
    const std::string who =
        campaign.empty() ? "campaign spec" : "campaign \"" + campaign + '"';
    throw std::invalid_argument(who + ": " + message);
}

/**
 * The checks expand() makes before it builds any job, in its order:
 * empty axes, duplicate labels, an unknown baseline and, for zip,
 * axis lengths other than n or 1. fromJson runs them too, so a bad
 * spec fails at load time without building a job or a key.
 */
void
checkAxes(const CampaignSpec& spec)
{
    if (spec.accelerators.empty())
        specError(spec.name,
                  "the accelerator axis is empty — list at least "
                  "one design point under \"accelerators\"");
    if (spec.workloads.empty())
        specError(spec.name,
                  "the workload axis is empty — list at least one "
                  "(model, dataset) pair under \"workloads\"");

    std::set<std::string> labels;
    for (const CampaignAccelerator& accel : spec.accelerators)
        if (!labels.insert(accel.label).second)
            specError(spec.name, "duplicate accelerator label \"" +
                                     accel.label +
                                     "\" — give each design point a "
                                     "unique \"label\"");
    if (!labels.count(spec.baselineLabel()))
        specError(spec.name, "baseline \"" + spec.baselineLabel() +
                                 "\" does not match any accelerator label");

    if (spec.expansion != CampaignSpec::Expansion::kZip)
        return;
    const std::size_t options =
        spec.options.empty() ? 1 : spec.options.size();
    std::size_t n = 1;
    for (const std::size_t len :
         {spec.accelerators.size(), spec.workloads.size(), options}) {
        if (len == 1)
            continue;
        if (n != 1 && len != n)
            specError(spec.name,
                      "zip expansion needs every axis to have the same "
                      "length (or length 1): accelerators=" +
                          std::to_string(spec.accelerators.size()) +
                          ", workloads=" +
                          std::to_string(spec.workloads.size()) +
                          ", options=" + std::to_string(options));
        n = len;
    }
}

} // namespace

CampaignSpec::CampaignExpansion
CampaignSpec::expand() const
{
    checkAxes(*this);
    const std::vector<RunOptions> opts = effectiveOptions();

    CampaignExpansion out;
    std::map<std::string, std::size_t> job_index_of;
    const auto addCell = [&](std::size_t a, std::size_t w,
                             std::size_t o) {
        SimulationJob job{accelerators[a].spec, workloads[w], opts[o]};
        const std::string key = SimulationEngine::jobKey(job);
        const auto [it, inserted] =
            job_index_of.emplace(key, out.jobs.size());
        if (inserted)
            out.jobs.push_back(std::move(job));
        out.cells.push_back(Cell{a, w, o, it->second});
    };

    if (expansion == Expansion::kCross) {
        for (std::size_t o = 0; o < opts.size(); ++o)
            for (std::size_t w = 0; w < workloads.size(); ++w)
                for (std::size_t a = 0; a < accelerators.size(); ++a)
                    addCell(a, w, o);
        return out;
    }

    // Zip: checkAxes made every axis length n or 1; length-1 axes
    // broadcast.
    const std::size_t n =
        std::max({accelerators.size(), workloads.size(), opts.size()});
    const auto pick = [](std::size_t len, std::size_t i) {
        return len == 1 ? std::size_t{0} : i;
    };
    for (std::size_t i = 0; i < n; ++i)
        addCell(pick(accelerators.size(), i), pick(workloads.size(), i),
                pick(opts.size(), i));
    return out;
}

std::vector<SimulationJob>
CampaignSpec::expandJobs() const
{
    return expand().jobs;
}

// --- JSON parsing -----------------------------------------------------

namespace {

/** Key-path context inside a campaign document (json_schema helpers
 *  append ": <what>", reproducing the established error style). */
std::string
specContext(const std::string& where)
{
    return "campaign spec: " + where;
}

std::string
nameRoster(const std::vector<std::string>& names)
{
    std::string out;
    for (const std::string& name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

/** `context` is the complete error prefix ("campaign spec:
 *  accelerators[0]", "run request: accelerator", ...). */
CampaignAccelerator
parseAccelerator(const json::Value& value, const std::string& context)
{
    json::requireObject(value, context);
    json::expectOnlyKeys(value, {"label", "name", "params"}, context);
    CampaignAccelerator accel;
    accel.spec.name = json::requireString(value, "name", context);
    // Validate against the registry now so a typo'd design name fails
    // at load time with the available roster, not from a worker thread
    // mid-campaign.
    if (!AcceleratorRegistry::instance().contains(accel.spec.name))
        json::schemaError(
            context,
            "unknown accelerator \"" + accel.spec.name +
                "\" (registered: " +
                nameRoster(AcceleratorRegistry::instance().names()) +
                ")");
    if (const json::Value* params = value.find("params")) {
        json::requireObject(*params, context + ".params");
        for (const auto& [key, v] : params->asObject()) {
            if (v.isString())
                accel.spec.params.set(key, v.asString());
            else if (v.isNumber())
                accel.spec.params.set(key, v.asNumber());
            else
                json::schemaError(
                    context + ".params",
                    "value of \"" + key +
                        "\" must be a string or number, got " +
                        json::Value::typeName(v.type()));
        }
    }
    accel.label = json::optionalString(
        value, "label",
        AcceleratorRegistry::canonicalName(accel.spec.name), context);
    return accel;
}

void
parseWorkloadEntry(const json::Value& value, const std::string& context,
                   std::vector<Workload>& out)
{
    json::requireObject(value, context);
    if (const json::Value* suite = value.find("suite")) {
        json::expectOnlyKeys(value, {"suite"}, context);
        if (!suite->isString())
            json::schemaError(context, "\"suite\" must be a string");
        const std::string& name = suite->asString();
        std::vector<Workload> expanded;
        if (name == "fig8")
            expanded = fig8Suite();
        else if (name == "fig11")
            expanded = fig11Suite();
        else
            json::schemaError(context, "unknown suite \"" + name +
                                           "\" (known: fig8, fig11)");
        out.insert(out.end(), expanded.begin(), expanded.end());
        return;
    }

    json::expectOnlyKeys(value, {"model", "dataset", "profile"},
                         context);
    const std::string model_name =
        json::requireString(value, "model", context);
    const std::string dataset_name =
        json::requireString(value, "dataset", context);

    std::string model_key;
    if (model_name.rfind("file:", 0) == 0) {
        // Declarative model reference: load + register the JSON
        // definition (idempotent for identical reloads).
        try {
            model_key = registerModelFile(model_name.substr(5));
        } catch (const std::exception& e) {
            json::schemaError(context, e.what());
        }
    } else if (ModelRegistry::instance().contains(model_name)) {
        model_key = ModelRegistry::canonicalKey(model_name);
    } else {
        json::schemaError(
            context,
            "unknown model \"" + model_name + "\" (registered: " +
                nameRoster(ModelRegistry::instance().names()) +
                "; or reference a model JSON with \"file:<path>\")");
    }
    if (!DatasetRegistry::instance().contains(dataset_name))
        json::schemaError(
            context,
            "unknown dataset \"" + dataset_name + "\" (registered: " +
                nameRoster(DatasetRegistry::instance().names()) + ")");

    Workload workload = makeWorkload(model_key, dataset_name);
    if (const json::Value* profile = value.find("profile"))
        workload.profile = profileFromJson(*profile, workload.profile,
                                           context + ".profile");
    out.push_back(std::move(workload));
}

RunOptions
parseRunOptions(const json::Value& value, const std::string& context)
{
    json::requireObject(value, context);
    json::expectOnlyKeys(value, {"seed", "keep_layer_records"},
                         context);
    RunOptions options;
    if (const json::Value* seed = value.find("seed"))
        options.seed =
            json::requireSizeValue(*seed, context + ".seed");
    options.keep_layer_records = json::optionalBool(
        value, "keep_layer_records", options.keep_layer_records,
        context + ".keep_layer_records");
    return options;
}

/** Workload -> campaign-spec JSON entry. A model loaded from a JSON
 *  file serializes back to its "file:" reference, so the document
 *  stays loadable by a fresh process that has not registered the
 *  model yet; the calibrated profile is implied by (model, dataset),
 *  so only user overrides are written out. */
json::Value
workloadToJson(const Workload& workload)
{
    json::Value entry = json::Value::object();
    const std::string source =
        ModelRegistry::instance().sourceOf(workload.model);
    entry.set("model", source.empty() ? workload.modelName()
                                      : "file:" + source);
    entry.set("dataset", workload.datasetName());
    const ActivationProfile calibrated =
        makeWorkload(workload.model, workload.dataset).profile;
    if (workload.profile != calibrated)
        entry.set("profile", profileToJson(workload.profile));
    return entry;
}

} // namespace

CampaignSpec
CampaignSpec::fromJson(const json::Value& value)
{
    const std::string top = specContext("top level");
    json::requireObject(value, top);
    json::expectOnlyKeys(value,
                         {"name", "description", "expansion", "baseline",
                          "accelerators", "workloads", "options",
                          "sampling"},
                         top);

    CampaignSpec spec;
    spec.name = json::requireString(value, "name", top);
    spec.description =
        json::optionalString(value, "description", "", top);
    const std::string expansion =
        json::optionalString(value, "expansion", "cross", top);
    if (expansion == "cross")
        spec.expansion = Expansion::kCross;
    else if (expansion == "zip")
        spec.expansion = Expansion::kZip;
    else
        json::schemaError(top, "unknown expansion \"" + expansion +
                                   "\" (accepted: cross, zip)");

    const json::Value::Array& accelerators =
        json::requireArray(value, "accelerators", top);
    for (std::size_t i = 0; i < accelerators.size(); ++i)
        spec.accelerators.push_back(parseAccelerator(
            accelerators[i],
            specContext("accelerators[" + std::to_string(i) + "]")));

    const json::Value::Array& workloads =
        json::requireArray(value, "workloads", top);
    for (std::size_t i = 0; i < workloads.size(); ++i)
        parseWorkloadEntry(
            workloads[i],
            specContext("workloads[" + std::to_string(i) + "]"),
            spec.workloads);

    if (value.find("options")) {
        const json::Value::Array& options =
            json::requireArray(value, "options", top);
        for (std::size_t i = 0; i < options.size(); ++i)
            spec.options.push_back(parseRunOptions(
                options[i],
                specContext("options[" + std::to_string(i) + "]")));
    }

    if (const json::Value* sampling = value.find("sampling"))
        spec.sampling = stats::SamplingPlan::fromJson(
            *sampling, specContext("sampling"));

    spec.baseline = json::optionalString(value, "baseline", "", top);
    // Validate axes, labels and baseline now so load-time errors point
    // at the spec instead of surfacing at run time. No job is built:
    // the daemon answers a resubmitted spec without expanding it.
    checkAxes(spec);
    return spec;
}

CampaignSpec
CampaignSpec::load(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::invalid_argument("cannot open campaign spec file: " +
                                    path);
    std::ostringstream text;
    text << is.rdbuf();
    try {
        return fromJson(json::Value::parse(text.str()));
    } catch (const std::exception& e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

json::Value
CampaignSpec::toJson() const
{
    // Keys whose absence equals their default (description, baseline,
    // options) are omitted when defaulted, so fromJson(toJson(spec))
    // reproduces the spec field for field.
    json::Value root = json::Value::object();
    root.set("name", name);
    if (!description.empty())
        root.set("description", description);
    root.set("expansion",
             expansion == Expansion::kCross ? "cross" : "zip");
    if (!baseline.empty())
        root.set("baseline", baseline);

    json::Value accels = json::Value::array();
    for (const CampaignAccelerator& accel : accelerators) {
        json::Value entry = json::Value::object();
        entry.set("label", accel.label);
        entry.set("name", accel.spec.name);
        if (!accel.spec.params.empty()) {
            json::Value params = json::Value::object();
            for (const auto& [key, v] : accel.spec.params.entries())
                params.set(key, v);
            entry.set("params", std::move(params));
        }
        accels.push(std::move(entry));
    }
    root.set("accelerators", std::move(accels));

    json::Value works = json::Value::array();
    for (const Workload& workload : workloads)
        works.push(workloadToJson(workload));
    root.set("workloads", std::move(works));

    if (!options.empty()) {
        json::Value opts = json::Value::array();
        for (const RunOptions& o : options) {
            // Mirror of requireSizeValue's 2^53 guard: refuse to write
            // a spec that could not parse back to the same seed.
            if (o.seed >= (std::uint64_t{1} << 53))
                throw std::invalid_argument(
                    "campaign \"" + name + "\": seed " +
                    std::to_string(o.seed) +
                    " exceeds 2^53 and cannot be represented exactly "
                    "in JSON");
            json::Value entry = json::Value::object();
            entry.set("seed", static_cast<double>(o.seed));
            entry.set("keep_layer_records", o.keep_layer_records);
            opts.push(std::move(entry));
        }
        root.set("options", std::move(opts));
    }
    if (sampling)
        root.set("sampling", sampling->toJson());
    return root;
}

SimulationJob
simulationJobFromJson(const json::Value& value,
                      const std::string& context)
{
    json::requireObject(value, context);
    json::expectOnlyKeys(value, {"accelerator", "workload", "options"},
                         context);

    // Sub-contexts follow the campaign-spec style: "<who>: <path>"
    // ("run request: accelerator.params").
    SimulationJob job;
    const json::Value* accelerator = value.find("accelerator");
    if (!accelerator)
        json::schemaError(context,
                          "missing required key \"accelerator\"");
    job.accelerator =
        parseAccelerator(*accelerator, context + ": accelerator").spec;

    const json::Value* workload = value.find("workload");
    if (!workload)
        json::schemaError(context, "missing required key \"workload\"");
    std::vector<Workload> workloads;
    parseWorkloadEntry(*workload, context + ": workload", workloads);
    if (workloads.size() != 1)
        json::schemaError(context + ": workload",
                          "a run names exactly one (model, dataset) "
                          "pair — suites only expand inside campaigns");
    job.workload = std::move(workloads.front());

    if (const json::Value* options = value.find("options"))
        job.options = parseRunOptions(*options, context + ": options");
    return job;
}

std::string
defaultCampaignDir()
{
    if (const char* env = std::getenv("PROSPERITY_CAMPAIGN_DIR"))
        return env;
#ifdef PROSPERITY_CAMPAIGN_DIR
    return PROSPERITY_CAMPAIGN_DIR;
#else
    return "campaigns";
#endif
}

CampaignSpec
loadNamedCampaign(const std::string& name)
{
    return CampaignSpec::load(defaultCampaignDir() + "/" + name +
                              ".json");
}

// --- Report -----------------------------------------------------------

namespace {

DerivedTable
deriveTable(const CampaignReport& report, const std::string& metric,
            double (*value_of)(const RunResult&))
{
    const CampaignSpec& spec = report.spec;
    DerivedTable table;
    table.metric = metric;
    table.baseline = spec.baselineLabel();
    std::size_t baseline_index = 0;
    for (std::size_t a = 0; a < spec.accelerators.size(); ++a) {
        table.columns.push_back(spec.accelerators[a].label);
        if (spec.accelerators[a].label == table.baseline)
            baseline_index = a;
    }

    // One pass over the cells up front; the nested loops below would
    // otherwise pay an O(cells) scan per grid position.
    std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
             const CampaignCell*>
        cell_at;
    for (const CampaignCell& c : report.cells)
        cell_at.emplace(std::make_tuple(c.accelerator_index,
                                        c.workload_index,
                                        c.option_index),
                        &c);
    const auto cellAt = [&](std::size_t a, std::size_t w,
                            std::size_t o) -> const CampaignCell* {
        const auto it = cell_at.find(std::make_tuple(a, w, o));
        return it == cell_at.end() ? nullptr : it->second;
    };

    const std::vector<RunOptions> opts = spec.effectiveOptions();
    for (std::size_t o = 0; o < opts.size(); ++o) {
        for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
            const CampaignCell* base = cellAt(baseline_index, w, o);
            std::vector<double> row(spec.accelerators.size(),
                                    std::nan(""));
            bool any = false;
            for (std::size_t a = 0; a < spec.accelerators.size(); ++a)
                if (const CampaignCell* c = cellAt(a, w, o)) {
                    any = true;
                    // A zip row may have no baseline cell: its ratios
                    // are undefined (NaN / null), but the row stays so
                    // every simulated cell appears in the table.
                    if (base)
                        row[a] = value_of(base->result) /
                                 value_of(c->result);
                }
            if (!any)
                continue; // grid position never simulated
            std::string label = spec.workloads[w].name();
            if (opts.size() > 1)
                label += " @seed " + std::to_string(opts[o].seed);
            table.rows.push_back(std::move(label));
            table.values.push_back(std::move(row));
        }
    }

    table.geomean.assign(table.columns.size(), std::nan(""));
    for (std::size_t a = 0; a < table.columns.size(); ++a) {
        std::vector<double> cells;
        for (const std::vector<double>& row : table.values)
            if (std::isfinite(row[a]) && row[a] > 0.0)
                cells.push_back(row[a]);
        if (!cells.empty())
            table.geomean[a] = geometricMean(cells);
    }
    return table;
}

double
secondsOf(const RunResult& r)
{
    return r.seconds();
}

double
energyOf(const RunResult& r)
{
    return r.energy.totalPj();
}

json::Value
derivedTableJson(const DerivedTable& table)
{
    json::Value value = json::Value::object();
    value.set("metric", table.metric);
    value.set("baseline", table.baseline);
    json::Value columns = json::Value::array();
    for (const std::string& c : table.columns)
        columns.push(c);
    value.set("columns", std::move(columns));
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
        json::Value row = json::Value::object();
        row.set("label", table.rows[i]);
        json::Value values = json::Value::array();
        for (double v : table.values[i])
            values.push(v); // NaN serializes as null
        row.set("values", std::move(values));
        rows.push(std::move(row));
    }
    value.set("rows", std::move(rows));
    json::Value geomean = json::Value::array();
    for (double v : table.geomean)
        geomean.push(v);
    value.set("geomean", std::move(geomean));
    return value;
}

} // namespace

DerivedTable
CampaignReport::speedupTable() const
{
    return deriveTable(*this, "speedup", &secondsOf);
}

DerivedTable
CampaignReport::energyEfficiencyTable() const
{
    return deriveTable(*this, "energy_efficiency", &energyOf);
}

Table
toTable(const DerivedTable& table, const std::string& title)
{
    Table text(title);
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), table.columns.begin(),
                  table.columns.end());
    text.setHeader(std::move(header));
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
        std::vector<std::string> row = {table.rows[i]};
        for (double v : table.values[i])
            row.push_back(std::isnan(v) ? "n/a" : Table::ratio(v));
        text.addRow(std::move(row));
    }
    std::vector<std::string> geomean = {"geomean"};
    for (double v : table.geomean)
        geomean.push_back(std::isnan(v) ? "n/a" : Table::ratio(v));
    text.addRow(std::move(geomean));
    return text;
}

json::Value
CampaignReport::toJson() const
{
    json::Value root = json::Value::object();
    root.set("schema_version", kSchemaVersion);
    root.set("campaign", spec.name);
    root.set("spec", spec.toJson());

    json::Value cells_json = json::Value::array();
    for (const CampaignCell& c : cells) {
        const RunResult& r = c.result;
        json::Value entry = json::Value::object();
        entry.set("accelerator",
                  spec.accelerators[c.accelerator_index].label);
        entry.set("workload", r.workload);
        entry.set("accelerator_index", c.accelerator_index);
        entry.set("workload_index", c.workload_index);
        entry.set("option_index", c.option_index);
        entry.set("seed", static_cast<double>(c.job.options.seed));
        entry.set("cycles", r.cycles);
        entry.set("seconds", r.seconds());
        entry.set("dense_macs", r.dense_macs);
        entry.set("dram_bytes", r.dram_bytes);
        entry.set("energy_pj", r.energy.totalPj());
        entry.set("gops", r.gops());
        entry.set("gopj", r.gopj());
        entry.set("avg_power_w", r.averagePowerW());
        setBreakdownAndLayers(entry, r);
        if (c.sampling)
            entry.set("sampling", c.sampling->toJson());
        cells_json.push(std::move(entry));
    }
    root.set("cells", std::move(cells_json));

    json::Value derived = json::Value::object();
    derived.set("baseline", spec.baselineLabel());
    derived.set("speedup", derivedTableJson(speedupTable()));
    derived.set("energy_efficiency",
                derivedTableJson(energyEfficiencyTable()));
    root.set("derived", std::move(derived));
    return root;
}

std::string
CampaignReport::toCsv() const
{
    CsvWriter csv;
    std::vector<std::string> header = {
        "accelerator", "workload", "model",     "dataset",
        "seed",        "cycles",   "seconds",   "gops",
        "gopj",        "energy_pj", "avg_power_w", "dram_bytes"};
    // Adaptive campaigns append sampling columns; fixed-seed CSVs are
    // byte-identical to before the sampling layer existed.
    if (spec.sampling) {
        header.push_back("n_seeds");
        header.push_back("converged");
        for (const std::string& metric : spec.sampling->metrics) {
            header.push_back(metric + "_mean");
            header.push_back(metric + "_ci_half_width");
        }
    }
    csv.writeRow(header);
    for (const CampaignCell& c : cells) {
        const RunResult& r = c.result;
        const Workload& w = spec.workloads[c.workload_index];
        csv.cell(spec.accelerators[c.accelerator_index].label)
            .cell(r.workload)
            .cell(w.modelName())
            .cell(w.datasetName())
            .cell(std::to_string(c.job.options.seed))
            .cell(r.cycles)
            .cell(r.seconds())
            .cell(r.gops())
            .cell(r.gopj())
            .cell(r.energy.totalPj())
            .cell(r.averagePowerW())
            .cell(r.dram_bytes);
        if (spec.sampling && c.sampling) {
            csv.cell(std::to_string(c.sampling->n_seeds))
                .cell(c.sampling->converged ? "1" : "0");
            for (const stats::MetricStats& m : c.sampling->metrics)
                csv.cell(m.mean).cell(m.half_width);
        }
        csv.endRow();
    }
    return csv.take();
}

bool
CampaignReport::writeJsonFile(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toJson().dump(2) << '\n';
    return static_cast<bool>(os.flush());
}

bool
CampaignReport::writeCsvFile(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toCsv();
    return static_cast<bool>(os.flush());
}

// --- Runner -----------------------------------------------------------

CampaignReport
assembleCampaignReport(const CampaignSpec& spec,
                       const CampaignSpec::CampaignExpansion& expansion,
                       std::vector<RunResult> results)
{
    CampaignReport report;
    report.spec = spec;
    report.cells.reserve(expansion.cells.size());
    for (const CampaignSpec::Cell& cell : expansion.cells) {
        CampaignCell c;
        c.accelerator_index = cell.accelerator_index;
        c.workload_index = cell.workload_index;
        c.option_index = cell.option_index;
        c.job = expansion.jobs[cell.job_index];
        c.result = results[cell.job_index];
        report.cells.push_back(std::move(c));
    }
    return report;
}

CampaignReport
CampaignRunner::run(const CampaignSpec& spec,
                    const ProgressCallback& progress) const
{
    return run(spec, spec.expand(), progress);
}

CampaignReport
CampaignRunner::run(const CampaignSpec& spec,
                    const CampaignSpec::CampaignExpansion& expansion,
                    const ProgressCallback& progress) const
{
    if (spec.sampling) {
        stats::AdaptiveProgressCallback adaptive_progress;
        if (progress)
            adaptive_progress =
                [&](const stats::AdaptiveProgress& p) {
                    CampaignProgress out;
                    out.completed = p.total_seeds;
                    out.total = 0; // open-ended: the rule decides
                    out.job_index = p.job_index;
                    out.seeds_drawn = p.seeds_drawn;
                    out.job = p.job;
                    out.result = p.result;
                    progress(out);
                };
        std::vector<stats::AdaptiveCellOutcome> outcomes =
            stats::runAdaptive(engine_, expansion.jobs, *spec.sampling,
                               adaptive_progress);
        std::vector<RunResult> results;
        results.reserve(outcomes.size());
        for (stats::AdaptiveCellOutcome& outcome : outcomes)
            results.push_back(std::move(outcome.first));
        CampaignReport report =
            assembleCampaignReport(spec, expansion, std::move(results));
        // report.cells[i] came from expansion.cells[i]; attach each
        // cell's sampling outcome through its unique-job index.
        for (std::size_t i = 0; i < report.cells.size(); ++i)
            report.cells[i].sampling =
                outcomes[expansion.cells[i].job_index].sampling;
        return report;
    }

    std::vector<std::future<RunResult>> futures =
        engine_.submit(expansion.jobs);

    std::vector<RunResult> results(expansion.jobs.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        results[i] = futures[i].get();
        if (progress) {
            CampaignProgress p;
            p.completed = i + 1;
            p.total = expansion.jobs.size();
            p.job_index = i;
            p.job = &expansion.jobs[i];
            p.result = &results[i];
            progress(p);
        }
    }

    return assembleCampaignReport(spec, expansion, std::move(results));
}

} // namespace prosperity
