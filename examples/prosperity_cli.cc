/**
 * @file
 * prosperity_cli — command-line driver for the simulator, the analogue
 * of the original artifact's run scripts.
 *
 *   prosperity_cli list [models|datasets|accelerators|simd]
 *       Show the registered models, datasets and accelerators (all
 *       three axes are open, string-keyed registries) plus the active
 *       and available SIMD kernel tiers.
 *   prosperity_cli run <model> <dataset> [accelerator] [--csv]
 *       End-to-end simulation; default accelerator "all" compares the
 *       full lineup. --csv prints machine-readable rows.
 *   prosperity_cli density <model> <dataset> [--two-prefix]
 *       Sparsity analysis of the workload.
 *   prosperity_cli model show <name|file:path.json> [--dataset <name>]
 *       Lower a model (registered, or a declarative JSON definition)
 *       and print its layer table and op totals.
 *   prosperity_cli model validate <file.json>
 *       Parse + lower a declarative model definition; exit non-zero
 *       with the offending key path on errors.
 *   prosperity_cli campaign <spec.json> [--out report.json]
 *                  [--csv-out report.csv] [--quiet] [--threads N]
 *                  [--seeds N] [--store DIR] [--trace out.json]
 *       Execute a declarative campaign spec (campaigns/<name>.json or
 *       any path; a bare name resolves against the checked-in
 *       campaigns directory). Streams per-job progress, prints the
 *       derived speedup / energy-efficiency tables, and optionally
 *       writes the structured JSON / CSV report. Workloads may
 *       reference JSON models by "file:models/<name>.json".
 *       Specs with a "sampling" block run adaptively: every cell
 *       draws seeds until its metrics' confidence intervals are
 *       within the plan's eps (docs/CAMPAIGNS.md). --seeds N widens
 *       any spec to exactly N seeds per cell without editing JSON.
 *       --threads sizes the engine's worker pool (default: hardware
 *       concurrency); --store persists results to a ResultStore
 *       directory shared with the daemon; --quiet replaces the
 *       tables with one summary line of engine cache statistics;
 *       --trace records the campaign's span timeline (per-layer,
 *       per-stage) and writes it as Chrome trace-event JSON — open
 *       the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *   prosperity_cli campaign --progress <id|spec> [--port P]
 *       Live progress ticker for a campaign submitted to a running
 *       daemon: polls GET /v1/campaigns/<id>/progress (cells done,
 *       jobs done, seeds drawn, elapsed, ETA) until the campaign
 *       finishes. Accepts a raw "campaign-<hex>" id, or a spec whose
 *       deterministic id is recomputed locally.
 *   prosperity_cli serve [--port P] [--store DIR] [--threads N]
 *                  [--max-pending N] [--trace] [--trace-slow-ms N]
 *       Run the simulation-as-a-service HTTP daemon (see
 *       docs/SERVING.md): POST /v1/runs and /v1/campaigns, poll
 *       GET /v1/jobs/<id>, fetch GET /v1/reports/<id>, watch
 *       GET /v1/campaigns/<id>/progress, scrape GET /metrics
 *       (Prometheus text exposition; docs/OBSERVABILITY.md). With
 *       --store, finished results persist to disk and a restarted
 *       daemon serves previously computed traffic without re-running
 *       any simulation. --trace turns on the span flight recorder
 *       (every request gets a trace id, fetchable as Perfetto JSON
 *       via GET /v1/traces/<id>); --trace-slow-ms N additionally
 *       dumps the timeline of any request slower than N ms to
 *       stderr.
 *
 * Accelerators, models and datasets are all constructed by name
 * through their registries and simulated through the SimulationEngine,
 * so campaigns run across the machine's cores.
 *
 * Examples:
 *   prosperity_cli run VGG16 CIFAR100
 *   prosperity_cli run SpikeBERT SST-2 Prosperity --csv
 *   prosperity_cli density Spikformer CIFAR10 --two-prefix
 *   prosperity_cli model show file:models/example_custom.json
 *   prosperity_cli model validate models/vgg16.json
 *   prosperity_cli campaign campaigns/fig8.json --out fig8.report.json
 *   prosperity_cli campaign smoke --threads 4
 *   prosperity_cli serve --port 8080 --store runs.store
 *   prosperity_cli campaign smoke --simd scalar
 *
 * The global `--simd <scalar|avx2|avx512>` flag (any command)
 * forces the SIMD kernel tier, equivalent to setting PROSPERITY_SIMD;
 * tier choice never changes results, only speed (simd_dispatch.h).
 */

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "bitmatrix/simd_dispatch.h"
#include "analysis/density.h"
#include "analysis/export.h"
#include "obs/trace.h"
#include "serve/http.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "snn/model_desc.h"
#include "snn/model_registry.h"
#include "util/build_config.h"

using namespace prosperity;

namespace {

/** Comparison lineup of `run ... all`, Fig. 8 column order. */
const char* kLineup[] = {"eyeriss", "ptb",  "sato",       "mint",
                         "stellar", "a100", "prosperity"};

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  prosperity_cli list"
           " [models|datasets|accelerators|simd|analysis]\n"
        << "  prosperity_cli run <model> <dataset> [accelerator|all]"
           " [--csv]\n"
        << "  prosperity_cli density <model> <dataset> [--two-prefix]\n"
        << "  prosperity_cli model show <name|file:path.json>"
           " [--dataset <name>]\n"
        << "  prosperity_cli model validate <file.json>\n"
        << "  prosperity_cli campaign <spec.json> [--out report.json]"
           " [--csv-out report.csv] [--quiet] [--threads N]"
           " [--seeds N] [--store DIR] [--trace out.json]\n"
        << "  prosperity_cli campaign --progress <id|spec>"
           " [--port P]\n"
        << "  prosperity_cli serve [--port P] [--store DIR]"
           " [--threads N] [--max-pending N] [--trace]"
           " [--trace-slow-ms N]\n"
        << "global flags: --simd scalar|avx2|avx512 (force the"
           " kernel tier; see `list simd`)\n";
    return 2;
}

/**
 * Parse a decimal flag value: digits only, across the whole string
 * (the full-input check parseSeeds makes), so "-1" and "2x" are
 * errors rather than 2^64-1 and 2. False on anything else, overflow
 * included.
 */
bool
parseDigits(const std::string& value, std::size_t* out)
{
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** Parse `--port P` (0-65535; 0 picks a free port). */
bool
parsePort(const std::string& value, std::uint16_t* port)
{
    std::size_t parsed = 0;
    if (!parseDigits(value, &parsed) || parsed > 65535) {
        std::cerr << "--port must be 0-65535, got \"" << value << "\"\n";
        return false;
    }
    *port = static_cast<std::uint16_t>(parsed);
    return true;
}

/**
 * Parse a positive `--threads N` value. 0 is rejected with an
 * actionable error (EngineOptions treats 0 as "hardware concurrency",
 * but a user typing 0 almost certainly wanted to disable threading,
 * which a thread pool cannot do — tell them what to pass instead).
 */
bool
parseThreads(const std::string& value, std::size_t* threads)
{
    std::size_t parsed = 0;
    if (!parseDigits(value, &parsed)) {
        std::cerr << "--threads needs a positive integer, got \""
                  << value << "\"\n";
        return false;
    }
    if (parsed == 0) {
        std::cerr << "--threads 0 is not a usable pool size; pass a "
                     "positive thread count (omit the flag for the "
                     "default: hardware concurrency, "
                  << std::thread::hardware_concurrency()
                  << " on this machine)\n";
        return false;
    }
    *threads = parsed;
    return true;
}

/**
 * Parse a `--seeds N` per-cell seed count (the CLI override that
 * widens a spec without editing JSON). Mirrors parseThreads' style:
 * non-numbers, zero and negatives are rejected with what to pass
 * instead. N must be >= 2 — one seed per cell is exactly the
 * fixed-seed default, so the flag would be a no-op spelled confusingly.
 */
bool
parseSeeds(const std::string& value, std::size_t* seeds)
{
    long long parsed = 0;
    try {
        std::size_t consumed = 0;
        parsed = std::stoll(value, &consumed);
        if (consumed != value.size())
            throw std::invalid_argument(value);
    } catch (const std::exception&) {
        std::cerr << "--seeds needs a positive integer, got \"" << value
                  << "\"\n";
        return false;
    }
    if (parsed <= 0) {
        std::cerr << "--seeds " << parsed
                  << " is not a usable seed count; pass the number of "
                     "seeds every cell should draw (2 or more; omit "
                     "the flag to keep the spec's own sampling)\n";
        return false;
    }
    if (parsed == 1) {
        std::cerr << "--seeds 1 is the fixed-seed default — omit the "
                     "flag, or pass 2 or more to widen every cell\n";
        return false;
    }
    *seeds = static_cast<std::size_t>(parsed);
    return true;
}

int
cmdList(const std::string& section)
{
    const bool all = section.empty();
    if (!all && section != "models" && section != "datasets" &&
        section != "accelerators" && section != "simd" &&
        section != "analysis") {
        std::cerr << "unknown list section: " << section << '\n';
        return usage();
    }
    const DatasetRegistry& datasets = DatasetRegistry::instance();
    const AcceleratorRegistry& accels = AcceleratorRegistry::instance();
    if (all || section == "models") {
        // The only section that loads the model zoo (and can fail to).
        const ModelRegistry& models = ModelRegistry::instance();
        std::cout << "models:";
        for (const std::string& name : models.names())
            std::cout << ' ' << name;
        std::cout << '\n';
        for (const std::string& name : models.names())
            std::cout << "  " << name << ": "
                      << models.description(name) << '\n';
    }
    if (all || section == "datasets") {
        std::cout << "datasets:";
        for (const std::string& name : datasets.names())
            std::cout << ' ' << name;
        std::cout << '\n';
        for (const std::string& name : datasets.names())
            std::cout << "  " << name << ": "
                      << datasets.description(name) << '\n';
    }
    if (all || section == "accelerators") {
        std::cout << "accelerators:";
        for (const std::string& name : accels.names())
            std::cout << ' ' << name;
        std::cout << '\n';
        for (const std::string& name : accels.names())
            std::cout << "  " << name << ": "
                      << accels.description(name) << '\n';
    }
    if (all || section == "simd") {
        std::cout << "simd: active "
                  << simdTierName(activeSimdTier()) << ", available";
        for (const SimdTier tier : availableSimdTiers())
            std::cout << ' ' << simdTierName(tier);
        std::cout << " (force with PROSPERITY_SIMD or --simd)\n";
    }
    if (all || section == "analysis") {
        // Mirrors `list simd`: what this binary was compiled with, so
        // "which build is this daemon?" is answerable from the binary.
        std::cout << "analysis: " << util::buildConfigSummary() << '\n';
    }
    return 0;
}

/** Resolve `model show`'s target: a registered name, or a declarative
 *  definition via "file:<path>" (parsed without registering). */
ModelSpec
lowerModelArg(const std::string& arg, const std::string& dataset,
              std::string* description)
{
    if (arg.rfind("file:", 0) == 0) {
        const ModelDesc desc =
            ModelDesc::load(resolveModelPath(arg.substr(5)));
        *description = desc.description;
        const InputConfig input = dataset.empty()
                                      ? desc.defaultInput()
                                      : defaultInputConfig(dataset);
        return desc.lower(input);
    }
    *description = ModelRegistry::instance().description(arg);
    const InputConfig input =
        dataset.empty() ? InputConfig{} : defaultInputConfig(dataset);
    return ModelRegistry::instance().build(arg, input);
}

int
cmdModelShow(const std::string& arg, const std::string& dataset)
{
    std::string description;
    const ModelSpec model = lowerModelArg(arg, dataset, &description);

    std::cout << model.name;
    if (!description.empty())
        std::cout << " — " << description;
    std::cout << '\n';

    Table table("Lowered layers (T=" +
                std::to_string(model.time_steps) + ")");
    table.setHeader({"layer", "type", "m", "k", "n", "dense MACs",
                     "spiking GeMM"});
    for (const LayerSpec& layer : model.layers)
        table.addRow({layer.name, layerTypeName(layer.type),
                      std::to_string(layer.gemm.m),
                      std::to_string(layer.gemm.k),
                      std::to_string(layer.gemm.n),
                      Table::num(layer.denseOps(), 0),
                      layer.isSpikingGemm() ? "yes" : "no"});
    table.print(std::cout);

    std::cout << model.layers.size() << " layers, "
              << model.numSpikingGemms() << " spiking GeMMs, "
              << Table::num(model.totalDenseOps() / 1e6, 1)
              << " M dense MACs ("
              << Table::num(model.spikingGemmOps() / 1e6, 1)
              << " M spiking)\n";
    return 0;
}

int
cmdModelValidate(const std::string& path)
{
    const ModelDesc desc = ModelDesc::load(resolveModelPath(path));
    const ModelSpec model = desc.lower(desc.defaultInput());
    std::cout << "OK: " << desc.name << " — " << model.layers.size()
              << " layers, " << model.numSpikingGemms()
              << " spiking GeMMs, "
              << Table::num(model.totalDenseOps() / 1e6, 1)
              << " M dense MACs (lowered for the definition's default "
                 "input)\n";
    return 0;
}

int
cmdModel(int argc, char** argv)
{
    if (argc < 4)
        return usage();
    const std::string action = argv[2];
    const std::string target = argv[3];
    std::string dataset;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dataset" && i + 1 < argc) {
            dataset = argv[++i];
        } else {
            std::cerr << "unexpected argument: " << arg << '\n';
            return usage();
        }
    }
    try {
        if (action == "show")
            return cmdModelShow(target, dataset);
        if (action == "validate")
            return cmdModelValidate(target);
    } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        return 1;
    }
    std::cerr << "unknown model action: " << action << '\n';
    return usage();
}

int
cmdRun(const Workload& workload, const std::string& accel_name, bool csv)
{
    std::vector<AcceleratorSpec> specs;
    if (accel_name == "all") {
        for (const char* name : kLineup)
            specs.emplace_back(name);
    } else if (AcceleratorRegistry::instance().contains(accel_name)) {
        specs.emplace_back(accel_name);
    } else {
        std::cerr << "unknown accelerator: " << accel_name << '\n';
        return usage();
    }

    SimulationEngine engine;
    const auto results = engine.runGrid(specs, {workload}).front();
    if (csv) {
        exportRunResults(std::cout, results);
        return 0;
    }

    Table table("End-to-end simulation: " + workload.name());
    table.setHeader({"accelerator", "latency (ms)", "GOP/s", "GOP/J",
                     "energy (mJ)", "avg power (W)"});
    for (const RunResult& r : results)
        table.addRow({r.accelerator, Table::num(r.seconds() * 1e3, 3),
                      Table::num(r.gops()), Table::num(r.gopj()),
                      Table::num(r.energy.totalPj() * 1e-9, 3),
                      Table::num(r.averagePowerW(), 2)});
    table.print(std::cout);
    return 0;
}

int
cmdDensity(const Workload& workload, bool two_prefix)
{
    DensityOptions options;
    options.two_prefix = two_prefix;
    options.max_sampled_tiles = 64;
    const DensityReport report = analyzeWorkload(workload, options, 7);

    Table table("Sparsity analysis: " + workload.name());
    table.setHeader({"metric", "value"});
    table.addRow({"bit density", Table::pct(report.bitDensity())});
    table.addRow({"product density",
                  Table::pct(report.productDensity())});
    if (two_prefix)
        table.addRow({"product density (2-prefix)",
                      Table::pct(report.productDensityTwoPrefix())});
    table.addRow({"reduction vs bit sparsity",
                  Table::ratio(report.reductionVsBit(), 1)});
    table.addRow({"rows with a prefix",
                  Table::pct(report.onePrefixRatio(), 1)});
    table.addRow({"exact matches",
                  Table::num(report.exact_matches, 0)});
    table.addRow({"partial matches",
                  Table::num(report.partial_matches, 0)});
    table.print(std::cout);
    return 0;
}

/**
 * `campaign --progress`: live ticker against a running daemon's
 * GET /v1/campaigns/<id>/progress. `target` is either a raw
 * "campaign-<hex>" id or a spec (path or checked-in name) whose
 * deterministic id is recomputed locally — the same bytes hash to the
 * same id on both sides.
 */
int
cmdCampaignProgress(const std::string& target, std::uint16_t port)
{
    std::string id = target;
    if (target.rfind("campaign-", 0) != 0) {
        try {
            const bool bare =
                target.find('/') == std::string::npos &&
                target.find(".json") == std::string::npos;
            const CampaignSpec spec = bare ? loadNamedCampaign(target)
                                           : CampaignSpec::load(target);
            id = serve::SimulationService::campaignId(spec);
        } catch (const std::exception& e) {
            std::cerr << e.what() << '\n';
            return 2;
        }
    }

    serve::HttpClient client(port);
    std::string last_line;
    for (;;) {
        serve::HttpResponse response;
        try {
            response =
                client.get("/v1/campaigns/" + id + "/progress");
        } catch (const std::exception& e) {
            std::cerr << "cannot reach the daemon on 127.0.0.1:"
                      << port << ": " << e.what() << '\n';
            return 1;
        }
        if (response.status != 200) {
            std::cerr << "progress poll failed (" << response.status
                      << "): " << response.body;
            return 1;
        }
        const json::Value doc = json::Value::parse(response.body);
        const std::string status = doc.at("status").asString();

        std::ostringstream line;
        line << id << ": " << status << ", cells "
             << doc.at("cells_done").asNumber() << '/'
             << doc.at("cells_total").asNumber() << ", jobs "
             << doc.at("jobs_done").asNumber() << '/'
             << doc.at("jobs_total").asNumber();
        if (const json::Value* seeds = doc.find("seeds_drawn"))
            line << ", seeds " << seeds->asNumber();
        line << " (elapsed "
             << Table::num(doc.at("elapsed_seconds").asNumber(), 1)
             << " s";
        if (const json::Value* eta = doc.find("eta_seconds"))
            line << ", eta " << Table::num(eta->asNumber(), 1) << " s";
        if (const json::Value* queue = doc.find("queue_depth"))
            line << ", queue " << queue->asNumber();
        line << ')';
        // Re-print only on change so an idle poll loop stays quiet.
        if (line.str() != last_line) {
            std::cout << line.str() << std::endl;
            last_line = line.str();
        }

        if (status == "done")
            return 0;
        if (status == "failed") {
            if (const json::Value* error = doc.find("error"))
                std::cerr << "campaign failed: " << error->asString()
                          << '\n';
            return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
}

int
cmdCampaign(int argc, char** argv)
{
    std::string spec_path, out_json, out_csv, store_dir, trace_out;
    bool quiet = false;
    bool progress_mode = false;
    std::uint16_t port = 8080;
    std::size_t threads = 0; // 0 = hardware concurrency
    std::size_t seeds = 0;   // 0 = keep the spec's own sampling
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--progress") {
            progress_mode = true;
        } else if (arg == "--port") {
            if (i + 1 >= argc) {
                std::cerr << "--port needs a port number\n";
                return usage();
            }
            if (!parsePort(argv[++i], &port))
                return 2;
        } else if (arg == "--threads") {
            if (i + 1 >= argc) {
                std::cerr << "--threads needs a thread count\n";
                return usage();
            }
            if (!parseThreads(argv[++i], &threads))
                return 2;
        } else if (arg == "--seeds") {
            if (i + 1 >= argc) {
                std::cerr << "--seeds needs a per-cell seed count\n";
                return usage();
            }
            if (!parseSeeds(argv[++i], &seeds))
                return 2;
        } else if (arg == "--store") {
            if (i + 1 >= argc) {
                std::cerr << "--store needs a directory argument\n";
                return usage();
            }
            store_dir = argv[++i];
        } else if (arg == "--out" || arg == "--csv-out" ||
                   arg == "--trace") {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a file argument\n";
                return usage();
            }
            (arg == "--out"       ? out_json
             : arg == "--csv-out" ? out_csv
                                  : trace_out) = argv[++i];
        } else if (spec_path.empty()) {
            spec_path = arg;
        } else {
            std::cerr << "unexpected argument: " << arg << '\n';
            return usage();
        }
    }
    if (spec_path.empty()) {
        std::cerr << "campaign needs a spec file (or checked-in "
                     "campaign name)\n";
        return usage();
    }

    if (progress_mode)
        return cmdCampaignProgress(spec_path, port);

    CampaignSpec spec;
    try {
        // A bare name ("smoke") resolves against the checked-in
        // campaigns directory; anything with a path or extension is
        // loaded as given.
        const bool bare =
            spec_path.find('/') == std::string::npos &&
            spec_path.find(".json") == std::string::npos;
        spec = bare ? loadNamedCampaign(spec_path)
                    : CampaignSpec::load(spec_path);
    } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        return 2;
    }

    // --seeds N: widen any spec to exactly N seeds per cell (adaptive
    // machinery with the stopping rule pinned to the cap).
    if (seeds != 0) {
        stats::SamplingPlan plan =
            spec.sampling ? *spec.sampling : stats::SamplingPlan{};
        plan.min_seeds = seeds;
        plan.max_seeds = seeds;
        spec.sampling = plan;
    }

    if (!quiet && !spec.description.empty())
        std::cout << spec.name << ": " << spec.description << '\n';

    SimulationEngine engine(EngineOptions{threads});
    std::shared_ptr<serve::ResultStore> store;
    if (!store_dir.empty()) {
        try {
            store = std::make_shared<serve::ResultStore>(store_dir);
        } catch (const std::exception& e) {
            std::cerr << e.what() << '\n';
            return 2;
        }
        engine.setResultCache(store);
    }
    CampaignRunner runner(engine);
    CampaignRunner::ProgressCallback progress;
    if (!quiet && spec.sampling) {
        progress = [](const CampaignProgress& p) {
            std::cout << "  [seed " << p.completed << "] cell "
                      << (p.job_index + 1) << " n=" << p.seeds_drawn
                      << ": " << p.result->accelerator << " on "
                      << p.result->workload << ": "
                      << Table::num(p.result->seconds() * 1e3, 3)
                      << " ms\n";
        };
    } else if (!quiet) {
        progress = [](const CampaignProgress& p) {
            std::cout << "  [" << p.completed << '/' << p.total << "] "
                      << p.result->accelerator << " on "
                      << p.result->workload << ": "
                      << Table::num(p.result->seconds() * 1e3, 3)
                      << " ms\n";
        };
    }

    // --trace: turn the span flight recorder on and give the whole
    // campaign one trace id, so every layer/stage/store span the run
    // emits lands in a single collectible timeline. With the flag
    // absent trace_id stays 0 and every span site below is inert.
    std::uint64_t trace_id = 0;
    if (!trace_out.empty()) {
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        recorder.setEnabled(true);
        trace_id = recorder.mintTraceId();
    }

    CampaignReport report;
    try {
        obs::ScopedTraceContext trace_scope(
            obs::TraceContext{trace_id, 0});
        obs::ScopedSpan root("campaign", spec.name);
        report = runner.run(spec, progress);
    } catch (const std::exception& e) {
        std::cerr << "campaign failed: " << e.what() << '\n';
        return 1;
    }

    if (quiet) {
        // One machine-parsable summary line: how much work the
        // campaign actually cost the engine.
        const EngineStats stats = engine.stats();
        std::cout << spec.name << ": "
                  << report.spec.expandJobs().size() << " jobs, "
                  << stats.misses << " simulated, " << stats.hits
                  << " cache hits, " << stats.in_flight_dedups
                  << " in-flight dedups, " << stats.entries
                  << " cache entries";
        if (spec.sampling) {
            std::size_t total_seeds = 0, converged = 0, cells = 0;
            for (const CampaignCell& c : report.cells) {
                if (!c.sampling)
                    continue;
                ++cells;
                total_seeds += c.sampling->n_seeds;
                converged += c.sampling->converged ? 1 : 0;
            }
            std::cout << ", " << total_seeds << " seeds, " << converged
                      << '/' << cells << " cells converged";
        }
        if (store)
            std::cout << ", store defects: " << stats.store_corrupt
                      << " corrupt / " << stats.store_truncated
                      << " truncated / " << stats.store_version_mismatch
                      << " version-mismatch";
        std::cout << '\n';
    } else {
        toTable(report.speedupTable(),
                "Speedup vs " + spec.baselineLabel() + " — " +
                    spec.name)
            .print(std::cout);
        std::cout << '\n';
        toTable(report.energyEfficiencyTable(),
                "Energy efficiency vs " + spec.baselineLabel() + " — " +
                    spec.name)
            .print(std::cout);
        if (spec.sampling) {
            std::cout << '\n';
            Table sampling("Adaptive sampling — " + spec.name +
                           " (eps " +
                           Table::num(spec.sampling->eps, 3) +
                           (spec.sampling->relative ? " relative"
                                                    : " absolute") +
                           ", alpha " +
                           Table::num(spec.sampling->alpha, 3) + ")");
            std::vector<std::string> header = {"cell", "seeds",
                                               "converged"};
            for (const std::string& metric : spec.sampling->metrics)
                header.push_back(metric + " mean ± CI");
            sampling.setHeader(std::move(header));
            for (const CampaignCell& c : report.cells) {
                if (!c.sampling)
                    continue;
                std::vector<std::string> row = {
                    spec.accelerators[c.accelerator_index].label +
                        " on " + c.result.workload,
                    std::to_string(c.sampling->n_seeds),
                    c.sampling->converged ? "yes" : "AT CAP"};
                for (const stats::MetricStats& m : c.sampling->metrics)
                    row.push_back(Table::num(m.mean) + " ± " +
                                  Table::num(m.half_width));
                sampling.addRow(std::move(row));
            }
            sampling.print(std::cout);
        }
    }

    if (!out_json.empty()) {
        if (!report.writeJsonFile(out_json)) {
            std::cerr << "cannot write " << out_json << '\n';
            return 1;
        }
        std::cout << "report written to " << out_json << '\n';
    }
    if (!out_csv.empty()) {
        if (!report.writeCsvFile(out_csv)) {
            std::cerr << "cannot write " << out_csv << '\n';
            return 1;
        }
        std::cout << "CSV written to " << out_csv << '\n';
    }
    if (!trace_out.empty()) {
        const std::vector<obs::TraceSpan> spans =
            obs::TraceRecorder::global().collect(trace_id);
        std::ofstream os(trace_out);
        if (!os) {
            std::cerr << "cannot write " << trace_out << '\n';
            return 1;
        }
        obs::chromeTraceJson(spans).write(os, 2);
        os << '\n';
        std::cout << "trace written to " << trace_out << " ("
                  << spans.size() << " spans, id "
                  << obs::formatTraceId(trace_id)
                  << ") — load it at ui.perfetto.dev or "
                     "chrome://tracing\n";
    }
    return 0;
}

/** SIGINT/SIGTERM flag for the serve loop (async-signal-safe). */
volatile std::sig_atomic_t g_serve_stop = 0;

void
onServeSignal(int)
{
    g_serve_stop = 1;
}

int
cmdServe(int argc, char** argv)
{
    serve::ServiceOptions service_options;
    serve::HttpServerOptions server_options;
    server_options.port = 8080;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        // Boolean flags first: the shared parse below consumes a
        // value for every other flag.
        if (arg == "--trace") {
            service_options.tracing = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << arg << " needs a value\n";
            return usage();
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--port") {
                if (!parsePort(value, &server_options.port))
                    return 2;
            } else if (arg == "--store") {
                service_options.store_dir = value;
            } else if (arg == "--threads") {
                if (!parseThreads(value, &service_options.threads))
                    return 2;
            } else if (arg == "--max-pending") {
                if (!parseDigits(value, &service_options.max_pending) ||
                    service_options.max_pending == 0) {
                    std::cerr << "--max-pending needs a positive "
                                 "integer, got \"" << value << "\"\n";
                    return 2;
                }
            } else if (arg == "--trace-slow-ms") {
                std::size_t consumed = 0;
                service_options.slow_trace_ms = std::stod(value, &consumed);
                if (consumed != value.size() ||
                    !(service_options.slow_trace_ms > 0.0)) {
                    std::cerr << "--trace-slow-ms needs a positive "
                                 "millisecond threshold, got "
                              << value << '\n';
                    return 2;
                }
            } else {
                std::cerr << "unexpected argument: " << arg << '\n';
                return usage();
            }
        } catch (const std::exception&) {
            std::cerr << arg << " needs a number, got \"" << value
                      << "\"\n";
            return 2;
        }
    }

    try {
        serve::SimulationService service(service_options);
        // The HTTP worker pool only parses/serializes; simulation
        // parallelism lives in the engine pool behind it.
        server_options.threads = 4;
        serve::HttpServer server(
            server_options, [&service](const serve::HttpRequest& req) {
                return service.handle(req);
            });
        server.start();

        const bool tracing = service_options.tracing ||
                             service_options.slow_trace_ms > 0.0;
        std::cout << "prosperity daemon on http://127.0.0.1:"
                  << server.port() << "\n  engine threads: "
                  << service.engine().threads() << "\n  result store: "
                  << (service.store() ? service.store()->dir()
                                      : std::string("(memory only)"))
                  << "\n  routes: POST /v1/runs, POST /v1/campaigns, "
                     "GET /v1/jobs/<id>, GET /v1/reports/<id>, "
                     "GET /v1/campaigns/<id>/progress, "
                     "GET /v1/registry, GET /v1/stats, GET /metrics"
                  << (tracing ? ", GET /v1/traces, GET /v1/traces/<id>"
                              : "")
                  << "\n" << std::flush;

        std::signal(SIGINT, onServeSignal);
        std::signal(SIGTERM, onServeSignal);
        while (!g_serve_stop)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));

        server.stop();
        const EngineStats stats = service.engine().stats();
        std::cout << "shutting down: " << stats.misses
                  << " simulations run, " << stats.hits
                  << " cache hits, " << stats.in_flight_dedups
                  << " in-flight dedups\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "serve failed: " << e.what() << '\n';
        return 1;
    }
}

} // namespace

int
main(int argc, char** argv)
{
    // Global --simd TIER: consumed here, before any kernel dispatch,
    // by forwarding to the PROSPERITY_SIMD environment override (same
    // parsing, same fall-back-with-warning semantics).
    std::vector<char*> args(argv, argv + argc);
    for (std::size_t i = 1; i + 1 < args.size(); ++i) {
        if (std::strcmp(args[i], "--simd") == 0) {
            if (!parseSimdTier(args[i + 1])) {
                std::cerr << "--simd: unknown tier \"" << args[i + 1]
                          << "\" (expected one of: scalar, avx2,"
                             " avx512)\n";
                return 2;
            }
            setenv("PROSPERITY_SIMD", args[i + 1], 1);
            resetSimdTier();
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            break;
        }
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "list") {
        try {
            return cmdList(argc > 2 ? argv[2] : "");
        } catch (const std::exception& e) {
            // The registries failed to come up (e.g. a built-in
            // model's file is missing from the model directory).
            std::cerr << e.what() << '\n';
            return 1;
        }
    }
    if (command == "model")
        return cmdModel(argc, argv);
    if (command == "campaign")
        return cmdCampaign(argc, argv);
    if (command == "serve")
        return cmdServe(argc, argv);
    if (argc < 4)
        return usage();

    Workload workload;
    try {
        workload = makeWorkload(argv[2], argv[3]);
    } catch (const std::exception& e) {
        // The registries' errors list the registered names.
        std::cerr << e.what() << '\n';
        return 2;
    }

    bool csv = false, two_prefix = false;
    std::string accel_name = "all";
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0)
            csv = true;
        else if (std::strcmp(argv[i], "--two-prefix") == 0)
            two_prefix = true;
        else
            accel_name = argv[i];
    }

    if (command == "run")
        return cmdRun(workload, accel_name, csv);
    if (command == "density")
        return cmdDensity(workload, two_prefix);
    return usage();
}
