/**
 * @file
 * perfbench: the repository's end-to-end benchmark binary.
 *
 *   perfbench --workload fig9|fig8-baselines|serve-sweep --seed N
 *             --seconds S --trace 0|1 [--quick] [--out-dir DIR]
 *             [--revision REV]
 *
 * --trace 0 repeats set-up + timed phase about S seconds' worth (at
 * least three times; see BenchWorkload::nominalPhaseSeconds) and
 * reports the end-to-end metrics as medians.
 * --trace 1 runs the timed phase once untraced and once with the
 * benchmark's spans, then replays every unique job on one thread to
 * split host time across the src/ modules, and writes the spans as
 * Chrome trace-event JSON to DIR/trace-<workload>-seed<N>.json.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Any wrong output makes it report correct=false and exit 1.
 * See perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "bitmatrix/simd_dispatch.h"
#include "util/build_config.h"
#include "util/json.h"

namespace {

using namespace perfbench;
namespace json = prosperity::json;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string out_dir = ".bench_build/perfbench/out";
    std::string revision = "unknown";
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = value() != "0";
        else if (flag == "--quick")
            args.quick = true;
        else if (flag == "--out-dir")
            args.out_dir = value();
        else if (flag == "--revision")
            args.revision = value();
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.workload.empty())
        throw std::invalid_argument("--workload is required");
    return args;
}

/** Ordered name -> (value, unit) list. Every entry is printed; the
 *  result line carries only those BENCHMARK.json lists. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        bool listed = true;
    };
    std::vector<Entry> entries;

    void add(std::string name, double value, std::string unit,
             bool listed = true)
    {
        entries.push_back({std::move(name), value, std::move(unit), listed});
    }

    json::Value toJson() const
    {
        json::Value out = json::Value::object();
        for (const Entry& e : entries) {
            if (!e.listed)
                continue;
            json::Value m = json::Value::object();
            m.set("value", e.value);
            m.set("unit", e.unit);
            out.set(e.name, std::move(m));
        }
        return out;
    }
};

json::Value
provenance(const Args& args)
{
    json::Value p = json::Value::object();
    p.set("workload", args.workload);
    p.set("seed", std::to_string(args.seed));
    p.set("trace", args.trace);
    p.set("quick", args.quick);
    p.set("simd_tier",
          std::string(prosperity::simdTierName(prosperity::activeSimdTier())));
    p.set("compiler", prosperity::util::buildConfig().compiler);
    p.set("nproc",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
    p.set("engine_workers", kEngineWorkers);
    p.set("revision", args.revision);
    return p;
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

/** All phases of one run folded into one for the output checks:
 *  counts summed, reports concatenated. */
PhaseResult
merge(std::vector<PhaseResult>& phases)
{
    PhaseResult all;
    for (PhaseResult& p : phases) {
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.errors.insert(all.errors.end(), p.errors.begin(), p.errors.end());
        for (Report& r : p.reports)
            all.reports.push_back(std::move(r));
    }
    return all;
}

constexpr std::size_t kMinPhases = 3;
constexpr std::size_t kSetupSamples = 15;

/** --trace 0: end-to-end metrics, tracing off. */
void
runUntraced(const Args& args, BenchWorkload& workload, Metrics& metrics,
            PhaseResult& checked)
{
    std::vector<double> setup_s, wall_s, read_p50, read_p90, write_p50;
    std::vector<PhaseResult> phases;
    double peak_rss_mb = 0.0;
    const std::size_t n_phases =
        args.quick ? 1
                   : std::max(kMinPhases,
                              static_cast<std::size_t>(std::lround(
                                  args.seconds /
                                  workload.nominalPhaseSeconds())));
    while (phases.size() < n_phases) {
        const std::uint64_t t0 = nowNs();
        workload.setup();
        setup_s.push_back(secondsBetween(t0, nowNs()));
        phases.push_back(workload.timed(nullptr));
        // A fresh process running the workload once: later phases
        // would add allocator fragmentation, not the workload's need.
        if (phases.size() == 1)
            peak_rss_mb = peakRssMb();
        workload.teardown();

        const PhaseResult& p = phases.back();
        wall_s.push_back(p.wall_s);
        std::cout << "phase " << phases.size() << ": wall "
                  << json::formatDouble(p.wall_s) << " s";
        if (!p.read_ms.empty()) {
            read_p50.push_back(quantile(p.read_ms, 0.5));
            read_p90.push_back(quantile(p.read_ms, 0.9));
            write_p50.push_back(quantile(p.write_ms, 0.5));
            std::cout << ", read p50/p90 "
                      << json::formatDouble(read_p50.back()) << "/"
                      << json::formatDouble(read_p90.back()) << " ms of "
                      << p.read_ms.size() << ", write p50 "
                      << json::formatDouble(write_p50.back()) << " ms of "
                      << p.write_ms.size();
        }
        std::cout << std::endl;
    }
    // Set-up is a few milliseconds: sample it more often than the
    // phases run and report the median.
    while (setup_s.size() < kSetupSamples) {
        const std::uint64_t t0 = nowNs();
        workload.setup();
        setup_s.push_back(secondsBetween(t0, nowNs()));
        workload.teardown();
    }

    checked = merge(phases);
    workload.checkOutputs(checked);

    // Each timing is the median over phases of the phase's own figure,
    // so one phase disturbed by the host cannot set it.
    metrics.add("wall_s", median(wall_s), "s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.add("paper_log_err", workload.paperLogErr(checked), "ln");
    // Session latencies (serve-sweep only) are printed, not listed:
    // BENCHMARK.json may list only metrics every workload has.
    if (!read_p50.empty()) {
        metrics.add("read_p50_ms", median(read_p50), "ms", false);
        metrics.add("read_p90_ms", median(read_p90), "ms", false);
        metrics.add("write_p50_ms", median(write_p50), "ms", false);
    }

    std::cout << "phases " << phases.size() << ", setup samples "
              << setup_s.size() << "\n";
}

std::string
traceId(const Args& args)
{
    const std::size_t h = std::hash<std::string>{}(
        args.workload + "/" + std::to_string(args.seed) + "/" +
        std::to_string(nowNs()));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016zx", h);
    return buf;
}

/** --trace 1: per-layer metrics from the benchmark's own spans. */
void
runTraced(const Args& args, BenchWorkload& workload, Metrics& metrics,
          PhaseResult& checked, const json::Value& prov)
{
    workload.setup();
    const PhaseResult untraced = workload.timed(nullptr);
    workload.teardown();

    SpanRecorder spans(traceId(args));
    std::size_t timed_root = 0;
    ReplayOutcome replay;
    {
        ScopedSpan top(&spans, "bench", "workload " + args.workload);
        {
            ScopedSpan setup(&spans, "bench", "setup");
            workload.setup();
        }
        timed_root = spans.spans().size();
        checked = workload.timed(&spans);
        {
            ScopedSpan teardown(&spans, "bench", "teardown");
            workload.teardown();
        }
        replay = replayReports(checked.reports, spans,
                               workload.referenceLabel(),
                               workload.referenceWorkload());
    }
    // The checks see both phases' reports and every failure.
    checked.attempted += untraced.attempted + replay.reports;
    checked.failed += untraced.failed + replay.mismatches;
    checked.errors.insert(checked.errors.end(), untraced.errors.begin(),
                          untraced.errors.end());
    checked.errors.insert(checked.errors.end(), replay.errors.begin(),
                          replay.errors.end());
    checked.reports.insert(checked.reports.end(), untraced.reports.begin(),
                           untraced.reports.end());
    workload.checkOutputs(checked);

    const double replay_s = spans.seconds(replay.root_span);
    const auto table = spans.layerTable(replay.root_span);
    const auto self = [&](const char* layer) {
        const auto it = table.find(layer);
        return it == table.end() ? 0.0 : it->second.self_s;
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto mean = [](const std::vector<double>& v) {
        return v.empty() ? 0.0
                         : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
    };
    const std::vector<double> assemble_ms =
        spans.durationsMs(replay.root_span, "assembleCampaignReport");
    const std::vector<double> dump_ms =
        spans.durationsMs(replay.root_span, "CampaignReport::toJson+dump");
    const double dump_total_s =
        std::accumulate(dump_ms.begin(), dump_ms.end(), 0.0) * 1e-3;
    const auto route_p50 = [&](const char* route) {
        return median(spans.durationsMs(timed_root, route));
    };
    const double writes = static_cast<double>(checked.write_ms.size());

    metrics.add("core.self_s", self("core"), "s");
    metrics.add("core.share", ratio(self("core"), replay_s), "ratio");
    metrics.add("core.us_per_tile",
                ratio(self("core") * 1e6, replay.prosperity_tiles), "us");
    metrics.add("gen.self_s", self("gen"), "s");
    metrics.add("gen.share", ratio(self("gen"), replay_s), "ratio");
    metrics.add("gen.mbit_per_s",
                ratio(replay.generated_bits * 1e-6, self("gen")), "Mbit/s");
    metrics.add("baselines.self_s", self("baselines"), "s");
    metrics.add("baselines.share", ratio(self("baselines"), replay_s),
                "ratio");
    metrics.add("analysis.busy_ratio",
                ratio(replay.job_s,
                      untraced.wall_s * static_cast<double>(kEngineWorkers)),
                "ratio");
    metrics.add("analysis.simulated",
                static_cast<double>(checked.engine.misses), "count");
    metrics.add("analysis.memo_hits",
                static_cast<double>(checked.engine.hits), "count");
    metrics.add("analysis.report_s", mean(assemble_ms) * 1e-3, "s");
    metrics.add("util.json_dump_s", mean(dump_ms) * 1e-3, "s");
    metrics.add("util.json_mb_per_s",
                ratio(replay.report_bytes * 1e-6, dump_total_s), "MB/s");
    metrics.add("serve.submit_ms.p50", route_p50("POST /v1/campaigns"), "ms");
    metrics.add("serve.poll_ms.p50", route_p50("GET /v1/jobs"), "ms");
    metrics.add("serve.report_ms.p50", route_p50("GET /v1/reports"), "ms");
    // Campaign workloads have no sessions, so both read 0 there.
    metrics.add("serve.polls_per_write",
                ratio(static_cast<double>(checked.polls), writes), "count");
    metrics.add("serve.cold_frac",
                checked.sessions > 0
                    ? ratio(writes, static_cast<double>(checked.sessions))
                    : 0.0,
                "ratio");
    metrics.add("serve.rss_growth_mb", checked.rss_growth_mb, "MB");
    metrics.add("arch.create_s", self("arch"), "s");
    metrics.add("snn.build_s", self("snn"), "s");
    metrics.add("core.bit_density",
                ratio(replay.ref_bit_ops, replay.ref_dense_ops), "ratio");
    metrics.add("core.product_density",
                ratio(replay.ref_product_ops, replay.ref_dense_ops), "ratio");
    metrics.add("core.prefix_hit_frac",
                ratio(replay.prefix_hits, replay.rows_processed), "ratio");
    metrics.add("core.exposed_frac",
                ratio(replay.traversal_exposed, replay.traversal_cycles),
                "ratio");
    metrics.add("core.dram_bound_layers",
                static_cast<double>(replay.dram_bound_layers), "count");
    metrics.add("bench.trace_overhead_frac",
                ratio(checked.wall_s, untraced.wall_s) - 1.0, "ratio");

    // Per-layer table of the replay; self times sum to its wall time.
    json::Value layers = json::Value::array();
    double self_sum = 0.0;
    for (const auto& [layer, t] : table) {
        json::Value row = json::Value::object();
        row.set("layer", layer);
        row.set("calls", t.calls);
        row.set("total_s", t.total_s);
        row.set("self_s", t.self_s);
        row.set("share", ratio(t.self_s, replay_s));
        layers.push(std::move(row));
        self_sum += t.self_s;
    }
    json::Value extra = json::Value::object();
    extra.set("trace_id", spans.traceId());
    extra.set("provenance", prov);
    extra.set("replay_wall_s", replay_s);
    extra.set("replay_self_sum_s", self_sum);
    extra.set("replay_jobs", replay.jobs);
    extra.set("layers", std::move(layers));
    extra.set("metrics", metrics.toJson());

    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream os(path, std::ios::binary);
    os << spans.chromeTraceJson(extra.dump(-1));
    if (!os.flush())
        throw std::runtime_error("cannot write " + path);

    std::cout << "replay: " << replay.jobs << " jobs, "
              << replay.reports << " reports, "
              << json::formatDouble(replay_s) << " s\n";
    std::cout << "layer        calls      self_s   share\n";
    for (const auto& [layer, t] : table)
        std::cout << layer << std::string(12 - std::min<std::size_t>(
                                                   11, layer.size()),
                                          ' ')
                  << t.calls << "  " << json::formatDouble(t.self_s)
                  << "  " << json::formatDouble(ratio(t.self_s, replay_s))
                  << "\n";
    std::cout << "trace: " << path << "\n";
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const json::Value prov = provenance(args);
        std::cout << "provenance " << prov.dump(-1) << std::endl;

        std::unique_ptr<BenchWorkload> workload =
            makeBenchWorkload(args.workload, args.seed, args.quick);

        Metrics metrics;
        PhaseResult checked;
        if (args.trace)
            runTraced(args, *workload, metrics, checked, prov);
        else
            runUntraced(args, *workload, metrics, checked);

        for (const std::string& error : checked.errors)
            std::cerr << "perfbench: FAILED: " << error << "\n";
        const double failed_frac =
            checked.attempted > 0
                ? static_cast<double>(checked.failed) /
                      static_cast<double>(checked.attempted)
                : 1.0;
        // Printed, not listed: a correct run reads 0.
        metrics.add("failed_frac", failed_frac, "ratio", false);
        for (const Metrics::Entry& e : metrics.entries)
            std::cout << "metric " << e.name << " = "
                      << json::formatDouble(e.value) << " " << e.unit << "\n";

        const bool correct = checked.failed == 0 && checked.attempted > 0;
        json::Value result = json::Value::object();
        result.set("correct", correct);
        result.set("attempted", checked.attempted);
        result.set("failed", checked.failed);
        result.set("metrics", metrics.toJson());
        std::cout << result.dump(-1) << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
