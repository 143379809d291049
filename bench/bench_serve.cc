/**
 * @file
 * bench_serve — HTTP load generator for the simulation service.
 *
 * Stands up the daemon in-process (SimulationService + HttpServer on
 * an ephemeral loopback port, fresh result store) and measures the
 * three regimes real traffic sees:
 *
 * - **cold**: first submission of the smoke campaign — the simulations
 *   actually run, the store gets populated.
 * - **warm-memory**: repeated report fetches against the live daemon —
 *   everything served from the engine's memo cache.
 * - **open-loop**: N concurrent clients issuing report fetches at a
 *   fixed arrival rate (requests are scheduled on the clock, not
 *   gated on responses), measuring latency under load *including*
 *   queueing delay — the first slice of the ROADMAP saturation load
 *   generator, and a realistic traffic source for the /metrics
 *   latency histograms.
 * - **warm-disk**: daemon restarted on the same store directory, same
 *   campaign resubmitted — served from disk, no simulation.
 *
 * Writes BENCH_serve.json (schema in docs/BENCHMARKS.md): per-phase
 * throughput plus p50/p90/p99/max request latencies, and the headline
 * `warm_speedup` = warm-memory requests/s over cold requests/s. The
 * ISSUE's acceptance bar is warm >= 10x cold.
 *
 * Usage: bench_serve [--quick] [--out BENCH_serve.json]
 *        [--requests N] [--store DIR] [--clients N] [--rate R]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "serve/service.h"
#include "util/json.h"

using namespace prosperity;

namespace {

namespace fs = std::filesystem;

struct Phase
{
    std::string name;
    std::size_t requests = 0;
    double seconds = 0.0;
    std::vector<double> latencies_ns; // per request, submit+poll+fetch

    double requestsPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(requests) / seconds
                   : 0.0;
    }

    double percentileNs(double p) const
    {
        if (latencies_ns.empty())
            return 0.0;
        std::vector<double> sorted = latencies_ns;
        std::sort(sorted.begin(), sorted.end());
        const double rank =
            p / 100.0 * static_cast<double>(sorted.size() - 1);
        return sorted[static_cast<std::size_t>(rank + 0.5)];
    }

    json::Value toJson() const
    {
        json::Value value = json::Value::object();
        value.set("name", name);
        value.set("requests", requests);
        value.set("seconds", seconds);
        value.set("requests_per_sec", requestsPerSec());
        value.set("p50_ns", percentileNs(50));
        value.set("p90_ns", percentileNs(90));
        value.set("p99_ns", percentileNs(99));
        value.set("max_ns", latencies_ns.empty()
                                ? 0.0
                                : *std::max_element(
                                      latencies_ns.begin(),
                                      latencies_ns.end()));
        return value;
    }
};

std::string
readFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

/** Submit the campaign, poll to completion, fetch the report; returns
 *  the report body (and the campaign id via `id_out` when wanted). */
std::string
driveCampaign(serve::HttpClient& http, const std::string& spec,
              std::string* id_out = nullptr)
{
    const serve::HttpResponse submitted =
        http.post("/v1/campaigns", spec);
    if (submitted.status != 200 && submitted.status != 202)
        throw std::runtime_error("submit failed: " + submitted.body);
    const std::string id =
        json::Value::parse(submitted.body).at("id").asString();
    if (id_out)
        *id_out = id;
    for (;;) {
        const serve::HttpResponse polled = http.get("/v1/jobs/" + id);
        const std::string status =
            json::Value::parse(polled.body).at("status").asString();
        if (status == "done")
            break;
        if (status == "failed")
            throw std::runtime_error("campaign failed: " + polled.body);
        // Don't let the poll loop steal cycles from the simulation
        // workers it is waiting for.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const serve::HttpResponse report = http.get("/v1/reports/" + id);
    if (report.status != 200)
        throw std::runtime_error("report fetch failed: " + report.body);
    return report.body;
}

/** One service + server stack on an ephemeral port. */
struct Daemon
{
    std::unique_ptr<serve::SimulationService> service;
    std::unique_ptr<serve::HttpServer> server;

    /** `http_threads` must cover every concurrently open connection:
     *  keep-alive connections own their worker for their lifetime, so
     *  an under-provisioned pool starves surplus clients until the
     *  idle timeout frees a worker (seconds, not microseconds). */
    explicit Daemon(const std::string& store_dir,
                    std::size_t http_threads = 2)
    {
        serve::ServiceOptions service_options;
        service_options.store_dir = store_dir;
        service = std::make_unique<serve::SimulationService>(
            service_options);
        serve::HttpServerOptions server_options;
        server_options.port = 0;
        server_options.threads = http_threads;
        server = std::make_unique<serve::HttpServer>(
            server_options, [this](const serve::HttpRequest& request) {
                return service->handle(request);
            });
        server->start();
    }
};

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_serve.json";
    std::size_t warm_requests = 200;
    std::size_t open_clients = 4;
    double open_rate = 50.0; // arrivals per second
    std::string store_dir =
        (fs::temp_directory_path() / "prosperity_bench_serve_store")
            .string();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--requests" && i + 1 < argc)
            warm_requests = std::stoull(argv[++i]);
        else if (arg == "--clients" && i + 1 < argc)
            open_clients = std::max<std::size_t>(
                1, std::stoull(argv[++i]));
        else if (arg == "--rate" && i + 1 < argc)
            open_rate = std::max(1.0, std::stod(argv[++i]));
        else if (arg == "--store" && i + 1 < argc)
            store_dir = argv[++i];
        else {
            std::cerr << "usage: bench_serve [--quick] [--out FILE]"
                         " [--requests N] [--store DIR]"
                         " [--clients N] [--rate R]\n";
            return 2;
        }
    }
    if (quick)
        warm_requests = std::min<std::size_t>(warm_requests, 50);
    std::size_t open_requests = quick ? 60 : 200;

    const std::string spec =
        readFile(defaultCampaignDir() + "/smoke.json");
    fs::remove_all(store_dir); // a cold phase needs a cold store

    std::cout << "bench_serve: smoke campaign over loopback HTTP\n";
    std::vector<Phase> phases;
    std::string cold_report;
    std::string campaign_id;

    {
        // One worker per open-loop client plus one for the phase-1/2
        // keep-alive connection, which stays open through phase 3.
        Daemon daemon(store_dir, open_clients + 1);
        serve::HttpClient http(daemon.server->port());

        // Phase 1 — cold: simulations actually run.
        Phase cold;
        cold.name = "cold";
        cold.requests = 1;
        const double t0 = bench::nowNs();
        cold_report = driveCampaign(http, spec, &campaign_id);
        const double elapsed = bench::nowNs() - t0;
        cold.seconds = elapsed * 1e-9;
        cold.latencies_ns.push_back(elapsed);
        phases.push_back(cold);
        std::cout << "  cold: " << cold.seconds << " s for 1 campaign\n";

        // Phase 2 — warm-memory: same campaign against the live
        // daemon, memo cache answers.
        Phase warm;
        warm.name = "warm-memory";
        warm.requests = warm_requests;
        const double w0 = bench::nowNs();
        for (std::size_t i = 0; i < warm_requests; ++i) {
            const double r0 = bench::nowNs();
            const std::string report = driveCampaign(http, spec);
            warm.latencies_ns.push_back(bench::nowNs() - r0);
            if (report != cold_report)
                throw std::runtime_error(
                    "warm report diverged from cold report");
        }
        warm.seconds = (bench::nowNs() - w0) * 1e-9;
        phases.push_back(warm);
        std::cout << "  warm-memory: " << warm.requestsPerSec()
                  << " campaigns/s over " << warm.requests
                  << " requests\n";

        // Phase 3 — open-loop: `open_clients` concurrent clients fire
        // report fetches at `open_rate` arrivals/s. Arrival i is
        // scheduled at t0 + i/rate on the clock regardless of earlier
        // responses, and latency is measured from the *scheduled*
        // start, so a server that falls behind accumulates queueing
        // delay in the tail percentiles instead of silently slowing
        // the arrival process (the closed-loop failure mode).
        Phase open;
        open.name = "open-loop";
        open.requests = open_requests;
        std::vector<std::vector<double>> client_lat(open_clients);
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> failures{0};
        const double interval_ns = 1e9 / open_rate;
        const double start_ns = bench::nowNs();
        std::vector<std::thread> pool;
        pool.reserve(open_clients);
        for (std::size_t c = 0; c < open_clients; ++c) {
            pool.emplace_back([&, c] {
                serve::HttpClient client(daemon.server->port());
                for (;;) {
                    const std::size_t i = next.fetch_add(
                        1, std::memory_order_relaxed);
                    if (i >= open_requests)
                        return;
                    const double scheduled =
                        start_ns + static_cast<double>(i) * interval_ns;
                    for (;;) {
                        const double now = bench::nowNs();
                        if (now >= scheduled)
                            break;
                        std::this_thread::sleep_for(
                            std::chrono::nanoseconds(
                                static_cast<long long>(
                                    scheduled - now)));
                    }
                    const serve::HttpResponse response = client.get(
                        "/v1/reports/" + campaign_id);
                    client_lat[c].push_back(bench::nowNs() - scheduled);
                    if (response.status != 200 ||
                        response.body != cold_report)
                        failures.fetch_add(1,
                                           std::memory_order_relaxed);
                }
            });
        }
        for (std::thread& t : pool)
            t.join();
        open.seconds = (bench::nowNs() - start_ns) * 1e-9;
        for (const std::vector<double>& lat : client_lat)
            open.latencies_ns.insert(open.latencies_ns.end(),
                                     lat.begin(), lat.end());
        if (failures.load() != 0)
            throw std::runtime_error(
                "open-loop phase: " + std::to_string(failures.load()) +
                " responses diverged from the cold report");
        phases.push_back(open);
        std::cout << "  open-loop: " << open.requestsPerSec()
                  << " req/s achieved (" << open_clients
                  << " clients, " << open_rate << "/s offered), p99 "
                  << open.percentileNs(99) * 1e-6 << " ms\n";
    }

    {
        // Phase 3 — warm-disk: fresh daemon, same store directory.
        Daemon daemon(store_dir);
        serve::HttpClient http(daemon.server->port());
        Phase disk;
        disk.name = "warm-disk";
        disk.requests = 1;
        const double t0 = bench::nowNs();
        const std::string report = driveCampaign(http, spec);
        const double elapsed = bench::nowNs() - t0;
        disk.seconds = elapsed * 1e-9;
        disk.latencies_ns.push_back(elapsed);
        phases.push_back(disk);
        if (report != cold_report)
            throw std::runtime_error(
                "disk-warm report diverged from cold report");
        if (daemon.service->engine().stats().misses != 0)
            throw std::runtime_error(
                "disk-warm phase re-ran a simulation");
        std::cout << "  warm-disk: " << disk.seconds
                  << " s for 1 campaign (0 simulations)\n";
    }

    const double warm_speedup =
        phases[0].seconds > 0.0 && phases[1].requestsPerSec() > 0.0
            ? phases[1].requestsPerSec() / (1.0 / phases[0].seconds)
            : 0.0;
    std::cout << "  warm/cold throughput: " << warm_speedup << "x\n";

    json::Value root = json::Value::object();
    root.set("suite", "serve");
    root.set("schema_version", 1);
    json::Value config = json::Value::object();
    config.set("mode", quick ? "quick" : "full");
    config.set("campaign", "smoke");
    config.set("warm_requests", warm_requests);
    config.set("open_loop_requests", open_requests);
    config.set("open_loop_clients", open_clients);
    config.set("open_loop_rate_per_sec", open_rate);
    root.set("config", std::move(config));
    json::Value cases = json::Value::array();
    for (const Phase& phase : phases)
        cases.push(phase.toJson());
    root.set("cases", std::move(cases));
    root.set("warm_speedup", warm_speedup);

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    os << root.dump(2) << '\n';
    std::cout << "trajectory written to " << out_path << '\n';

    fs::remove_all(store_dir);
    return 0;
}
