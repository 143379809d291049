/**
 * @file
 * Tests for the SimulationService JSON API over real loopback HTTP:
 * submit/poll/fetch round trips, campaign reports byte-identical to
 * the offline CampaignRunner, resubmits answered from their record,
 * pinned ids, concurrent duplicate submits deduped to one simulation,
 * structured key-path errors for malformed requests, bounded
 * admission, disk-warm restarts that re-run nothing, and the tracing
 * routes (trace-id header round trip, span coverage of the
 * whole submit → simulate → store pipeline, opt-in gating).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "obs/trace.h"
#include "serve/service.h"

namespace prosperity::serve {
namespace {

namespace fs = std::filesystem;

/** Service + server on an ephemeral port, fresh per test. */
class ServiceTest : public ::testing::Test
{
  protected:
    void startService(ServiceOptions options = {})
    {
        service_ = std::make_unique<SimulationService>(options);
        HttpServerOptions server_options;
        server_options.port = 0;
        server_options.threads = 2;
        server_ = std::make_unique<HttpServer>(
            server_options, [this](const HttpRequest& request) {
                return service_->handle(request);
            });
        server_->start();
    }

    void stopService()
    {
        if (server_)
            server_->stop();
        server_.reset();
        service_.reset();
    }

    void TearDown() override
    {
        stopService();
        // Tracing-enabled services turn the process-global flight
        // recorder on; restore the untraced default for later tests.
        obs::TraceRecorder::global().setEnabled(false);
        obs::TraceRecorder::global().clear();
        if (!store_dir_.empty())
            fs::remove_all(store_dir_);
    }

    /** A per-test scratch store directory. */
    const std::string& storeDir()
    {
        if (store_dir_.empty()) {
            store_dir_ =
                (fs::temp_directory_path() /
                 ("prosperity_service_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
            fs::remove_all(store_dir_);
        }
        return store_dir_;
    }

    HttpClient client() { return HttpClient(server_->port()); }

    static std::string smokeSpecText()
    {
        std::ifstream is(defaultCampaignDir() + "/smoke.json");
        std::ostringstream text;
        text << is.rdbuf();
        return text.str();
    }

    /** POST a body, then poll its job until done (or fail the test). */
    std::string submitAndWait(HttpClient& http, const std::string& route,
                              const std::string& body)
    {
        const HttpResponse submitted = http.post(route, body);
        EXPECT_TRUE(submitted.status == 202 || submitted.status == 200)
            << submitted.body;
        const json::Value ack = json::Value::parse(submitted.body);
        const std::string id = ack.at("id").asString();
        for (int i = 0; i < 600; ++i) {
            const HttpResponse polled = http.get("/v1/jobs/" + id);
            EXPECT_EQ(polled.status, 200) << polled.body;
            const std::string status = json::Value::parse(polled.body)
                                           .at("status")
                                           .asString();
            if (status == "done")
                return id;
            EXPECT_NE(status, "failed") << polled.body;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        ADD_FAILURE() << "job " << id << " never finished";
        return id;
    }

    std::unique_ptr<SimulationService> service_;
    std::unique_ptr<HttpServer> server_;
    std::string store_dir_;
};

const char* kRunBody = R"({
  "accelerator": {"name": "eyeriss"},
  "workload": {"model": "LeNet5", "dataset": "MNIST"},
  "options": {"seed": 7}
})";

TEST_F(ServiceTest, RegistryListsTheRosters)
{
    startService();
    HttpClient http = client();
    const HttpResponse response = http.get("/v1/registry");
    ASSERT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    std::vector<std::string> accelerators;
    for (const json::Value& entry :
         body.at("accelerators").asArray())
        accelerators.push_back(entry.at("name").asString());
    EXPECT_NE(std::find(accelerators.begin(), accelerators.end(),
                        "prosperity"),
              accelerators.end());
    EXPECT_FALSE(body.at("models").asArray().empty());
    EXPECT_FALSE(body.at("datasets").asArray().empty());
}

TEST_F(ServiceTest, RunSubmitPollFetchMatchesOfflineEngine)
{
    startService();
    HttpClient http = client();
    const std::string id =
        submitAndWait(http, "/v1/runs", kRunBody);

    const HttpResponse report = http.get("/v1/reports/" + id);
    ASSERT_EQ(report.status, 200) << report.body;
    const json::Value body = json::Value::parse(report.body);

    SimulationEngine offline;
    SimulationJob job;
    job.accelerator = AcceleratorSpec("eyeriss");
    job.workload = makeWorkload("LeNet5", "MNIST");
    const RunResult expected = offline.run(job);
    EXPECT_EQ(body.at("cycles").asNumber(), expected.cycles);
    EXPECT_EQ(body.at("accelerator").asString(), expected.accelerator);

    // The CSV view is the one-row CSV of `run --csv`.
    const HttpResponse csv =
        http.get("/v1/reports/" + id + "?format=csv");
    ASSERT_EQ(csv.status, 200) << csv.body;
    EXPECT_EQ(csv.content_type, "text/csv");
    EXPECT_EQ(csv.body, exportRunResults({expected}));

    // Deterministic ids: the same job submitted again is the same
    // record, answered instantly (200, not 202).
    const HttpResponse again = http.post("/v1/runs", kRunBody);
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(json::Value::parse(again.body).at("id").asString(), id);
}

TEST_F(ServiceTest, CampaignReportIsByteIdenticalToOfflineRunner)
{
    startService();
    HttpClient http = client();
    const std::string id =
        submitAndWait(http, "/v1/campaigns", smokeSpecText());
    const HttpResponse report = http.get("/v1/reports/" + id);
    ASSERT_EQ(report.status, 200);

    // The offline path: same spec through CampaignRunner, serialized
    // the way writeJsonFile would.
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignSpec spec =
        CampaignSpec::fromJson(json::Value::parse(smokeSpecText()));
    const CampaignReport offline = runner.run(spec);
    EXPECT_EQ(report.body, offline.toJson().dump(2) + "\n");

    // CSV view of the same report.
    const HttpResponse csv =
        http.get("/v1/reports/" + id + "?format=csv");
    ASSERT_EQ(csv.status, 200);
    EXPECT_EQ(csv.content_type, "text/csv");
    EXPECT_EQ(csv.body, offline.toCsv());

    // The same spec posted again is answered from the finished record:
    // 200 with the record's status, no second submit, no simulation.
    const HttpResponse again = http.post("/v1/campaigns", smokeSpecText());
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.body, http.get("/v1/jobs/" + id).body);
    const json::Value stats =
        json::Value::parse(http.get("/v1/stats").body);
    EXPECT_EQ(stats.at("service").at("campaigns_submitted").asNumber(),
              1.0);
    EXPECT_EQ(stats.at("engine").at("misses").asNumber(), 3.0);
}

/** Ids are content addresses of frozen bytes (a run's jobKey, a
 *  campaign's canonical spec), so clients and stores may keep them. */
TEST_F(ServiceTest, CampaignAndRunIdsArePinned)
{
    EXPECT_EQ(SimulationService::campaignId(CampaignSpec::fromJson(
                  json::Value::parse(smokeSpecText()))),
              "campaign-67d2e5523d7b614b4e34221f6bbebffb");
    EXPECT_EQ(SimulationService::runId(simulationJobFromJson(
                  json::Value::parse(kRunBody), "run request")),
              "run-ea8aa28eb370e1f19773840f19d95081");
}

TEST_F(ServiceTest, AdaptiveCampaignMatchesOfflineRunnerBytewise)
{
    startService();
    HttpClient http = client();
    std::ifstream is(defaultCampaignDir() + "/adaptive_smoke.json");
    std::ostringstream text;
    text << is.rdbuf();
    const std::string spec_text = text.str();

    const HttpResponse submitted =
        http.post("/v1/campaigns", spec_text);
    ASSERT_TRUE(submitted.status == 202 || submitted.status == 200)
        << submitted.body;
    const std::string id =
        json::Value::parse(submitted.body).at("id").asString();

    // A report fetched while the stopping rule is still sampling is a
    // 409 that says so (the seed total is not knowable up front).
    const HttpResponse early = http.get("/v1/reports/" + id);
    if (early.status != 200) {
        EXPECT_EQ(early.status, 409) << early.body;
        EXPECT_NE(early.body.find("sampling"), std::string::npos)
            << early.body;
    }

    std::string final_status;
    for (int i = 0; i < 600; ++i) {
        const HttpResponse polled = http.get("/v1/jobs/" + id);
        ASSERT_EQ(polled.status, 200) << polled.body;
        const json::Value body = json::Value::parse(polled.body);
        // Adaptive status polls stream the seed count.
        EXPECT_TRUE(body.find("seeds_drawn") != nullptr)
            << polled.body;
        final_status = body.at("status").asString();
        if (final_status == "done")
            break;
        ASSERT_NE(final_status, "failed") << polled.body;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_EQ(final_status, "done");

    const HttpResponse report = http.get("/v1/reports/" + id);
    ASSERT_EQ(report.status, 200) << report.body;

    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport offline =
        runner.run(CampaignSpec::fromJson(json::Value::parse(spec_text)));
    EXPECT_EQ(report.body, offline.toJson().dump(2) + "\n");

    // The served document carries the per-cell sampling outcomes.
    const json::Value doc = json::Value::parse(report.body);
    const json::Value& first = doc.at("cells").asArray().front();
    EXPECT_GE(first.at("sampling").at("n_seeds").asNumber(), 4.0);

    // The CSV view, sampling columns included, is the offline one too.
    const HttpResponse csv =
        http.get("/v1/reports/" + id + "?format=csv");
    ASSERT_EQ(csv.status, 200) << csv.body;
    EXPECT_EQ(csv.body, offline.toCsv());

    // Idempotent resubmission: same spec, same record.
    const HttpResponse again = http.post("/v1/campaigns", spec_text);
    EXPECT_EQ(again.status, 200) << again.body;
    EXPECT_EQ(json::Value::parse(again.body).at("id").asString(), id);
}

TEST_F(ServiceTest, ConcurrentDuplicateSubmitsRunOneSimulation)
{
    startService();
    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<std::string> ids(kClients);
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back([&, t] {
            HttpClient http(server_->port());
            const HttpResponse response =
                http.post("/v1/runs", kRunBody);
            if (response.status == 200 || response.status == 202)
                ids[t] = json::Value::parse(response.body)
                             .at("id")
                             .asString();
        });
    for (std::thread& thread : threads)
        thread.join();
    for (int t = 1; t < kClients; ++t)
        EXPECT_EQ(ids[t], ids[0]);

    HttpClient http = client();
    submitAndWait(http, "/v1/runs", kRunBody);
    // However many clients raced, exactly one simulation ran.
    EXPECT_EQ(service_->engine().stats().misses, 1u);
}

TEST_F(ServiceTest, MalformedJsonIs400WithPosition)
{
    startService();
    HttpClient http = client();
    const HttpResponse response =
        http.post("/v1/runs", "{\"accelerator\": ");
    EXPECT_EQ(response.status, 400);
    const std::string message = json::Value::parse(response.body)
                                    .at("error")
                                    .at("message")
                                    .asString();
    EXPECT_NE(message.find("line"), std::string::npos) << message;
}

TEST_F(ServiceTest, UnknownAcceleratorIs400WithKeyPathAndRoster)
{
    startService();
    HttpClient http = client();
    const HttpResponse response = http.post(
        "/v1/runs",
        R"({"accelerator": {"name": "warpdrive"},
            "workload": {"model": "LeNet5", "dataset": "MNIST"}})");
    EXPECT_EQ(response.status, 400);
    const std::string message = json::Value::parse(response.body)
                                    .at("error")
                                    .at("message")
                                    .asString();
    EXPECT_NE(message.find("run request: accelerator"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("prosperity"), std::string::npos) << message;
}

TEST_F(ServiceTest, OutOfRangeProfileIs400AndServiceKeepsServing)
{
    // Admitted, bit_density 0 would abort the daemon inside the spike
    // generator, and a bank_size past 256 lets one request grow it by
    // the generator's per-entry allocations: each must be a key-path
    // 400, and the service must keep answering. 257 is the smallest
    // size past the bound; nothing larger is sent to a live service.
    startService();
    HttpClient http = client();
    for (const auto& [field, value] :
         {std::pair{"bit_density", "0"}, std::pair{"bank_size", "257"}}) {
        const HttpResponse response = http.post(
            "/v1/runs",
            std::string(R"({"accelerator": {"name": "eyeriss"},
                            "workload": {"model": "LeNet5",
                                         "dataset": "MNIST",
                                         "profile": {")") +
                field + "\": " + value + "}}}");
        EXPECT_EQ(response.status, 400) << field;
        const std::string message = json::Value::parse(response.body)
                                        .at("error")
                                        .at("message")
                                        .asString();
        EXPECT_NE(message.find(std::string("profile.") + field),
                  std::string::npos)
            << message;
        EXPECT_EQ(http.get("/v1/stats").status, 200) << field;
    }
}

TEST_F(ServiceTest, SeedCountOverTheCapIs400AndServiceKeepsServing)
{
    // Admitted, an adaptive campaign's first round builds min_seeds
    // jobs per cell, so one POST could size an unbounded allocation:
    // it must be a key-path 400, and the service must keep answering.
    // One past the cap is the largest count sent to a live service.
    startService();
    HttpClient http = client();
    const std::string seeds = std::to_string(stats::kMaxSeeds + 1);
    const HttpResponse response = http.post(
        "/v1/campaigns",
        R"({"name": "seed-cap", "accelerators": [{"name": "eyeriss"}],
            "workloads": [{"model": "LeNet5", "dataset": "MNIST"}],
            "sampling": {"eps": 0.02, "min_seeds": )" +
            seeds + R"(, "max_seeds": )" + seeds + "}}");
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_NE(response.body.find("sampling.min_seeds"), std::string::npos)
        << response.body;
    EXPECT_EQ(http.get("/v1/stats").status, 200);
}

TEST_F(ServiceTest, OutOfRangeAcceleratorParamFailsTheRunAndServiceKeepsServing)
{
    // LoAS's weight_density 5 once reached its range assert on the
    // engine worker, and prosperity's tile_k 4 the spike buffer's, and
    // both aborted the daemon: each run must fail with an error naming
    // the parameter, and the service must keep answering.
    startService();
    HttpClient http = client();
    struct BadParam
    {
        const char* key;
        const char* accelerator;
    };
    const BadParam cases[] = {
        {"weight_density", R"({"name": "loas",
                               "params": {"weight_density": 5}})"},
        {"tile_k", R"({"name": "prosperity",
                       "params": {"tile_k": "4"}})"}};
    for (const BadParam& bad : cases) {
        const HttpResponse submitted = http.post(
            "/v1/runs",
            std::string(R"({"accelerator": )") + bad.accelerator +
                R"(, "workload": {"model": "LeNet5", "dataset": "MNIST"}})");
        ASSERT_EQ(submitted.status, 202) << submitted.body;
        const std::string id =
            json::Value::parse(submitted.body).at("id").asString();
        json::Value polled;
        for (int i = 0; i < 600; ++i) {
            polled = json::Value::parse(http.get("/v1/jobs/" + id).body);
            if (polled.at("status").asString() != "pending")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ASSERT_EQ(polled.at("status").asString(), "failed")
            << polled.dump();
        EXPECT_NE(polled.at("error").asString().find(bad.key),
                  std::string::npos)
            << polled.dump();
        EXPECT_EQ(http.get("/v1/stats").status, 200);
    }
}

TEST_F(ServiceTest, DeeplyNestedBodyIs400AndServiceKeepsServing)
{
    // 400k nested arrays once overflowed the JSON parser's stack and
    // killed the daemon; the nesting cap makes them a positioned 400.
    startService();
    HttpClient http = client();
    const HttpResponse response =
        http.post("/v1/campaigns", std::string(400000, '[') + "\n");
    EXPECT_EQ(response.status, 400);
    const std::string message = json::Value::parse(response.body)
                                    .at("error")
                                    .at("message")
                                    .asString();
    EXPECT_NE(message.find("JSON parse error at line 1"),
              std::string::npos)
        << message;
    EXPECT_EQ(http.get("/v1/stats").status, 200);
}

TEST_F(ServiceTest, UnknownRouteAndIdAre404)
{
    startService();
    HttpClient http = client();
    EXPECT_EQ(http.get("/v2/everything").status, 404);
    EXPECT_EQ(http.get("/v1/jobs/run-does-not-exist").status, 404);
    EXPECT_EQ(http.get("/v1/reports/run-does-not-exist").status, 404);
    // Wrong method on a known route.
    EXPECT_EQ(http.get("/v1/runs").status, 405);
}

TEST_F(ServiceTest, AdmissionIsBounded)
{
    ServiceOptions options;
    options.max_pending = 0; // every new simulation exceeds the bound
    startService(options);
    HttpClient http = client();
    const HttpResponse response = http.post("/v1/runs", kRunBody);
    EXPECT_EQ(response.status, 429);
    const std::string message = json::Value::parse(response.body)
                                    .at("error")
                                    .at("message")
                                    .asString();
    EXPECT_NE(message.find("admission"), std::string::npos) << message;
}

TEST_F(ServiceTest, FailedCampaignIsReportedAndRetryable)
{
    // Eyeriss (job 0) simulates; the zero-PPU Prosperity design (job 1)
    // fails inside the engine, after admission.
    const std::string spec_text = R"({
      "name": "bad",
      "accelerators": [{"name": "eyeriss"},
                       {"name": "prosperity", "params": {"num_ppus": 0}}],
      "workloads": [{"model": "LeNet5", "dataset": "MNIST"}]
    })";
    startService();
    HttpClient http = client();
    const auto submitAndFail = [&] {
        const HttpResponse submitted = http.post("/v1/campaigns", spec_text);
        EXPECT_EQ(submitted.status, 202) << submitted.body;
        const std::string id =
            json::Value::parse(submitted.body).at("id").asString();
        for (int i = 0; i < 600; ++i) {
            const json::Value polled =
                json::Value::parse(http.get("/v1/jobs/" + id).body);
            if (polled.at("status").asString() != "pending") {
                EXPECT_EQ(polled.at("status").asString(), "failed");
                EXPECT_NE(polled.at("error").asString().find("num_ppus"),
                          std::string::npos)
                    << polled.at("error").asString();
                return id;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ADD_FAILURE() << "campaign " << id << " never settled";
        return id;
    };
    const std::string id = submitAndFail();

    const HttpResponse report = http.get("/v1/reports/" + id);
    EXPECT_EQ(report.status, 500);
    EXPECT_NE(report.body.find("num_ppus"), std::string::npos)
        << report.body;

    // The failed job's cell is not done, and nothing is extrapolated
    // for work that will never finish.
    const HttpResponse progress =
        http.get("/v1/campaigns/" + id + "/progress");
    ASSERT_EQ(progress.status, 200) << progress.body;
    const json::Value doc = json::Value::parse(progress.body);
    EXPECT_EQ(doc.at("status").asString(), "failed");
    EXPECT_LT(doc.at("cells_done").asNumber(),
              doc.at("cells_total").asNumber());
    EXPECT_EQ(doc.find("eta_seconds"), nullptr) << progress.body;

    // An identical resubmit replaces the failed record with a fresh
    // one under the same id, and nothing stays pending.
    EXPECT_EQ(submitAndFail(), id);
    const json::Value stats =
        json::Value::parse(http.get("/v1/stats").body);
    EXPECT_EQ(stats.at("service").at("campaigns_submitted").asNumber(),
              2.0);
    EXPECT_EQ(stats.at("service").at("pending").asNumber(), 0.0);
}

TEST_F(ServiceTest, StoppingWithWorkInFlightJoinsTheWorkers)
{
    // Destroying the service with a campaign and a run still on their
    // workers must join them against a live engine: stopService()
    // returns, without a hang or a sanitizer report.
    startService();
    HttpClient http = client();
    EXPECT_EQ(http.post("/v1/campaigns", smokeSpecText()).status, 202);
    EXPECT_EQ(http.post("/v1/runs", kRunBody).status, 202);
    stopService();
}

TEST_F(ServiceTest, StatsDocumentTracksTheTraffic)
{
    startService();
    HttpClient http = client();
    submitAndWait(http, "/v1/runs", kRunBody);
    const HttpResponse response = http.get("/v1/stats");
    ASSERT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("engine").at("misses").asNumber(), 1.0);
    EXPECT_EQ(body.at("service").at("runs_submitted").asNumber(), 1.0);
    EXPECT_EQ(body.at("service").at("pending").asNumber(), 0.0);
    EXPECT_FALSE(body.at("store").at("enabled").asBool());
    // The store-defect counters are always present (zero without a
    // store) so dashboards can scrape a fixed schema.
    EXPECT_EQ(body.at("engine").at("store_corrupt").asNumber(), 0.0);
    EXPECT_EQ(body.at("engine").at("store_truncated").asNumber(), 0.0);
    EXPECT_EQ(
        body.at("engine").at("store_version_mismatch").asNumber(),
        0.0);
}

TEST_F(ServiceTest, StatsDocumentClassifiesStoreDefects)
{
    ServiceOptions options;
    options.store_dir = storeDir();
    startService(options);
    HttpClient http = client();

    // Plant one defect of each class where the smoke campaign's jobs
    // will look.
    const CampaignSpec spec =
        CampaignSpec::fromJson(json::Value::parse(smokeSpecText()));
    const std::vector<SimulationJob> jobs = spec.expandJobs();
    ASSERT_GE(jobs.size(), 3u);
    ASSERT_NE(service_->store(), nullptr);
    {
        std::ofstream os(service_->store()->pathFor(
            SimulationEngine::jobKey(jobs[0])));
        os << "{\"cut\": "; // truncated
    }
    {
        std::ofstream os(service_->store()->pathFor(
            SimulationEngine::jobKey(jobs[1])));
        os << "{\"note\": \"wrong shape\"}\n"; // corrupt
    }
    {
        std::ofstream os(service_->store()->pathFor(
            SimulationEngine::jobKey(jobs[2])));
        os << "{\"schema_version\": 999, \"key\": \"x\", "
              "\"result\": {}}\n"; // version mismatch
    }

    submitAndWait(http, "/v1/campaigns", smokeSpecText());
    const HttpResponse response = http.get("/v1/stats");
    ASSERT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("store").at("truncated").asNumber(), 1.0);
    EXPECT_EQ(body.at("store").at("corrupt").asNumber(), 1.0);
    EXPECT_EQ(body.at("store").at("version_mismatch").asNumber(), 1.0);
    EXPECT_EQ(body.at("engine").at("store_truncated").asNumber(), 1.0);
    EXPECT_EQ(body.at("engine").at("store_corrupt").asNumber(), 1.0);
    EXPECT_EQ(
        body.at("engine").at("store_version_mismatch").asNumber(),
        1.0);
}

/** First value of `series` (exact rendered name) in an exposition. */
double metricValue(const std::string& text, const std::string& series)
{
    std::istringstream lines(text);
    std::string line;
    const std::string prefix = series + " ";
    while (std::getline(lines, line))
        if (line.rfind(prefix, 0) == 0)
            return std::stod(line.substr(prefix.size()));
    return 0.0;
}

TEST_F(ServiceTest, MetricsEndpointReflectsKnownTraffic)
{
    startService();
    HttpClient http = client();

    // The registry is process-global and instruments accumulate across
    // tests in this binary, so every assertion is a before/after delta.
    const HttpResponse before = http.get("/metrics");
    ASSERT_EQ(before.status, 200);
    EXPECT_EQ(before.content_type,
              "text/plain; version=0.0.4; charset=utf-8");
    const double simulated_before = metricValue(
        before.body, "prosperity_engine_jobs_total{outcome=\"simulated\"}");
    const double ok_before = metricValue(
        before.body, "prosperity_http_responses_total{code=\"200\"}");
    const double polls_before = metricValue(
        before.body,
        "prosperity_http_request_seconds_count{route=\"/v1/jobs/:id\"}");
    const double req_bytes_before = metricValue(
        before.body, "prosperity_http_request_bytes_total");
    const double resp_bytes_before = metricValue(
        before.body, "prosperity_http_response_bytes_total");

    submitAndWait(http, "/v1/runs", kRunBody);

    const HttpResponse after = http.get("/metrics");
    ASSERT_EQ(after.status, 200);
    EXPECT_EQ(metricValue(after.body,
                          "prosperity_engine_jobs_total{outcome="
                          "\"simulated\"}") -
                  simulated_before,
              static_cast<double>(service_->engine().stats().misses));
    EXPECT_GE(metricValue(after.body,
                          "prosperity_http_responses_total{code=\"200\"}") -
                  ok_before,
              1.0);
    EXPECT_GE(metricValue(after.body,
                          "prosperity_http_request_seconds_count{route="
                          "\"/v1/jobs/:id\"}") -
                  polls_before,
              1.0);

    // Build info is a constant-1 gauge whose labels carry the config.
    EXPECT_NE(after.body.find("# TYPE prosperity_build_info gauge"),
              std::string::npos);
    EXPECT_NE(after.body.find("prosperity_build_info{compiler=\""),
              std::string::npos);

    // Histogram internal consistency: the +Inf bucket is the count.
    EXPECT_EQ(
        metricValue(after.body,
                    "prosperity_http_request_seconds_bucket{route="
                    "\"/v1/jobs/:id\",le=\"+Inf\"}"),
        metricValue(after.body,
                    "prosperity_http_request_seconds_count{route="
                    "\"/v1/jobs/:id\"}"));

    // Scrape-time gauges reflect this service instance.
    EXPECT_GE(metricValue(after.body, "prosperity_uptime_seconds"), 0.0);
    EXPECT_EQ(metricValue(after.body, "prosperity_service_records"), 1.0);

    // Wire-volume counters: the submit + polls moved at least the run
    // body in, and every response moved bytes out.
    EXPECT_GE(metricValue(after.body,
                          "prosperity_http_request_bytes_total") -
                  req_bytes_before,
              static_cast<double>(std::string(kRunBody).size()));
    EXPECT_GT(metricValue(after.body,
                          "prosperity_http_response_bytes_total") -
                  resp_bytes_before,
              0.0);

    // Writes are rejected; the metrics route is read-only.
    EXPECT_EQ(http.post("/metrics", "{}").status, 405);
}

TEST_F(ServiceTest, CampaignProgressTracksLifecycle)
{
    startService();
    HttpClient http = client();

    // Polled while the campaign runs, the counts stay within their
    // totals and never go backwards.
    const HttpResponse submitted =
        http.post("/v1/campaigns", smokeSpecText());
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const std::string live_id =
        json::Value::parse(submitted.body).at("id").asString();
    double jobs_seen = 0.0;
    double cells_seen = 0.0;
    std::string live_status;
    for (int i = 0; i < 3000 && live_status != "done"; ++i) {
        const HttpResponse polled =
            http.get("/v1/campaigns/" + live_id + "/progress");
        ASSERT_EQ(polled.status, 200) << polled.body;
        const json::Value live = json::Value::parse(polled.body);
        live_status = live.at("status").asString();
        ASSERT_NE(live_status, "failed") << polled.body;
        const double jobs_done = live.at("jobs_done").asNumber();
        const double cells_done = live.at("cells_done").asNumber();
        EXPECT_LE(jobs_done, live.at("jobs_total").asNumber());
        EXPECT_LE(cells_done, live.at("cells_total").asNumber());
        EXPECT_GE(jobs_done, jobs_seen);
        EXPECT_GE(cells_done, cells_seen);
        jobs_seen = jobs_done;
        cells_seen = cells_done;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(live_status, "done");

    const std::string id =
        submitAndWait(http, "/v1/campaigns", smokeSpecText());
    EXPECT_EQ(id, live_id);

    const HttpResponse response =
        http.get("/v1/campaigns/" + id + "/progress");
    ASSERT_EQ(response.status, 200) << response.body;
    const json::Value body = json::Value::parse(response.body);
    EXPECT_EQ(body.at("id").asString(), id);
    EXPECT_EQ(body.at("status").asString(), "done");
    const double cells_total = body.at("cells_total").asNumber();
    EXPECT_GT(cells_total, 0.0);
    EXPECT_EQ(body.at("cells_done").asNumber(), cells_total);
    EXPECT_EQ(body.at("jobs_done").asNumber(),
              body.at("jobs_total").asNumber());
    EXPECT_GE(body.at("elapsed_seconds").asNumber(), 0.0);
    EXPECT_EQ(body.at("eta_seconds").asNumber(), 0.0);
    // The engine-wide queue backlog rides along; a finished campaign
    // leaves nothing queued.
    EXPECT_EQ(body.at("queue_depth").asNumber(), 0.0);
    EXPECT_EQ(body.at("poll").asString(), "/v1/jobs/" + id);
    EXPECT_EQ(body.at("report").asString(), "/v1/reports/" + id);

    // Unknown ids and non-campaign ids are 404s that say why.
    EXPECT_EQ(
        http.get("/v1/campaigns/campaign-does-not-exist/progress").status,
        404);
    const std::string run_id = submitAndWait(http, "/v1/runs", kRunBody);
    const HttpResponse not_campaign =
        http.get("/v1/campaigns/" + run_id + "/progress");
    EXPECT_EQ(not_campaign.status, 404);
    EXPECT_NE(not_campaign.body.find("single run"), std::string::npos)
        << not_campaign.body;
    // Malformed: no id between the prefix and the suffix.
    EXPECT_EQ(http.get("/v1/campaigns/progress").status, 404);
}

TEST_F(ServiceTest, StatsDocumentCarriesUptimeSchemaAndBuildInfo)
{
    startService();
    HttpClient http = client();
    const HttpResponse response = http.get("/v1/stats");
    ASSERT_EQ(response.status, 200);
    const json::Value body = json::Value::parse(response.body);
    EXPECT_GE(body.at("uptime_seconds").asNumber(), 0.0);
    EXPECT_EQ(body.at("schema_versions").at("campaign_report").asNumber(),
              static_cast<double>(CampaignReport::kSchemaVersion));
    EXPECT_EQ(body.at("schema_versions").at("result_store").asNumber(),
              static_cast<double>(ResultStore::kSchemaVersion));
    EXPECT_FALSE(body.at("build").at("compiler").asString().empty());
    EXPECT_TRUE(body.at("build").find("sanitizer") != nullptr);
}

TEST_F(ServiceTest, WarmRestartServesFromStoreWithoutSimulating)
{
    ServiceOptions options;
    options.store_dir = storeDir();
    startService(options);
    std::string cold_report;
    std::string id;
    {
        HttpClient http = client();
        id = submitAndWait(http, "/v1/campaigns", smokeSpecText());
        cold_report = http.get("/v1/reports/" + id).body;
    }
    const std::size_t jobs_in_campaign =
        CampaignSpec::fromJson(json::Value::parse(smokeSpecText()))
            .expandJobs()
            .size();
    stopService();

    // A brand-new service process on the same store directory: the
    // same campaign must complete from disk alone.
    startService(options);
    HttpClient http = client();
    const std::string warm_id =
        submitAndWait(http, "/v1/campaigns", smokeSpecText());
    EXPECT_EQ(warm_id, id); // deterministic campaign ids
    const HttpResponse warm_report =
        http.get("/v1/reports/" + warm_id);
    EXPECT_EQ(warm_report.body, cold_report);

    EXPECT_EQ(service_->engine().stats().misses, 0u)
        << "warm restart re-ran a simulation";
    ASSERT_NE(service_->store(), nullptr);
    EXPECT_EQ(service_->store()->stats().hits, jobs_in_campaign);
}

TEST_F(ServiceTest, TracingIsOffByDefault)
{
    startService();
    HttpClient http = client();
    const HttpResponse list = http.get("/v1/traces");
    EXPECT_EQ(list.status, 404);
    EXPECT_NE(list.body.find("tracing is disabled"), std::string::npos)
        << list.body;
    EXPECT_EQ(http.get("/v1/traces/0123456789abcdef").status, 404);

    // No ack advertises a trace that cannot be fetched.
    const HttpResponse submitted = http.post("/v1/runs", kRunBody);
    ASSERT_TRUE(submitted.status == 202 || submitted.status == 200);
    EXPECT_EQ(json::Value::parse(submitted.body).find("trace"),
              nullptr);
}

TEST_F(ServiceTest, TraceHeaderRoundTripCoversThePipeline)
{
    ServiceOptions options;
    options.tracing = true;
    options.store_dir = storeDir(); // store spans ride along
    startService(options);
    HttpClient http = client();

    const std::string trace_id = "00f00dcafe123456";
    const HttpResponse submitted = http.request(
        "POST", "/v1/runs", kRunBody, "application/json",
        {{"X-Prosperity-Trace", trace_id}});
    ASSERT_TRUE(submitted.status == 202 || submitted.status == 200)
        << submitted.body;
    const json::Value ack = json::Value::parse(submitted.body);
    // The ack links to the timeline under the id the caller supplied.
    EXPECT_EQ(ack.at("trace").asString(), "/v1/traces/" + trace_id);

    const std::string id = ack.at("id").asString();
    for (int i = 0; i < 600; ++i) {
        const HttpResponse polled = http.get("/v1/jobs/" + id);
        ASSERT_EQ(polled.status, 200) << polled.body;
        const std::string status =
            json::Value::parse(polled.body).at("status").asString();
        if (status == "done")
            break;
        ASSERT_NE(status, "failed") << polled.body;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Workers drain their span buffers before resolving the job's
    // promise, so a trace is complete as soon as a poll says "done".
    const HttpResponse trace = http.get("/v1/traces/" + trace_id);
    ASSERT_EQ(trace.status, 200) << trace.body;
    const json::Value doc = json::Value::parse(trace.body);
    std::set<std::string> cats, names;
    for (const json::Value& event : doc.at("traceEvents").asArray()) {
        if (event.at("ph").asString() != "X")
            continue;
        cats.insert(event.at("cat").asString());
        names.insert(event.at("name").asString());
        EXPECT_GE(event.at("dur").asNumber(), 0.0);
        EXPECT_EQ(event.at("args").at("trace").asString(), trace_id);
    }
    // Ingress → queue → simulate → per-layer → per-stage → store.
    for (const char* cat : {"http", "engine", "layer", "stage", "store"})
        EXPECT_EQ(cats.count(cat), 1u) << cat;
    EXPECT_EQ(names.count("POST /v1/runs"), 1u);
    EXPECT_EQ(names.count("queue_wait"), 1u);
    EXPECT_EQ(names.count("simulate"), 1u);
    EXPECT_EQ(names.count("store.publish"), 1u);
}

TEST_F(ServiceTest, TracingMintsIdsWhenNoHeaderIsSent)
{
    ServiceOptions options;
    options.tracing = true;
    startService(options);
    HttpClient http = client();

    const HttpResponse submitted = http.post("/v1/runs", kRunBody);
    ASSERT_TRUE(submitted.status == 202 || submitted.status == 200);
    const json::Value ack = json::Value::parse(submitted.body);
    const std::string link = ack.at("trace").asString();
    ASSERT_EQ(link.rfind("/v1/traces/", 0), 0u) << link;
    EXPECT_EQ(link.size(), std::string("/v1/traces/").size() + 16);

    // The ingress span is flushed when the request scope ends, before
    // the response hits the wire — fetchable immediately.
    const HttpResponse trace = http.get(link);
    ASSERT_EQ(trace.status, 200) << trace.body;
    EXPECT_NE(trace.body.find("POST /v1/runs"), std::string::npos);

    // The trace index lists it, newest first, with a fetch link.
    const HttpResponse list = http.get("/v1/traces");
    ASSERT_EQ(list.status, 200);
    const json::Value list_doc = json::Value::parse(list.body);
    const json::Value::Array& traces = list_doc.at("traces").asArray();
    ASSERT_FALSE(traces.empty());
    bool found = false;
    for (const json::Value& entry : traces) {
        EXPECT_GE(entry.at("spans").asNumber(), 1.0);
        EXPECT_GE(entry.at("duration_ms").asNumber(), 0.0);
        if (entry.at("trace").asString() == link) {
            found = true;
            EXPECT_EQ(entry.at("root").asString(), "POST /v1/runs");
        }
    }
    EXPECT_TRUE(found) << list.body;
}

TEST_F(ServiceTest, TraceRouteRejectsBadIds)
{
    ServiceOptions options;
    options.tracing = true;
    startService(options);
    HttpClient http = client();

    const HttpResponse malformed = http.get("/v1/traces/not-hex!");
    EXPECT_EQ(malformed.status, 400);
    EXPECT_NE(malformed.body.find("malformed trace id"),
              std::string::npos)
        << malformed.body;

    const HttpResponse unknown = http.get("/v1/traces/deadbeef");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_NE(unknown.body.find("no spans recorded"), std::string::npos)
        << unknown.body;
}

} // namespace
} // namespace prosperity::serve
