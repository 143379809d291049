#include "service.h"

#include <chrono>
#include <functional>
#include <sstream>

#include <iostream>

#include "analysis/export.h"
#include "analysis/result_json.h"
#include "bitmatrix/simd_dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snn/model_registry.h"
#include "util/build_config.h"

namespace prosperity::serve {

namespace {

/** Ready without blocking? (status poll primitive) */
template <typename T>
bool
isReady(const std::shared_future<T>& future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

/**
 * Collapse a request path to its route pattern so per-route latency
 * histograms stay a small fixed family instead of one series per id.
 */
std::string
routePattern(const std::string& path)
{
    if (path == "/metrics" || path == "/v1/registry" ||
        path == "/v1/stats" || path == "/v1/runs" ||
        path == "/v1/campaigns" || path == "/v1/traces")
        return path;
    if (path.rfind("/v1/jobs/", 0) == 0)
        return "/v1/jobs/:id";
    if (path.rfind("/v1/reports/", 0) == 0)
        return "/v1/reports/:id";
    if (path.rfind("/v1/traces/", 0) == 0)
        return "/v1/traces/:id";
    if (path.rfind("/v1/campaigns/", 0) == 0 &&
        path.size() > 14 + 9 &&
        path.compare(path.size() - 9, 9, "/progress") == 0)
        return "/v1/campaigns/:id/progress";
    return "other";
}

obs::Histogram&
routeHistogram(const std::string& route)
{
    return obs::MetricsRegistry::global().histogram(
        "prosperity_http_request_seconds",
        "Request handling latency by route pattern",
        obs::latencyBuckets(), {{"route", route}});
}

/** Service-level scrape-time gauges + admission counter. */
struct ServiceMetrics
{
    obs::Counter& admission_rejected;
    obs::Gauge& uptime_seconds;
    obs::Gauge& cache_entries;
    obs::Gauge& store_entries_on_disk;
    obs::Gauge& service_records;
    obs::Gauge& service_pending;
};

ServiceMetrics&
serviceMetrics()
{
    static ServiceMetrics metrics{
        obs::MetricsRegistry::global().counter(
            "prosperity_http_admission_rejected_total",
            "Submits rejected with 429 by the admission bound"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_uptime_seconds",
            "Seconds since the service was constructed"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_cache_entries",
            "Results held in the in-memory memo cache"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_store_entries_on_disk",
            "Complete entries in the result-store directory"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_service_records",
            "Job records the service is tracking"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_service_pending",
            "Unfinished simulations across all records"),
    };
    return metrics;
}

/** Register the `_info`-style build gauge (value always 1). */
void
registerBuildInfoGauge()
{
    const util::BuildConfig build = util::buildConfig();
    obs::MetricsRegistry::global()
        .gauge("prosperity_build_info",
               "Build/runtime configuration carried in labels; value "
               "is always 1",
               {{"compiler", build.compiler},
                {"sanitizer",
                 build.sanitizer.empty() ? "none" : build.sanitizer},
                {"simd_tier", std::string(simdTierName(activeSimdTier()))},
                {"thread_annotations",
                 !build.thread_annotations_active
                     ? "no-op"
                     : build.thread_safety_enforced ? "enforced"
                                                    : "active"}})
        .set(1.0);
}

/**
 * Stderr dump of one slow request's span timeline (the threshold-gated
 * flight-recorder tap; see ServiceOptions::slow_trace_ms). All doubles
 * are rendered through json::formatDouble so the log obeys the same
 * formatting discipline as every other output path.
 */
void
logSlowRequest(const HttpRequest& request, double elapsed_ms,
               std::uint64_t trace_id)
{
    std::ostringstream os;
    os << "[prosperity] slow request: " << request.method << ' '
       << request.path << ' ' << json::formatDouble(elapsed_ms)
       << " ms trace=" << obs::formatTraceId(trace_id) << '\n';
    const std::vector<obs::TraceSpan> spans =
        obs::TraceRecorder::global().collect(trace_id);
    const std::uint64_t base_ns =
        spans.empty() ? 0 : spans.front().start_ns;
    for (const obs::TraceSpan& span : spans) {
        const double at_ms =
            obs::elapsedSeconds(base_ns, span.start_ns) * 1e3;
        const double dur_ms =
            obs::elapsedSeconds(span.start_ns, span.end_ns) * 1e3;
        os << "  +" << json::formatDouble(at_ms) << "ms "
           << json::formatDouble(dur_ms) << "ms " << span.category
           << ' ' << span.name;
        if (!span.detail.empty())
            os << " (" << span.detail << ')';
        os << '\n';
    }
    std::cerr << os.str() << std::flush;
}

/** Append the trace link to a submit ack when the request is traced. */
json::Value
withTraceLink(json::Value ack)
{
    if (obs::traceActive())
        ack.set("trace",
                "/v1/traces/" + obs::formatTraceId(
                                    obs::currentTraceContext().trace_id));
    return ack;
}

json::Value
rosterJson(const std::vector<std::string>& names,
           const std::function<std::string(const std::string&)>& describe)
{
    json::Value roster = json::Value::array();
    for (const std::string& name : names) {
        json::Value entry = json::Value::object();
        entry.set("name", name);
        entry.set("description", describe(name));
        roster.push(std::move(entry));
    }
    return roster;
}

} // namespace

SimulationService::SimulationService(ServiceOptions options)
    : options_(options),
      store_(options.store_dir.empty()
                 ? nullptr
                 : std::make_shared<ResultStore>(options.store_dir)),
      engine_(EngineOptions{options.threads})
{
    if (store_)
        engine_.setResultCache(store_);
    registerBuildInfoGauge();
    // A slow-request threshold implies tracing (there is nothing to
    // dump otherwise). Only ever turn the recorder on: another service
    // in the same process may have enabled it first.
    if (options_.tracing || options_.slow_trace_ms > 0.0)
        obs::TraceRecorder::global().setEnabled(true);
}

std::string
SimulationService::runId(const SimulationJob& job)
{
    return "run-" + contentAddress(SimulationEngine::jobKey(job));
}

std::string
SimulationService::campaignId(const CampaignSpec& spec)
{
    // The canonical serialization covers every axis and option, so two
    // specs produce the same id exactly when they run the same
    // campaign with the same labels and metadata.
    return "campaign-" + contentAddress(spec.toJson().dump(-1));
}

HttpResponse
SimulationService::handle(const HttpRequest& request)
{
    const std::string pattern = routePattern(request.path);
    obs::ScopedTimer timer(routeHistogram(pattern));

    // Trace identity: adopt the caller's X-Prosperity-Trace id, else
    // mint one per work request. Introspection routes (/metrics and
    // the traces routes themselves) are only traced when the caller
    // asks by header, so scrape traffic never crowds the ring.
    obs::TraceContext trace_context;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        if (const std::string* header =
                request.header("x-prosperity-trace"))
            trace_context.trace_id = obs::parseTraceId(*header);
        const bool introspection = pattern == "/metrics" ||
                                   pattern == "/v1/traces" ||
                                   pattern == "/v1/traces/:id";
        if (trace_context.trace_id == 0 && !introspection)
            trace_context.trace_id = recorder.mintTraceId();
    }

    HttpResponse response;
    const std::uint64_t start_ns = obs::monotonicNanos();
    {
        obs::ScopedTraceContext trace_scope(trace_context);
        obs::ScopedSpan root("http",
                             trace_context.trace_id != 0
                                 ? request.method + ' ' + pattern
                                 : std::string());
        response = route(request);
    }
    if (options_.slow_trace_ms > 0.0 && trace_context.trace_id != 0) {
        const double elapsed_ms =
            obs::elapsedSeconds(start_ns, obs::monotonicNanos()) * 1e3;
        if (elapsed_ms >= options_.slow_trace_ms)
            logSlowRequest(request, elapsed_ms, trace_context.trace_id);
    }
    return response;
}

HttpResponse
SimulationService::route(const HttpRequest& request)
{
    try {
        const std::string& path = request.path;
        if (path == "/metrics") {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return metricsExposition();
        }
        if (path == "/v1/registry") {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return registryRosters();
        }
        if (path == "/v1/stats") {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return statsDocument();
        }
        if (path == "/v1/runs") {
            if (request.method != "POST")
                return HttpResponse::error(405, "use POST " + path);
            return submitRun(request);
        }
        if (path == "/v1/campaigns") {
            if (request.method != "POST")
                return HttpResponse::error(405, "use POST " + path);
            return submitCampaign(request);
        }
        if (path.rfind("/v1/campaigns/", 0) == 0 &&
            path.size() > 14 + 9 &&
            path.compare(path.size() - 9, 9, "/progress") == 0) {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return campaignProgress(
                path.substr(14, path.size() - 14 - 9));
        }
        if (path == "/v1/traces") {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return traceList();
        }
        if (path.rfind("/v1/traces/", 0) == 0) {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return traceDocument(path.substr(11));
        }
        if (path.rfind("/v1/jobs/", 0) == 0) {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return jobStatus(path.substr(9));
        }
        if (path.rfind("/v1/reports/", 0) == 0) {
            if (request.method != "GET")
                return HttpResponse::error(405, "use GET " + path);
            return report(path.substr(12),
                          request.queryValue("format", "json"));
        }
        return HttpResponse::error(
            404, "no route for " + request.method + ' ' + path +
                     " (routes: POST /v1/runs, POST /v1/campaigns, "
                     "GET /v1/jobs/<id>, GET /v1/reports/<id>, "
                     "GET /v1/campaigns/<id>/progress, "
                     "GET /v1/traces, GET /v1/traces/<id>, "
                     "GET /v1/registry, GET /v1/stats, GET /metrics)");
    } catch (const json::ParseError& e) {
        return HttpResponse::error(400, e.what());
    } catch (const std::invalid_argument& e) {
        return HttpResponse::error(400, e.what());
    } catch (const std::exception& e) {
        return HttpResponse::error(500, e.what());
    }
}

SimulationService::RecordStatus
SimulationService::statusOf(const JobRecord& record)
{
    // The runner stores jobs_done in job order, so until the worker
    // returns it counts the jobs that finished without error. An
    // adaptive campaign's stays 0: its cells finish together when the
    // last stopping rule fires.
    RecordStatus status;
    status.total = record.jobs;
    status.completed = record.progress->jobs_done.load();
    status.seeds_drawn = record.progress->seeds_drawn.load();
    if (isReady(record.report)) {
        try {
            (void)record.report.get();
            status.completed = status.total;
        } catch (const std::exception& e) {
            status.error = e.what();
            status.failed = true;
        }
    }
    return status;
}

json::Value
SimulationService::statusJson(const JobRecord& record,
                              const RecordStatus& status)
{
    json::Value root = json::Value::object();
    root.set("id", record.id);
    root.set("kind", record.kind);
    root.set("status", status.name());
    root.set("jobs", status.total);
    root.set("completed", status.completed);
    if (record.adaptive)
        root.set("seeds_drawn", status.seeds_drawn);
    if (status.failed)
        root.set("error", status.error);
    root.set("poll", "/v1/jobs/" + record.id);
    root.set("report", "/v1/reports/" + record.id);
    return root;
}

std::size_t
SimulationService::pendingLocked() const
{
    // An unfinished adaptive campaign's true job count is decided by
    // its stopping rule; its jobs_done stays 0, so it counts its cells
    // (the floor) and admission stays bounded.
    std::size_t pending = 0;
    for (const auto& [id, record] : records_)
        if (!isReady(record.report))
            pending += record.jobs - record.progress->jobs_done.load();
    return pending;
}

bool
SimulationService::admitLocked(std::size_t jobs,
                               HttpResponse* rejection) const
{
    const std::size_t pending = pendingLocked();
    if (pending + jobs <= options_.max_pending)
        return true;
    *rejection = HttpResponse::error(
        429, "admission queue full: " + std::to_string(pending) +
                 " simulations pending, limit " +
                 std::to_string(options_.max_pending) +
                 "; retry the identical request later (ids are "
                 "deterministic, nothing is lost)");
    return false;
}

HttpResponse
SimulationService::submitRun(const HttpRequest& request)
{
    const json::Value body = json::Value::parse(request.body);
    const SimulationJob job = simulationJobFromJson(body, "run request");

    JobRecord record;
    record.id = runId(job);
    record.kind = "run";
    record.jobs = 1;
    return admitAndStart(std::move(record), [this, job] {
        const RunResult result = engine_.run(job);
        std::ostringstream csv;
        exportRunResults(csv, {result});
        return ReportBytes{
            HttpResponse::json(200, runResultToJson(result)).body,
            csv.str()};
    });
}

HttpResponse
SimulationService::submitCampaign(const HttpRequest& request)
{
    const json::Value body = json::Value::parse(request.body);
    CampaignSpec spec = CampaignSpec::fromJson(body);
    const CampaignSpec::CampaignExpansion expansion = spec.expand();

    JobRecord record;
    record.id = campaignId(spec);
    record.kind = "campaign";
    record.adaptive = spec.sampling.has_value();
    record.jobs = expansion.jobs.size();
    record.cell_jobs.reserve(expansion.cells.size());
    for (const CampaignSpec::Cell& cell : expansion.cells)
        record.cell_jobs.push_back(cell.job_index);
    const std::shared_ptr<JobProgress> progress = record.progress;
    return admitAndStart(
        std::move(record), [this, spec = std::move(spec), progress] {
            obs::ScopedSpan span("campaign", spec.name);
            // The CLI's code path, so served reports stay
            // byte-identical to the offline report files.
            const CampaignReport report = CampaignRunner(engine_).run(
                spec, [&progress](const CampaignProgress& p) {
                    // An adaptive campaign's total is 0: it counts
                    // seeds, a fixed-seed one counts jobs.
                    (p.total > 0 ? progress->jobs_done
                                 : progress->seeds_drawn)
                        .store(p.completed);
                });
            std::ostringstream csv;
            report.writeCsv(csv);
            return ReportBytes{
                HttpResponse::json(200, report.toJson()).body,
                csv.str()};
        });
}

HttpResponse
SimulationService::admitAndStart(JobRecord record,
                                 std::function<ReportBytes()> work)
{
    const std::string id = record.id;
    util::MutexLock lock(mutex_);
    auto it = records_.find(id);
    if (it != records_.end()) {
        const RecordStatus status = statusOf(it->second);
        // Failed submissions may be retried; anything else is served
        // from the existing record (idempotent resubmit).
        if (!status.failed)
            return HttpResponse::json(200,
                                      statusJson(it->second, status));
        records_.erase(it);
    }

    HttpResponse rejection;
    if (!admitLocked(record.jobs, &rejection)) {
        ++rejected_submits_;
        serviceMetrics().admission_rejected.add();
        return rejection;
    }

    ++(record.kind == "run" ? runs_submitted_ : campaigns_submitted_);
    record.start_ns = obs::monotonicNanos();
    // The worker inherits the submitting request's trace context, so
    // every span of the job (queue, simulate, store) lands in the
    // submit's trace.
    record.report =
        std::async(std::launch::async,
                   [work = std::move(work),
                    trace_context = obs::currentTraceContext()] {
                       obs::ScopedTraceContext trace_scope(trace_context);
                       return work();
                   })
            .share();
    const auto [inserted, ok] = records_.emplace(id, std::move(record));
    (void)ok;
    return HttpResponse::json(
        202, withTraceLink(statusJson(inserted->second,
                                      statusOf(inserted->second))));
}

HttpResponse
SimulationService::jobStatus(const std::string& id) const
{
    util::MutexLock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return HttpResponse::error(404, "unknown job id \"" + id +
                                            '"');
    return HttpResponse::json(200,
                              statusJson(it->second, statusOf(it->second)));
}

HttpResponse
SimulationService::report(const std::string& id,
                          const std::string& format) const
{
    if (format != "json" && format != "csv")
        return HttpResponse::error(
            400, "unknown format \"" + format +
                     "\" (accepted: json, csv)");

    util::MutexLock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return HttpResponse::error(404, "unknown job id \"" + id + '"');
    const JobRecord& record = it->second;
    const RecordStatus status = statusOf(record);
    if (status.failed)
        return HttpResponse::error(500, record.kind + ' ' + id +
                                            " failed: " + status.error);
    if (!status.done()) {
        if (record.adaptive)
            return HttpResponse::error(
                409, record.kind + ' ' + id +
                         " is still sampling adaptively (" +
                         std::to_string(status.seeds_drawn) +
                         " seeds drawn so far); poll /v1/jobs/" + id);
        return HttpResponse::error(
            409, record.kind + ' ' + id + " is still running (" +
                     std::to_string(status.completed) + '/' +
                     std::to_string(status.total) +
                     " jobs finished); poll /v1/jobs/" + id);
    }

    // The worker rendered both bodies once; a campaign's JSON equals
    // the offline CLI's report file byte for byte.
    const ReportBytes& bytes = record.report.get();
    if (format == "csv")
        return HttpResponse::text(200, bytes.csv, "text/csv");
    return HttpResponse::text(200, bytes.json, "application/json");
}

HttpResponse
SimulationService::registryRosters() const
{
    const ModelRegistry& models = ModelRegistry::instance();
    const DatasetRegistry& datasets = DatasetRegistry::instance();
    const AcceleratorRegistry& accels = AcceleratorRegistry::instance();

    json::Value root = json::Value::object();
    root.set("accelerators",
             rosterJson(accels.names(), [&](const std::string& name) {
                 return accels.description(name);
             }));
    root.set("models",
             rosterJson(models.names(), [&](const std::string& name) {
                 return models.description(name);
             }));
    root.set("datasets",
             rosterJson(datasets.names(), [&](const std::string& name) {
                 return datasets.description(name);
             }));
    return HttpResponse::json(200, root);
}

HttpResponse
SimulationService::statsDocument() const
{
    const EngineStats engine_stats = engine_.stats();

    json::Value engine = json::Value::object();
    engine.set("threads", engine_.threads());
    engine.set("entries", engine_stats.entries);
    engine.set("hits", engine_stats.hits);
    engine.set("misses", engine_stats.misses);
    engine.set("in_flight_dedups", engine_stats.in_flight_dedups);
    engine.set("store_corrupt", engine_stats.store_corrupt);
    engine.set("store_truncated", engine_stats.store_truncated);
    engine.set("store_version_mismatch",
               engine_stats.store_version_mismatch);

    json::Value store = json::Value::object();
    store.set("enabled", static_cast<bool>(store_));
    if (store_) {
        const ResultStoreStats store_stats = store_->stats();
        store.set("dir", store_->dir());
        store.set("hits", store_stats.hits);
        store.set("misses", store_stats.misses);
        store.set("writes", store_stats.writes);
        store.set("corrupt_skipped", store_stats.corrupt_skipped);
        store.set("corrupt", store_stats.corrupt);
        store.set("truncated", store_stats.truncated);
        store.set("version_mismatch", store_stats.version_mismatch);
        store.set("entries_on_disk", store_->entriesOnDisk());
    }

    json::Value service = json::Value::object();
    {
        util::MutexLock lock(mutex_);
        service.set("records", records_.size());
        service.set("pending", pendingLocked());
        service.set("max_pending", options_.max_pending);
        service.set("runs_submitted", runs_submitted_);
        service.set("campaigns_submitted", campaigns_submitted_);
        service.set("rejected_submits", rejected_submits_);
    }

    json::Value root = json::Value::object();
    root.set("engine", std::move(engine));
    root.set("store", std::move(store));
    root.set("service", std::move(service));
    // Which kernel tier every simulation behind this server runs on
    // (tier choice never changes results, only throughput).
    root.set("simd_tier", std::string(simdTierName(activeSimdTier())));
    root.set("uptime_seconds", uptime_.elapsed());

    json::Value schema_versions = json::Value::object();
    schema_versions.set("campaign_report", CampaignReport::kSchemaVersion);
    schema_versions.set("result_store", ResultStore::kSchemaVersion);
    root.set("schema_versions", std::move(schema_versions));

    const util::BuildConfig build = util::buildConfig();
    json::Value build_json = json::Value::object();
    build_json.set("compiler", build.compiler);
    build_json.set("sanitizer",
                   build.sanitizer.empty() ? "none" : build.sanitizer);
    build_json.set("thread_annotations",
                   std::string(!build.thread_annotations_active
                                   ? "no-op"
                                   : build.thread_safety_enforced
                                         ? "enforced"
                                         : "active"));
    build_json.set("asserts_enabled", build.asserts_enabled);
    root.set("build", std::move(build_json));
    return HttpResponse::json(200, root);
}

HttpResponse
SimulationService::campaignProgress(const std::string& id) const
{
    util::MutexLock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return HttpResponse::error(404, "unknown job id \"" + id + '"');
    const JobRecord& record = it->second;
    if (record.kind != "campaign")
        return HttpResponse::error(
            404, '"' + id + "\" is a single run, not a campaign; "
                            "poll /v1/jobs/" + id + " instead");

    const RecordStatus status = statusOf(record);
    const double elapsed =
        obs::elapsedSeconds(record.start_ns, obs::monotonicNanos());

    // A cell is done when its (possibly shared) job finished without
    // error. An adaptive campaign's cells finish together when the
    // stopping rule fires; until then seeds_drawn is the live signal.
    std::size_t cells_done = 0;
    for (const std::size_t job_index : record.cell_jobs)
        if (job_index < status.completed)
            ++cells_done;

    json::Value root = json::Value::object();
    root.set("id", record.id);
    root.set("status", status.name());
    root.set("cells_total", record.cell_jobs.size());
    root.set("cells_done", cells_done);
    root.set("jobs_total", status.total);
    root.set("jobs_done", status.completed);
    // Engine-wide async backlog (all records, not just this campaign):
    // the live signal for "are my jobs waiting behind someone else".
    root.set("queue_depth", engine_.queueDepth());
    if (record.adaptive)
        root.set("seeds_drawn", status.seeds_drawn);
    root.set("elapsed_seconds", elapsed);
    // ETA by linear extrapolation over finished jobs; omitted while
    // nothing has finished (always, for an adaptive campaign: the
    // stopping rule decides the total) and once the campaign failed.
    if (status.done())
        root.set("eta_seconds", 0.0);
    else if (!status.failed && status.completed > 0)
        root.set("eta_seconds",
                 elapsed *
                     static_cast<double>(status.total - status.completed) /
                     static_cast<double>(status.completed));
    if (status.failed)
        root.set("error", status.error);
    root.set("poll", "/v1/jobs/" + record.id);
    root.set("report", "/v1/reports/" + record.id);
    return HttpResponse::json(200, root);
}

HttpResponse
SimulationService::traceList() const
{
    const obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return HttpResponse::error(
            404, "tracing is disabled; start the daemon with --trace "
                 "(or --trace-slow-ms) to record span timelines");
    json::Value traces = json::Value::array();
    for (const obs::TraceRecorder::TraceSummary& summary :
         recorder.recentTraces()) {
        json::Value entry = json::Value::object();
        const std::string id = obs::formatTraceId(summary.trace_id);
        entry.set("id", id);
        entry.set("root", summary.root);
        entry.set("spans", summary.spans);
        entry.set("duration_ms",
                  obs::elapsedSeconds(summary.start_ns,
                                      summary.end_ns) * 1e3);
        entry.set("trace", "/v1/traces/" + id);
        traces.push(std::move(entry));
    }
    json::Value root = json::Value::object();
    root.set("traces", std::move(traces));
    return HttpResponse::json(200, root);
}

HttpResponse
SimulationService::traceDocument(const std::string& id_text) const
{
    const obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return HttpResponse::error(
            404, "tracing is disabled; start the daemon with --trace "
                 "(or --trace-slow-ms) to record span timelines");
    const std::uint64_t trace_id = obs::parseTraceId(id_text);
    if (trace_id == 0)
        return HttpResponse::error(
            400, "malformed trace id \"" + id_text +
                     "\" (expected 1-16 hex digits)");
    const std::vector<obs::TraceSpan> spans =
        obs::TraceRecorder::global().collect(trace_id);
    if (spans.empty())
        return HttpResponse::error(
            404, "no spans recorded for trace " +
                     obs::formatTraceId(trace_id) +
                     " (the flight recorder keeps the most recent " +
                     std::to_string(recorder.capacity()) +
                     " spans; older traces are overwritten)");
    return HttpResponse::json(200, obs::chromeTraceJson(spans));
}

HttpResponse
SimulationService::metricsExposition() const
{
    // Refresh the scrape-time gauges before rendering: these are
    // levels, not events, so they are sampled at exposition time.
    ServiceMetrics& metrics = serviceMetrics();
    metrics.uptime_seconds.set(uptime_.elapsed());
    metrics.cache_entries.set(static_cast<double>(engine_.stats().entries));
    metrics.store_entries_on_disk.set(
        store_ ? static_cast<double>(store_->entriesOnDisk()) : 0.0);
    {
        util::MutexLock lock(mutex_);
        metrics.service_records.set(
            static_cast<double>(records_.size()));
        metrics.service_pending.set(
            static_cast<double>(pendingLocked()));
    }
    return HttpResponse::text(
        200, obs::MetricsRegistry::global().renderPrometheus(),
        "text/plain; version=0.0.4; charset=utf-8");
}

} // namespace prosperity::serve
