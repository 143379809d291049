/**
 * @file
 * SimulationService: the paper's evaluation pipeline as a JSON API.
 *
 * Maps HTTP requests onto SimulationEngine work. Every admitted run or
 * campaign runs on one worker, the way the CLI runs it, and its
 * record keeps the finished report's bytes:
 *
 * | Route                     | Meaning                                 |
 * |---------------------------|-----------------------------------------|
 * | `POST /v1/runs`           | submit one SimulationJob (JSON body)    |
 * | `POST /v1/campaigns`      | submit a full CampaignSpec              |
 * | `GET  /v1/jobs/<id>`      | poll status (pending/done/failed)       |
 * | `GET  /v1/reports/<id>`   | fetch the finished report (JSON, or CSV |
 * |                           | via `?format=csv`)                      |
 * | `GET  /v1/registry`       | accelerator / model / dataset rosters   |
 * | `GET  /v1/stats`          | engine + store + admission counters,    |
 * |                           | uptime, schema versions, build config   |
 * | `GET  /v1/campaigns/<id>/progress` | live cells-done / seeds-drawn  |
 * |                           | / ETA for a submitted campaign          |
 * | `GET  /metrics`           | Prometheus text exposition (obs/)       |
 * | `GET  /v1/traces`         | recent trace summaries (with --trace)   |
 * | `GET  /v1/traces/<id>`    | one request's span timeline as Chrome   |
 * |                           | trace-event JSON (Perfetto-loadable)    |
 *
 * Job ids are **deterministic**, derived from SimulationEngine::jobKey
 * (runs) or the canonical spec serialization (campaigns): resubmitting
 * the same work yields the same id and reuses the existing record —
 * the submit path is idempotent, which is what makes repeated traffic
 * over a fixed accelerator x workload grid nearly free. Admission is
 * bounded: submits that would push the number of unfinished
 * simulations past ServiceOptions::max_pending get `429` and lose
 * nothing (the client retries the identical request later).
 *
 * With ServiceOptions::store_dir set, a ResultStore backs the engine's
 * memo cache, so a restarted service answers previously computed
 * traffic from disk without re-running any simulation. A campaign
 * report served warm is byte-identical to the cold one (and to the
 * offline `prosperity_cli campaign` output).
 *
 * The service is transport-agnostic: handle() consumes an HttpRequest
 * and produces an HttpResponse, and the daemon wires it to an
 * HttpServer (see `prosperity_cli serve`). handle() is thread-safe.
 */

#ifndef PROSPERITY_SERVE_SERVICE_H
#define PROSPERITY_SERVE_SERVICE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "obs/clock.h"
#include "serve/http.h"
#include "serve/result_store.h"
#include "util/thread_annotations.h"

namespace prosperity::serve {

struct ServiceOptions
{
    /** Engine worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;

    /** Result-store directory; empty = in-memory caching only. */
    std::string store_dir;

    /** Admission bound: submits are rejected with 429 while this many
     *  simulations are still unfinished. */
    std::size_t max_pending = 256;

    /** Enable the span flight recorder: requests carry trace ids
     *  (minted, or adopted from `X-Prosperity-Trace`) and
     *  `GET /v1/traces/<id>` serves their Perfetto timelines. Off by
     *  default — tracing is strictly opt-in, like the CLI flags. */
    bool tracing = false;

    /** Dump the span timeline of any request slower than this many
     *  milliseconds to stderr. 0 disables the dump; a positive value
     *  implies `tracing`. */
    double slow_trace_ms = 0.0;
};

class SimulationService
{
  public:
    /** Throws std::runtime_error when store_dir cannot be opened. */
    explicit SimulationService(ServiceOptions options = {});

    SimulationService(const SimulationService&) = delete;
    SimulationService& operator=(const SimulationService&) = delete;

    /** Route one request (thread-safe; the HttpServer handler). */
    HttpResponse handle(const HttpRequest& request);

    SimulationEngine& engine() { return engine_; }
    const ResultStore* store() const { return store_.get(); }

    /** Deterministic id of a single-run job ("run-<32 hex>"). */
    static std::string runId(const SimulationJob& job);

    /** Deterministic id of a campaign ("campaign-<32 hex>"). */
    static std::string campaignId(const CampaignSpec& spec);

  private:
    /** A finished job's two served bodies, rendered once by its worker. */
    struct ReportBytes
    {
        std::string json; ///< exactly as HttpResponse::json renders it
        std::string csv;
    };

    /** Live counters a campaign worker's progress callback stores. */
    struct JobProgress
    {
        std::atomic<std::size_t> jobs_done{0};   ///< fixed-seed campaigns
        std::atomic<std::size_t> seeds_drawn{0}; ///< adaptive campaigns
    };

    /**
     * One submitted run or campaign. Its std::async worker runs the job
     * the way the CLI does (SimulationEngine::run for a run,
     * CampaignRunner::run for any campaign, fixed or adaptive) and
     * returns the report's bytes, so reads never re-serialise. The
     * worker starts only after dedup and admission, and destroying the
     * record (the last copy of its async shared_future) joins it.
     */
    struct JobRecord
    {
        std::string id;
        std::string kind;      ///< "run" or "campaign"
        bool adaptive = false; ///< a campaign with a sampling plan
        std::size_t jobs = 0;  ///< unique jobs
        std::vector<std::size_t> cell_jobs; ///< each cell's job index
        std::shared_ptr<JobProgress> progress =
            std::make_shared<JobProgress>();
        std::shared_future<ReportBytes> report;
        /** obs::monotonicNanos() at submit; feeds the progress route's
         *  elapsed/ETA fields only, never any report byte. */
        std::uint64_t start_ns = 0;
    };

    /** Poll snapshot of a record (no blocking). */
    struct RecordStatus
    {
        std::size_t total = 0;
        std::size_t completed = 0;
        std::size_t seeds_drawn = 0; ///< adaptive campaigns only
        bool failed = false;
        std::string error;

        bool done() const { return !failed && completed == total; }
        const char* name() const
        {
            return failed ? "failed" : done() ? "done" : "pending";
        }
    };

    /** Route dispatch + error mapping (handle() minus the tracing and
     *  latency envelope). */
    HttpResponse route(const HttpRequest& request);

    HttpResponse submitRun(const HttpRequest& request);
    HttpResponse submitCampaign(const HttpRequest& request);

    /**
     * The submit path both routes share, under the lock: a live record
     * with the same id answers 200 (a failed one is replaced), a full
     * admission queue 429, and neither starts a worker. Otherwise
     * `work` starts on the record's worker, inheriting the submit's
     * trace context, and the new record answers 202.
     */
    HttpResponse admitAndStart(JobRecord record,
                               std::function<ReportBytes()> work);

    HttpResponse jobStatus(const std::string& id) const;
    HttpResponse report(const std::string& id,
                        const std::string& format) const;
    HttpResponse registryRosters() const;
    HttpResponse statsDocument() const;
    HttpResponse campaignProgress(const std::string& id) const;
    HttpResponse metricsExposition() const;
    HttpResponse traceList() const;
    HttpResponse traceDocument(const std::string& id_text) const;

    static RecordStatus statusOf(const JobRecord& record);
    static json::Value statusJson(const JobRecord& record,
                                  const RecordStatus& status);

    /** Unfinished simulations across all records. */
    std::size_t pendingLocked() const REQUIRES(mutex_);

    /** 429 when admitting `jobs` more would exceed max_pending.
     *  Returns true when admission is granted. */
    bool admitLocked(std::size_t jobs, HttpResponse* rejection) const
        REQUIRES(mutex_);

    ServiceOptions options_;
    std::shared_ptr<ResultStore> store_; ///< shared with the engine
    SimulationEngine engine_;
    obs::Stopwatch uptime_; ///< daemon age for /v1/stats + /metrics

    mutable util::Mutex mutex_;
    /** Declared after engine_, so destroyed first: destroying a record
     *  joins its worker, which waits on the engine. */
    std::map<std::string, JobRecord> records_ GUARDED_BY(mutex_);
    std::size_t runs_submitted_ GUARDED_BY(mutex_) = 0;
    std::size_t campaigns_submitted_ GUARDED_BY(mutex_) = 0;
    std::size_t rejected_submits_ GUARDED_BY(mutex_) = 0;
};

} // namespace prosperity::serve

#endif // PROSPERITY_SERVE_SERVICE_H
