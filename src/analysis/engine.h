/**
 * @file
 * Session-based simulation engine: whole-campaign simulation as a
 * first-class operation.
 *
 * A SimulationJob names an accelerator (registry name + params) and a
 * workload; the engine executes jobs on a persistent std::thread pool
 * and memoizes per-(accelerator config, workload, options) results.
 * Queued jobs whose workloads draw the same spike stream (the same
 * generator inputs at every layer, whatever their workload names) run
 * as one lineup, so each layer's spike matrix is generated and
 * tile-summarised once for all of them. Because
 * every job builds its own accelerator through the AcceleratorRegistry
 * and the layer API returns results by value, jobs share no mutable
 * state — results are bitwise identical whatever the thread count, and
 * batch order in equals result order out.
 *
 * Campaigns (CampaignRunner), the CLI and the daemon are thin loops
 * over this engine.
 */

#ifndef PROSPERITY_ANALYSIS_ENGINE_H
#define PROSPERITY_ANALYSIS_ENGINE_H

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.h"
#include "arch/registry.h"
#include "obs/trace.h"
#include "snn/workload.h"
#include "util/thread_annotations.h"

namespace prosperity {

/** A design point: registry name plus factory parameters. */
struct AcceleratorSpec
{
    std::string name;          ///< AcceleratorRegistry name
    AcceleratorParams params;  ///< per-design knobs (may be empty)

    AcceleratorSpec() = default;
    explicit AcceleratorSpec(std::string n) : name(std::move(n)) {}
    AcceleratorSpec(std::string n, AcceleratorParams p)
        : name(std::move(n)), params(std::move(p))
    {
    }
};

/** One unit of simulation work: a design point on a workload. */
struct SimulationJob
{
    AcceleratorSpec accelerator;
    Workload workload;
    RunOptions options;
};

/** Engine configuration. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;
};

/**
 * Pluggable second-level result cache behind the in-memory memo cache
 * (implemented by serve::ResultStore for on-disk persistence). The
 * engine consults it only after a memory miss and publishes every
 * freshly simulated result to it. Implementations must be thread-safe:
 * the engine calls from its worker threads concurrently. fetch() must
 * treat any unreadable entry as a miss — a second-level cache failure
 * must degrade to recomputation, never to an engine error.
 */
/**
 * Defect counters of a second-level ResultCache: entries it declined
 * to trust, by failure class. All three are misses from the engine's
 * point of view; the split exists so operators can tell "disk is
 * rotting" (corrupt), "a writer died mid-publish or the file was cut
 * short" (truncated) and "the store was written by another schema
 * rev" (version_mismatch) apart.
 */
struct ResultCacheHealth
{
    std::size_t corrupt = 0;   ///< parsed/validated wrong (not truncation)
    std::size_t truncated = 0; ///< entry text cut short (no closing brace)
    std::size_t version_mismatch = 0; ///< schema_version != current
};

class ResultCache
{
  public:
    virtual ~ResultCache() = default;

    /** Look up `key`; on a hit write the result to `*out` and return
     *  true. */
    virtual bool fetch(const std::string& key, RunResult* out) = 0;

    /** Persist a freshly computed result under `key`. */
    virtual void publish(const std::string& key,
                         const RunResult& result) = 0;

    /** Defect counters since construction; default: a cache with no
     *  failure classes to report. Thread-safe like fetch/publish. */
    virtual ResultCacheHealth health() const { return {}; }
};

/** Memoization counters, a snapshot of SimulationEngine::stats(). */
struct EngineStats
{
    /** Results currently held in the in-memory cache. */
    std::size_t entries = 0;

    /** Jobs served without running a simulation: from the memory
     *  cache, or from the second-level ResultCache. */
    std::size_t hits = 0;

    /** Simulations actually executed (every one implies a miss in
     *  both cache levels). */
    std::size_t misses = 0;

    /** Submitted jobs that piggybacked on a queued or running
     *  computation of the same key instead of enqueueing their own. */
    std::size_t in_flight_dedups = 0;

    /** Second-level ResultCache defect counters (all zero when no
     *  second level is installed); see ResultCacheHealth. */
    std::size_t store_corrupt = 0;
    std::size_t store_truncated = 0;
    std::size_t store_version_mismatch = 0;
};

/**
 * Executes simulation jobs on one persistent worker pool with
 * deterministic result ordering and cross-call memoization.
 * Thread-safe: a single engine may be shared, and its cache persists
 * across calls. submit() is the only executor; run, runBatch and
 * runGrid submit and wait.
 *
 * @par Memoization key
 * Results are cached under the canonical string
 * `canonical accelerator name {params fingerprint} | workload name |
 * activation-profile fields | run options (seed, keep_layer_records)`
 * (see jobKey). Two jobs are "the
 * same simulation" exactly when those components match; anything not
 * in the key (thread count, batch composition, submission order) must
 * not — and does not — affect the result.
 *
 * @par Lineups
 * A worker that dequeues a task also claims every queued task with
 * the same lineup key and runs the ones both cache levels miss as one
 * runWorkloadOnAll lineup. The lineup key is the spike stream the
 * job's workload draws (spikeStreamKey: profile, seed, and each layer
 * position's generator inputs), keep_layer_records, and the
 * submitter's trace id, so traced requests never share a lineup.
 * Workloads that lower to the same spiking layers, such as SpikeBERT
 * on SST-2, MR and SST-5, therefore share one lineup while each design
 * runs its own workload's layers. submit() lowers each distinct
 * workload of a batch once to build the key; a workload that cannot
 * be lowered gets a lineup of its own, keyed by its name. Factory and
 * lowering errors, cache hits and results stay per task.
 *
 * @par Thread-count independence
 * Every job constructs its own Accelerator through the registry and
 * spike generation draws from per-(seed, layer) streams, so neither
 * the lineup a job lands in nor the worker that runs it can change
 * its result. runBatch(jobs) therefore returns bitwise-identical
 * results for any EngineOptions::threads value, including 1 — pinned
 * by tests/test_engine.cc.
 */
class SimulationEngine
{
  public:
    explicit SimulationEngine(EngineOptions options = {});

    /**
     * Joins the worker pool. Tasks already submitted are finished
     * first (their futures stay valid); destroying the engine never
     * breaks an outstanding promise.
     */
    ~SimulationEngine();

    SimulationEngine(const SimulationEngine&) = delete;
    SimulationEngine& operator=(const SimulationEngine&) = delete;

    /** Run a single job: submit(job).get(). */
    RunResult run(const SimulationJob& job);

    /**
     * Asynchronous submission: enqueue `job` on the engine's
     * persistent worker pool (EngineOptions::threads workers, started
     * lazily) and return a future for its result.
     *
     * A submit whose key is already cached returns an immediately-
     * ready future and counts as a cache hit; a submit whose key is
     * queued or running piggybacks on that computation (simulated
     * once, not counted as a hit); freshly computed results are cached
     * for later calls. Errors — unknown accelerator names, bad
     * parameters, unregistered models or datasets — surface from
     * future::get(), not from submit() itself.
     */
    std::future<RunResult> submit(const SimulationJob& job);

    /**
     * Submit a batch under one lock: no worker sees part of it, so its
     * jobs group into lineups the same way on every run. futures[i]
     * belongs to jobs[i].
     */
    std::vector<std::future<RunResult>> submit(
        const std::vector<SimulationJob>& jobs);

    /**
     * Submit all jobs and wait for them. results[i] always corresponds
     * to jobs[i]; duplicate jobs are simulated once. Throws
     * std::invalid_argument before submitting anything if a job names
     * an unregistered accelerator.
     */
    std::vector<RunResult> runBatch(const std::vector<SimulationJob>& jobs);

    /**
     * Cross-product convenience: returns one row per workload, one
     * column per accelerator spec, all submitted as a single batch.
     */
    std::vector<std::vector<RunResult>> runGrid(
        const std::vector<AcceleratorSpec>& accelerators,
        const std::vector<Workload>& workloads,
        const RunOptions& options = {});

    /** All memoization counters in one consistent snapshot. */
    EngineStats stats() const;

    /** Configured worker-pool size (resolved, never 0). */
    std::size_t threads() const { return options_.threads; }

    /** Tasks enqueued but not yet claimed by a worker. */
    std::size_t queueDepth() const;

    /**
     * Install (or clear, with nullptr) the second-level result cache.
     * Takes effect for tasks claimed afterwards; typically set once
     * right after construction. The engine shares ownership, so the
     * backing store outlives any in-flight workers.
     */
    void setResultCache(std::shared_ptr<ResultCache> cache);

    void clearCache();

    /**
     * Canonical memoization key of a job (see the class comment).
     * Public so campaign-level code can deduplicate jobs under exactly
     * the engine's notion of "the same simulation".
     *
     * Its bytes are frozen: they name ResultStore entries, make the
     * daemon's run ids (contentAddress(jobKey)) and seed adaptive
     * campaigns' substreams (stats::deriveSubstreamSeed), so a changed
     * byte would orphan every store, move every run id and redraw
     * every adaptive cell. Doubles are written as printf's "%.17g"
     * (std::to_chars), whatever the process's global locale.
     */
    static std::string jobKey(const SimulationJob& job);

  private:
    /** One queued job: its keys, and the caller's promise. */
    struct AsyncTask
    {
        SimulationJob job;
        std::string key;
        /** Tasks with equal lineup keys may run as one lineup (see
         *  the class comment). */
        std::string lineup_key;
        std::promise<RunResult> promise;
        /** obs::monotonicNanos() at enqueue; feeds the queue-wait
         *  histogram and nothing else (results never depend on it). */
        std::uint64_t enqueued_ns = 0;
        /** Submitter's trace context, re-installed on the worker so
         *  queue/simulate/store spans join the caller's trace. */
        obs::TraceContext trace_context;
    };

    /** Start the worker pool if needed. */
    void ensureWorkersLocked() REQUIRES(mutex_);
    void workerLoop() EXCLUDES(mutex_);
    /** Simulate one claimed lineup and resolve its tasks' promises. */
    void runLineup(std::vector<AsyncTask>& tasks) EXCLUDES(mutex_);

    EngineOptions options_;
    mutable util::Mutex mutex_;
    std::map<std::string, RunResult> cache_ GUARDED_BY(mutex_);
    std::size_t cache_hits_ GUARDED_BY(mutex_) = 0;
    std::size_t cache_misses_ GUARDED_BY(mutex_) = 0;
    std::size_t inflight_dedups_ GUARDED_BY(mutex_) = 0;
    std::shared_ptr<ResultCache> second_level_ GUARDED_BY(mutex_);

    std::deque<AsyncTask> queue_ GUARDED_BY(mutex_);
    /** Keys queued or running -> promises of piggybacked submits
     *  waiting for that computation. */
    std::map<std::string, std::vector<std::promise<RunResult>>>
        inflight_ GUARDED_BY(mutex_);
    std::vector<std::thread> workers_ GUARDED_BY(mutex_);
    util::CondVar queue_cv_;
    bool stopping_ GUARDED_BY(mutex_) = false;
};

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_ENGINE_H
