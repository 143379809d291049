#include "engine.h"

#include <algorithm>
#include <charconv>
#include <exception>
#include <iterator>
#include <thread>

#include "gen/spike_generator.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prosperity {

namespace {

/**
 * Engine instruments, resolved once against the global registry.
 * Recording only accumulates into preallocated atomics; nothing reads
 * these values back into the engine, so simulation output is
 * provably independent of them (see docs/OBSERVABILITY.md).
 */
struct EngineMetrics
{
    obs::Counter& jobs_simulated;
    obs::Counter& jobs_memo_hit;
    obs::Counter& jobs_store_hit;
    obs::Counter& jobs_inflight_dedup;
    obs::Histogram& queue_wait;
    obs::Histogram& simulate_seconds;
    obs::Gauge& queue_depth;
    obs::Gauge& in_flight;
    obs::Gauge& threads;
};

EngineMetrics&
engineMetrics()
{
    static constexpr const char* kJobsName = "prosperity_engine_jobs_total";
    static constexpr const char* kJobsHelp =
        "Engine jobs by outcome (simulated, memo_hit, store_hit, "
        "inflight_dedup)";
    static EngineMetrics metrics{
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "simulated"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "memo_hit"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "store_hit"}}),
        obs::MetricsRegistry::global().counter(
            kJobsName, kJobsHelp, {{"outcome", "inflight_dedup"}}),
        obs::MetricsRegistry::global().histogram(
            "prosperity_engine_queue_wait_seconds",
            "Async submit(): enqueue to worker dequeue",
            obs::latencyBuckets()),
        obs::MetricsRegistry::global().histogram(
            "prosperity_engine_simulate_seconds",
            "Wall time of one simulated lineup (sum == busy seconds)",
            obs::latencyBuckets()),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_queue_depth",
            "Async tasks enqueued but not yet claimed by a worker"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_in_flight",
            "Lineups currently simulating"),
        obs::MetricsRegistry::global().gauge(
            "prosperity_engine_threads",
            "Configured worker-pool size"),
    };
    return metrics;
}

} // namespace

SimulationEngine::SimulationEngine(EngineOptions options)
    : options_(options)
{
    if (options_.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        options_.threads = hw == 0 ? 1 : hw;
    }
    engineMetrics().threads.set(static_cast<double>(options_.threads));
}

SimulationEngine::~SimulationEngine()
{
    // Detach the pool under the lock, join outside it: workers need
    // mutex_ to drain, and joined threads can't touch workers_ again.
    std::vector<std::thread> workers;
    {
        util::MutexLock lock(mutex_);
        stopping_ = true;
        workers.swap(workers_);
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers)
        worker.join();
}

namespace {

/** Append `value` as printf's "%.17g" writes it, in any locale. */
void
appendDouble(std::string& out, double value)
{
    char text[32]; // "%.17g" needs at most 24
    const std::to_chars_result end =
        std::to_chars(text, text + sizeof text, value,
                      std::chars_format::general, 17);
    out.append(text, end.ptr);
}

/**
 * Canonical identity of the (workload, options) half of a job, the
 * memoization key's tail.
 */
std::string
workloadKey(const SimulationJob& job)
{
    // The workload name covers (model, dataset); the profile fields
    // cover user-customized activation statistics on top of it.
    const ActivationProfile& p = job.workload.profile;
    std::string key = job.workload.name();
    key += '|';
    appendDouble(key, p.bit_density);
    key += ',';
    appendDouble(key, p.cluster_fraction);
    key += ',' + std::to_string(p.bank_size);
    for (const double value : {p.subset_drop_prob, p.temporal_repeat,
                               p.union_prob, p.noise_insert_prob}) {
        key += ',';
        appendDouble(key, value);
    }
    key += '|' + std::to_string(job.options.seed) + '|';
    key += job.options.keep_layer_records ? '1' : '0';
    return key;
}

/** The design half of a job's memoization key. */
std::string
designKey(const AcceleratorSpec& spec)
{
    // The registry resolves names case-insensitively; normalize so
    // "PTB" and "ptb" dedupe and memoize as the same design.
    return AcceleratorRegistry::canonicalName(spec.name) + '{' +
           spec.params.fingerprint() + '}';
}

/**
 * Which lineup a job may join: the spike stream its workload draws
 * (spikeStreamKey) plus keep_layer_records, since a lineup runs one
 * RunOptions. Jobs sharing it run as one runWorkloadOnAll lineup that
 * generates each layer's spikes once, also across workloads (SpikeBERT
 * on SST-2, MR and SST-5). A workload that cannot be lowered, such as
 * an unregistered model or dataset, is keyed by its name instead: it
 * runs in a lineup of its own, whose lowering throws the error into
 * its own futures only.
 */
std::string
lineupKey(const SimulationJob& job, const std::string& workload_key)
{
    ModelSpec model;
    try {
        model = job.workload.buildModel();
    } catch (...) {
        return "workload|" + workload_key;
    }
    return "stream|" + std::to_string(job.options.keep_layer_records) +
           '|' +
           spikeStreamKey(model, job.workload.profile, job.options.seed);
}

} // namespace

std::string
SimulationEngine::jobKey(const SimulationJob& job)
{
    return designKey(job.accelerator) + '|' + workloadKey(job);
}

RunResult
SimulationEngine::run(const SimulationJob& job)
{
    return submit(job).get();
}

void
SimulationEngine::ensureWorkersLocked()
{
    if (!workers_.empty())
        return;
    workers_.reserve(options_.threads);
    for (std::size_t w = 0; w < options_.threads; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

void
SimulationEngine::workerLoop()
{
    for (;;) {
        std::vector<AsyncTask> claimed;
        {
            util::UniqueLock lock(mutex_);
            while (!stopping_ && queue_.empty())
                queue_cv_.wait(lock);
            // On shutdown, drain the queue first: every accepted
            // submit() still gets its result.
            if (queue_.empty())
                return;
            // Claim the front task and every queued task sharing its
            // lineup key; the rest keep their order.
            const std::string lead = queue_.front().lineup_key;
            const auto rest = std::stable_partition(
                queue_.begin(), queue_.end(), [&](const AsyncTask& task) {
                    return task.lineup_key == lead;
                });
            claimed.assign(std::make_move_iterator(queue_.begin()),
                           std::make_move_iterator(rest));
            queue_.erase(queue_.begin(), rest);
        }
        runLineup(claimed);
    }
}

void
SimulationEngine::runLineup(std::vector<AsyncTask>& tasks)
{
    EngineMetrics& metrics = engineMetrics();
    metrics.queue_depth.sub(static_cast<double>(tasks.size()));
    const std::uint64_t dequeued_ns = obs::monotonicNanos();
    std::shared_ptr<ResultCache> second_level;
    {
        util::MutexLock lock(mutex_);
        second_level = second_level_;
    }

    // Each task ends with a result (from the store, or simulated) or
    // an error; `simulated` lists the tasks that both cache levels
    // missed, in lineup order.
    std::vector<RunResult> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    std::vector<bool> stored(tasks.size(), false);
    std::vector<std::size_t> simulated;
    std::vector<std::vector<std::promise<RunResult>>> waiters(tasks.size());
    {
        // A lineup shares one trace id; the lead's context hosts the
        // shared spans. The scope ends (and the span buffer drains)
        // before any promise resolves, so a client that just observed
        // "done" can already collect the full trace.
        obs::ScopedTraceContext trace_scope(tasks.front().trace_context);

        std::vector<std::unique_ptr<Accelerator>> owned;
        std::vector<Accelerator*> lineup;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const AsyncTask& task = tasks[i];
            metrics.queue_wait.observe(
                obs::elapsedSeconds(task.enqueued_ns, dequeued_ns));
            {
                obs::ScopedTraceContext task_scope(task.trace_context);
                obs::emitSpan("engine", "queue_wait", task.enqueued_ns,
                              dequeued_ns);
            }
            try {
                // The memory cache missed at submit time; the
                // second-level cache (e.g. the on-disk ResultStore)
                // gets its chance here, off the caller's thread.
                if (second_level &&
                    second_level->fetch(task.key, &results[i])) {
                    stored[i] = true;
                    metrics.jobs_store_hit.add();
                    continue;
                }
                owned.push_back(AcceleratorRegistry::instance().create(
                    task.job.accelerator.name, task.job.accelerator.params));
                lineup.push_back(owned.back().get());
                simulated.push_back(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }

        if (!lineup.empty()) {
            std::vector<const Workload*> workloads;
            for (const std::size_t i : simulated)
                workloads.push_back(&tasks[i].job.workload);
            obs::GaugeGuard busy(metrics.in_flight);
            obs::ScopedSpan span("engine", "simulate");
            if (span.active()) {
                // Each workload of the lineup once, in lineup order.
                std::vector<std::string> names;
                std::string detail;
                for (const Workload* workload : workloads) {
                    const std::string name = workload->name();
                    if (std::find(names.begin(), names.end(), name) !=
                        names.end())
                        continue;
                    detail += names.empty() ? name : ", " + name;
                    names.push_back(name);
                }
                span.setDetail(detail + " x" +
                               std::to_string(lineup.size()));
            }
            const std::uint64_t start_ns = obs::monotonicNanos();
            try {
                std::vector<RunResult> computed = runWorkloadOnAll(
                    lineup, workloads, tasks[simulated.front()].job.options);
                for (std::size_t k = 0; k < simulated.size(); ++k)
                    results[simulated[k]] = std::move(computed[k]);
                metrics.simulate_seconds.observe(obs::elapsedSeconds(
                    start_ns, obs::monotonicNanos()));
                metrics.jobs_simulated.add(lineup.size());
            } catch (...) {
                for (const std::size_t i : simulated)
                    errors[i] = std::current_exception();
            }
        }

        {
            util::MutexLock lock(mutex_);
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                const auto it = inflight_.find(tasks[i].key);
                if (it != inflight_.end()) {
                    waiters[i] = std::move(it->second);
                    inflight_.erase(it);
                }
                if (errors[i])
                    continue;
                cache_.emplace(tasks[i].key, results[i]);
                if (stored[i])
                    ++cache_hits_;
                else
                    ++cache_misses_;
            }
        }
        for (const std::size_t i : simulated) {
            if (!second_level || errors[i])
                continue;
            try {
                second_level->publish(tasks[i].key, results[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    }

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (std::promise<RunResult>& waiter : waiters[i]) {
            if (errors[i])
                waiter.set_exception(errors[i]);
            else
                waiter.set_value(results[i]);
        }
        if (errors[i])
            tasks[i].promise.set_exception(errors[i]);
        else
            tasks[i].promise.set_value(std::move(results[i]));
    }
}

std::future<RunResult>
SimulationEngine::submit(const SimulationJob& job)
{
    return std::move(submit(std::vector<SimulationJob>{job}).front());
}

std::vector<std::future<RunResult>>
SimulationEngine::submit(const std::vector<SimulationJob>& jobs)
{
    // Keys are built before the lock, and each distinct (workload,
    // options) of the batch is lowered once for its lineup key. The
    // lineup key adds the submitter's trace id, so traced requests
    // never share a lineup.
    const obs::TraceContext trace_context = obs::currentTraceContext();
    std::vector<std::string> keys;
    std::vector<std::string> lineup_keys;
    keys.reserve(jobs.size());
    lineup_keys.reserve(jobs.size());
    std::map<std::string, std::string> lineup_of;
    for (const SimulationJob& job : jobs) {
        const std::string workload_key = workloadKey(job);
        keys.push_back(designKey(job.accelerator) + '|' + workload_key);
        const auto [lineup, fresh] = lineup_of.try_emplace(workload_key);
        if (fresh)
            lineup->second = lineupKey(job, workload_key) + '#' +
                             std::to_string(trace_context.trace_id);
        lineup_keys.push_back(lineup->second);
    }

    EngineMetrics& metrics = engineMetrics();
    std::vector<std::future<RunResult>> futures;
    futures.reserve(jobs.size());
    bool enqueued = false;
    {
        util::MutexLock lock(mutex_);
        const std::uint64_t enqueued_ns = obs::monotonicNanos();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::promise<RunResult> promise;
            futures.push_back(promise.get_future());
            const auto cached = cache_.find(keys[i]);
            if (cached != cache_.end()) {
                ++cache_hits_;
                metrics.jobs_memo_hit.add();
                promise.set_value(cached->second);
                continue;
            }
            const auto [computing, fresh] = inflight_.try_emplace(keys[i]);
            if (!fresh) {
                ++inflight_dedups_;
                metrics.jobs_inflight_dedup.add();
                computing->second.push_back(std::move(promise));
                continue;
            }
            queue_.push_back(AsyncTask{jobs[i], std::move(keys[i]),
                                       std::move(lineup_keys[i]),
                                       std::move(promise), enqueued_ns,
                                       trace_context});
            metrics.queue_depth.add(1.0);
            enqueued = true;
        }
        if (enqueued)
            ensureWorkersLocked();
    }
    if (enqueued)
        queue_cv_.notify_all();
    return futures;
}

std::vector<RunResult>
SimulationEngine::runBatch(const std::vector<SimulationJob>& jobs)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    // Validate every design point up front so a typo fails fast instead
    // of surfacing from a future mid-batch.
    for (const SimulationJob& job : jobs)
        if (!registry.contains(job.accelerator.name))
            registry.create(job.accelerator.name); // throws with details

    std::vector<std::future<RunResult>> futures = submit(jobs);
    std::vector<RunResult> results;
    results.reserve(futures.size());
    for (std::future<RunResult>& future : futures)
        results.push_back(future.get());
    return results;
}

std::vector<std::vector<RunResult>>
SimulationEngine::runGrid(const std::vector<AcceleratorSpec>& accelerators,
                          const std::vector<Workload>& workloads,
                          const RunOptions& options)
{
    std::vector<SimulationJob> jobs;
    jobs.reserve(accelerators.size() * workloads.size());
    for (const Workload& workload : workloads)
        for (const AcceleratorSpec& spec : accelerators)
            jobs.push_back(SimulationJob{spec, workload, options});

    const std::vector<RunResult> flat = runBatch(jobs);
    std::vector<std::vector<RunResult>> grid(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w)
        grid[w].assign(
            flat.begin() + static_cast<std::ptrdiff_t>(
                               w * accelerators.size()),
            flat.begin() + static_cast<std::ptrdiff_t>(
                               (w + 1) * accelerators.size()));
    return grid;
}

std::size_t
SimulationEngine::queueDepth() const
{
    util::MutexLock lock(mutex_);
    return queue_.size();
}

EngineStats
SimulationEngine::stats() const
{
    std::shared_ptr<ResultCache> second_level;
    EngineStats stats;
    {
        util::MutexLock lock(mutex_);
        stats.entries = cache_.size();
        stats.hits = cache_hits_;
        stats.misses = cache_misses_;
        stats.in_flight_dedups = inflight_dedups_;
        second_level = second_level_;
    }
    // health() outside mutex_: implementations take their own lock and
    // may be mid-fetch on a worker that also wants mutex_.
    if (second_level) {
        const ResultCacheHealth health = second_level->health();
        stats.store_corrupt = health.corrupt;
        stats.store_truncated = health.truncated;
        stats.store_version_mismatch = health.version_mismatch;
    }
    return stats;
}

void
SimulationEngine::setResultCache(std::shared_ptr<ResultCache> cache)
{
    util::MutexLock lock(mutex_);
    second_level_ = std::move(cache);
}

void
SimulationEngine::clearCache()
{
    util::MutexLock lock(mutex_);
    cache_.clear();
}

} // namespace prosperity
