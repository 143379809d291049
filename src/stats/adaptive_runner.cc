#include "adaptive_runner.h"

#include <future>
#include <utility>

namespace prosperity::stats {

namespace {

std::uint64_t
fnv1a64(const std::string& text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Seeds a cell draws in its next batch: the full minimum up front,
 *  then ~50% growth per round, never past the cap. Growth keeps round
 *  count logarithmic (parallelism-friendly) while bounding overshoot
 *  past the true stopping point to half the seeds drawn so far. */
std::size_t
nextBatchSize(std::size_t drawn, const SamplingPlan& plan)
{
    if (drawn >= plan.max_seeds)
        return 0;
    const std::size_t want =
        drawn == 0 ? plan.min_seeds
                   : (drawn + 1) / 2; // ceil(drawn / 2), >= 1
    const std::size_t room = plan.max_seeds - drawn;
    return want < room ? want : room;
}

/** Sampling state of one in-flight cell. */
struct Cell
{
    const SimulationJob* base;
    std::string key;
    CellTracker tracker;
    RunResult first;
    bool done = false;

    Cell(const SimulationJob& job, const StoppingRule& rule)
        : base(&job), key(SimulationEngine::jobKey(job)), tracker(rule)
    {
    }
};

} // namespace

std::uint64_t
deriveSubstreamSeed(const std::string& job_key, std::uint64_t base_seed,
                    std::size_t index)
{
    if (index == 0)
        return base_seed;
    const std::uint64_t mixed =
        splitmix64(fnv1a64(job_key) ^
                   splitmix64(base_seed + static_cast<std::uint64_t>(index)));
    return mixed & ((std::uint64_t{1} << 53) - 1);
}

std::vector<AdaptiveCellOutcome>
runAdaptive(SimulationEngine& engine,
            const std::vector<SimulationJob>& jobs,
            const SamplingPlan& plan,
            const AdaptiveProgressCallback& progress)
{
    const StoppingRule rule(plan, jobs.size() * plan.metrics.size());

    std::vector<Cell> cells;
    cells.reserve(jobs.size());
    for (const SimulationJob& job : jobs)
        cells.emplace_back(job, rule);

    std::size_t total_seeds = 0;
    bool any_active = !cells.empty();
    while (any_active) {
        // Submit this round's seeds for every unfinished cell as one
        // batch, so they spread across the engine's whole pool ...
        struct Pending
        {
            std::size_t cell;
            std::size_t seed_index;
        };
        std::vector<Pending> pending;
        std::vector<SimulationJob> round;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            Cell& cell = cells[c];
            if (cell.done)
                continue;
            const std::size_t drawn = cell.tracker.seedsDrawn();
            const std::size_t batch = nextBatchSize(drawn, plan);
            for (std::size_t j = 0; j < batch; ++j) {
                const std::size_t seed_index = drawn + j;
                SimulationJob job = *cell.base;
                job.options.seed = deriveSubstreamSeed(
                    cell.key, cell.base->options.seed, seed_index);
                pending.push_back({c, seed_index});
                round.push_back(std::move(job));
            }
        }
        std::vector<std::future<RunResult>> futures = engine.submit(round);

        // ... then append results strictly in (cell, seed index) order:
        // accumulator state, checkpoint snapshots and the upcoming
        // stopping decisions never depend on completion order.
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const Pending& p = pending[i];
            Cell& cell = cells[p.cell];
            RunResult result = futures[i].get();
            if (p.seed_index == 0)
                cell.first = result;
            cell.tracker.append(result);
            ++total_seeds;
            if (progress) {
                AdaptiveProgress update;
                update.job_index = p.cell;
                update.total_jobs = cells.size();
                update.seeds_drawn = cell.tracker.seedsDrawn();
                update.total_seeds = total_seeds;
                update.job = cell.base;
                update.result = &result;
                progress(update);
            }
        }

        any_active = false;
        for (Cell& cell : cells) {
            if (!cell.done)
                cell.done = cell.tracker.done();
            if (!cell.done)
                any_active = true;
        }
    }

    std::vector<AdaptiveCellOutcome> outcomes;
    outcomes.reserve(cells.size());
    for (Cell& cell : cells) {
        AdaptiveCellOutcome outcome;
        outcome.first = std::move(cell.first);
        outcome.sampling = cell.tracker.summary();
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace prosperity::stats
