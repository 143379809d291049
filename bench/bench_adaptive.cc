/**
 * @file
 * bench_adaptive — seeds spent by run-until-confident sampling vs a
 * fixed seed grid.
 *
 * Runs the checked-in `adaptive_smoke` campaign twice through
 * CampaignRunner on fresh engines:
 *
 * - **adaptive**: the spec's own sampling plan — every cell draws
 *   seeds until its intervals converge or the cap fires.
 * - **fixed-grid**: the same spec with min_seeds == max_seeds, the
 *   budget a non-adaptive sweep would have to provision for every cell
 *   to match the worst cell's precision.
 *
 * Writes BENCH_adaptive.json (schema in docs/BENCHMARKS.md): per-phase
 * seed counts, wall time and per-cell outcomes, plus the headline
 * `seeds_saved_frac` = 1 - adaptive seeds / fixed-grid seeds. The two
 * phases double as a determinism check: each cell's seed-index-0
 * result must be bitwise identical across both runs.
 *
 * Usage: bench_adaptive [--quick] [--out BENCH_adaptive.json]
 *        [--threads N]
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "bench_harness.h"
#include "util/json.h"

using namespace prosperity;

namespace {

struct Phase
{
    std::string name;
    std::size_t seeds = 0;
    std::size_t cells_converged = 0;
    double seconds = 0.0;
    CampaignReport report;

    json::Value toJson() const
    {
        json::Value value = json::Value::object();
        value.set("name", name);
        value.set("seeds", seeds);
        value.set("cells", report.cells.size());
        value.set("cells_converged", cells_converged);
        value.set("seconds", seconds);
        value.set("seeds_per_sec",
                  seconds > 0.0
                      ? static_cast<double>(seeds) / seconds
                      : 0.0);
        json::Value cells = json::Value::array();
        for (const CampaignCell& cell : report.cells) {
            json::Value entry = json::Value::object();
            entry.set("accelerator",
                      report.spec.accelerators[cell.accelerator_index]
                          .label);
            entry.set("n_seeds",
                      cell.sampling ? cell.sampling->n_seeds : 1);
            entry.set("converged",
                      cell.sampling && cell.sampling->converged);
            cells.push(std::move(entry));
        }
        value.set("per_cell", std::move(cells));
        return value;
    }
};

Phase
runPhase(const std::string& name, const CampaignSpec& spec,
         std::size_t threads)
{
    EngineOptions options;
    options.threads = threads;
    SimulationEngine engine(options); // fresh: no cross-phase memo hits
    CampaignRunner runner(engine);

    Phase phase;
    phase.name = name;
    const double t0 = bench::nowNs();
    phase.report = runner.run(spec);
    phase.seconds = (bench::nowNs() - t0) * 1e-9;
    for (const CampaignCell& cell : phase.report.cells) {
        if (!cell.sampling)
            throw std::runtime_error(name + ": cell has no sampling "
                                            "outcome");
        phase.seeds += cell.sampling->n_seeds;
        if (cell.sampling->converged)
            ++phase.cells_converged;
    }
    std::cout << "  " << name << ": " << phase.seeds << " seeds over "
              << phase.report.cells.size() << " cells in "
              << phase.seconds << " s\n";
    return phase;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_adaptive.json";
    std::size_t threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else if (arg == "--threads" && i + 1 < argc)
            threads = std::stoull(argv[++i]);
        else {
            std::cerr << "usage: bench_adaptive [--quick] [--out FILE]"
                         " [--threads N]\n";
            return 2;
        }
    }

    CampaignSpec spec = loadNamedCampaign("adaptive_smoke");
    if (!spec.sampling)
        throw std::runtime_error(
            "adaptive_smoke has no sampling plan");
    if (quick)
        spec.sampling->max_seeds =
            std::min<std::size_t>(spec.sampling->max_seeds, 8);

    std::cout << "bench_adaptive: " << spec.name
              << " (eps " << spec.sampling->eps << ", cap "
              << spec.sampling->max_seeds << " seeds/cell)\n";

    const Phase adaptive = runPhase("adaptive", spec, threads);

    // The fixed grid draws the cap everywhere: the budget a
    // non-adaptive sweep must provision so its *worst* cell reaches
    // the same precision the stopping rule guarantees.
    CampaignSpec fixed = spec;
    fixed.sampling->min_seeds = fixed.sampling->max_seeds;
    const Phase grid = runPhase("fixed-grid", fixed, threads);

    for (std::size_t i = 0; i < adaptive.report.cells.size(); ++i)
        if (adaptive.report.cells[i].result.cycles !=
            grid.report.cells[i].result.cycles)
            throw std::runtime_error(
                "seed-index-0 result diverged between phases");

    const double seeds_saved_frac =
        grid.seeds > 0
            ? 1.0 - static_cast<double>(adaptive.seeds) /
                        static_cast<double>(grid.seeds)
            : 0.0;
    std::cout << "  seeds saved: " << seeds_saved_frac * 100.0
              << "% (" << adaptive.seeds << " vs " << grid.seeds
              << ")\n";

    json::Value root = json::Value::object();
    root.set("suite", "adaptive");
    root.set("schema_version", 1);
    json::Value config = json::Value::object();
    config.set("mode", quick ? "quick" : "full");
    config.set("campaign", spec.name);
    config.set("eps", spec.sampling->eps);
    config.set("alpha", spec.sampling->alpha);
    config.set("max_seeds", spec.sampling->max_seeds);
    root.set("config", std::move(config));
    json::Value cases = json::Value::array();
    cases.push(adaptive.toJson());
    cases.push(grid.toJson());
    root.set("cases", std::move(cases));
    root.set("seeds_saved_frac", seeds_saved_frac);

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    os << root.dump(2) << '\n';
    std::cout << "trajectory written to " << out_path << '\n';
    return 0;
}
