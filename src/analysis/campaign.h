/**
 * @file
 * Declarative experiment campaigns: an experiment is *data*, not a
 * hand-written main().
 *
 * A CampaignSpec names sweep axes — accelerator design points,
 * workloads, run options — and how to combine them (cross product or
 * zip). It expands deterministically into duplicate-free
 * SimulationJobs, loads from JSON (campaigns/<name>.json), serializes
 * back to it with toJson(), and compares equal after a serialize/parse
 * round trip. A CampaignRunner executes a spec through
 * SimulationEngine::submit so long campaigns stream per-job progress,
 * and produces a CampaignReport: every cell's RunResult plus derived
 * speedup / energy-efficiency tables normalized to the spec's baseline
 * accelerator, serializable to JSON and CSV.
 *
 * The paper's figures and tables (Fig. 8, Fig. 9, Table I, Table IV,
 * scalability) are checked-in specs; `prosperity_cli campaign <name>`
 * prints their derived tables, and tests/golden/FIDELITY.json scores
 * the golden reports against the paper's numbers (tests/test_fidelity.cc).
 * Adding a scenario means writing a JSON file, not a C++ binary:
 *
 * @code
 *   SimulationEngine engine;
 *   CampaignRunner runner(engine);
 *   const CampaignSpec spec = CampaignSpec::load("campaigns/fig8.json");
 *   const CampaignReport report = runner.run(spec);
 *   report.writeJsonFile("reports/fig8.report.json");
 * @endcode
 */

#ifndef PROSPERITY_ANALYSIS_CAMPAIGN_H
#define PROSPERITY_ANALYSIS_CAMPAIGN_H

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "sim/table.h"
#include "stats/sampling_plan.h"
#include "stats/stopping.h"
#include "util/json.h"

namespace prosperity {

/** One labeled design point on a campaign's accelerator axis. The
 *  label is the column name in derived tables and must be unique
 *  within a spec (two ablation variants of one design need distinct
 *  labels). */
struct CampaignAccelerator
{
    std::string label;
    AcceleratorSpec spec;
};

/**
 * A declarative experiment: named sweep axes plus an expansion rule.
 *
 * Expansion semantics (see expand()):
 * - **kCross** — every (option, workload, accelerator) combination,
 *   options outermost and accelerators innermost. With a single
 *   option set this is exactly SimulationEngine::runGrid's order: one
 *   row per workload, one column per accelerator.
 * - **kZip** — axes advance together. Every axis must have length n
 *   or length 1 (length-1 axes broadcast); job i combines element i
 *   of each axis.
 *
 * An empty `options` axis means one default-constructed RunOptions.
 */
struct CampaignSpec
{
    enum class Expansion { kCross, kZip };

    std::string name;
    std::string description;
    Expansion expansion = Expansion::kCross;
    /** Label of the accelerator derived tables normalize to; "" means
     *  the first accelerator. */
    std::string baseline;
    std::vector<CampaignAccelerator> accelerators;
    std::vector<Workload> workloads;
    std::vector<RunOptions> options;

    /**
     * When set, the campaign is *adaptive*: every unique job becomes a
     * Monte Carlo cell run until the plan's confidence target (or seed
     * cap), via stats::runAdaptive. Absent = classic fixed-seed
     * campaign, byte-identical specs and reports to before this field
     * existed.
     */
    std::optional<stats::SamplingPlan> sampling;

    /** The effective options axis (one default when `options` is empty). */
    std::vector<RunOptions> effectiveOptions() const;

    /** The label derived tables normalize to (resolves the "" default). */
    std::string baselineLabel() const;

    /**
     * One grid cell of the expansion: axis indices plus the index of
     * the unique job that simulates it (distinct cells may share a
     * job when axis entries repeat).
     */
    struct Cell
    {
        std::size_t accelerator_index = 0;
        std::size_t workload_index = 0;
        std::size_t option_index = 0;
        std::size_t job_index = 0; ///< into CampaignExpansion::jobs
    };

    struct CampaignExpansion
    {
        /** Unique jobs in deterministic first-seen order — duplicates
         *  (under SimulationEngine::jobKey) are expanded once. */
        std::vector<SimulationJob> jobs;
        /** Every grid cell, in expansion order. */
        std::vector<Cell> cells;
    };

    /**
     * Expand the axes into jobs + cells. First runs the checks
     * fromJson runs, and throws std::invalid_argument with an
     * actionable message on empty axes, duplicate accelerator labels,
     * an unknown baseline label or zip length mismatches (in that
     * order).
     */
    CampaignExpansion expand() const;

    /** Just the unique jobs (deterministic, duplicate-free). */
    std::vector<SimulationJob> expandJobs() const;

    /**
     * Build a spec from its JSON form (schema: docs/CAMPAIGNS.md).
     * Throws std::invalid_argument with the offending key path on
     * malformed input; parse(serialize(spec)) == spec. Also runs
     * expand()'s checks, with the same messages, but builds no job or
     * job key: loading a spec costs its parse, not its expansion.
     */
    static CampaignSpec fromJson(const json::Value& value);

    /** Read + parse a spec file; errors mention the path. */
    static CampaignSpec load(const std::string& path);

    json::Value toJson() const;
};

/**
 * Parse one SimulationJob from its JSON form — the body of the
 * service's `POST /v1/runs`:
 * `{"accelerator": {...}, "workload": {...}, "options": {...}}`, each
 * part using exactly the campaign-spec vocabulary (registry names,
 * `file:` model references, profile overrides). `context` prefixes the
 * key-path error messages. Throws std::invalid_argument on malformed
 * input; suites are rejected (a run is one workload).
 */
SimulationJob simulationJobFromJson(const json::Value& value,
                                    const std::string& context);

/** One simulated cell of a campaign: where it sits in the spec's
 *  axes, the job that produced it, and the result. */
struct CampaignCell
{
    std::size_t accelerator_index = 0;
    std::size_t workload_index = 0;
    std::size_t option_index = 0;
    SimulationJob job;
    /** In adaptive campaigns, the seed-index-0 result — bitwise the
     *  result a fixed-seed run of the same spec produces. */
    RunResult result;
    /** Per-cell sampling outcome; set only for adaptive campaigns. */
    std::optional<stats::CellSampling> sampling;
};

/**
 * A derived comparison table: one column per accelerator label, one
 * row per (workload, option) pair, each value the baseline/cell ratio
 * of the metric (so bigger = better and the baseline column is 1.0).
 * Missing cells (zip expansions, filtered grids) are NaN and excluded
 * from the per-column geometric means.
 */
struct DerivedTable
{
    std::string metric;   ///< "speedup" or "energy_efficiency"
    std::string baseline; ///< accelerator label of the denominator
    std::vector<std::string> columns;    ///< accelerator labels
    std::vector<std::string> rows;       ///< row labels (workload names)
    std::vector<std::vector<double>> values; ///< rows x columns
    std::vector<double> geomean;         ///< per column, finite cells only
};

/** Render a derived table for terminal display ("n/a" for NaN). */
Table toTable(const DerivedTable& table, const std::string& title);

/**
 * Directory holding the checked-in campaign specs. The
 * PROSPERITY_CAMPAIGN_DIR environment variable wins; otherwise the
 * compile-time configured source-tree path; otherwise "campaigns".
 */
std::string defaultCampaignDir();

/** Load `defaultCampaignDir()/<name>.json`. */
CampaignSpec loadNamedCampaign(const std::string& name);

/** Structured outcome of a campaign run. */
struct CampaignReport
{
    /** `schema_version` written into every report JSON; bump on
     *  incompatible format changes. */
    static constexpr int kSchemaVersion = 1;

    CampaignSpec spec;
    std::vector<CampaignCell> cells; ///< expansion order

    /** seconds(baseline) / seconds(cell), normalized latency wins. */
    DerivedTable speedupTable() const;

    /** energy(baseline) / energy(cell), normalized energy wins. */
    DerivedTable energyEfficiencyTable() const;

    /** Full report document (schema: docs/CAMPAIGNS.md). */
    json::Value toJson() const;

    /** Flat per-cell CSV (plotting-friendly, one row per cell). */
    std::string toCsv() const;

    bool writeJsonFile(const std::string& path) const;
    bool writeCsvFile(const std::string& path) const;
};

/**
 * Assemble a CampaignReport from a spec, its expansion, and the
 * per-job results (results[i] belongs to expansion.jobs[i]). Shared by
 * CampaignRunner's fixed-seed and adaptive paths and perfbench's
 * traced replay, which re-assembles each report from the results it
 * replays job by job.
 */
CampaignReport assembleCampaignReport(
    const CampaignSpec& spec,
    const CampaignSpec::CampaignExpansion& expansion,
    std::vector<RunResult> results);

/**
 * Per-job progress of a running campaign. Fixed-seed campaigns report
 * once per unique job (completed/total count jobs, seeds_drawn is 0).
 * Adaptive campaigns report once per *seed*: completed counts seeds
 * drawn campaign-wide, total is 0 (the stopping rule decides it),
 * job_index/job name the cell and seeds_drawn its seeds so far.
 */
struct CampaignProgress
{
    std::size_t completed = 0; ///< jobs (or seeds) finished so far
    std::size_t total = 0;     ///< unique jobs; 0 when open-ended
    std::size_t job_index = 0; ///< into CampaignExpansion::jobs
    std::size_t seeds_drawn = 0; ///< this cell's seeds (adaptive only)
    const SimulationJob* job = nullptr;
    const RunResult* result = nullptr;
};

/**
 * Executes CampaignSpecs through a shared SimulationEngine. Jobs are
 * submitted as one batch, so they spread across the engine's worker
 * pool in one lineup per spike stream, reuse its memoization cache, and
 * complete with a progress callback per job — long campaigns stream
 * status instead of going dark. Results are bitwise identical to a
 * runBatch of the same jobs.
 */
class CampaignRunner
{
  public:
    using ProgressCallback = std::function<void(const CampaignProgress&)>;

    explicit CampaignRunner(SimulationEngine& engine) : engine_(engine) {}

    /**
     * Expand and simulate `spec`, invoking `progress` (when set) once
     * per unique job in deterministic job order. Propagates engine
     * errors (unknown accelerator, bad params) as exceptions.
     *
     * Specs with a sampling plan dispatch to stats::runAdaptive: each
     * unique job is run over derived seed substreams until the plan's
     * stopping rule fires, progress is reported per seed (see
     * CampaignProgress), and every report cell carries its
     * CellSampling. The report — including the seeds drawn — is
     * bitwise identical for any engine thread count.
     */
    CampaignReport run(const CampaignSpec& spec,
                       const ProgressCallback& progress = {}) const;

    /** run() over `expansion`, which must be `spec.expand()`. */
    CampaignReport run(const CampaignSpec& spec,
                       const CampaignSpec::CampaignExpansion& expansion,
                       const ProgressCallback& progress) const;

  private:
    SimulationEngine& engine_;
};

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_CAMPAIGN_H
