/**
 * @file
 * Shared declarations of the perfbench binary: the three workloads, the
 * single-thread replay that splits host time across src/ modules, and
 * the paper references behind `paper_log_err`.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "spans.h"

namespace perfbench {

/** Engine workers of every workload, whatever the host's core count:
 *  at 4 workers campaigns on a 4-core host vary 9-26% run to run, at
 *  1-2 workers 3-7%. */
constexpr std::size_t kEngineWorkers = 2;

/** The seed the golden reports pin. */
constexpr std::uint64_t kDefaultSeed = 7;

/** A finished campaign report as the timed phase produced it. */
struct Report
{
    prosperity::CampaignSpec spec;
    std::string bytes; ///< pretty JSON + newline, as the CLI writes it
};

/** Everything one timed phase measured or produced. */
struct PhaseResult
{
    double wall_s = 0.0;
    std::size_t attempted = 0; ///< jobs (campaigns) or sessions (serve)
    std::size_t failed = 0;
    std::vector<std::string> errors;

    std::vector<double> read_ms;  ///< serve: read sessions
    std::vector<double> write_ms; ///< serve: write sessions

    /** Distinct reports, first-seen order. */
    std::vector<Report> reports;

    prosperity::EngineStats engine;
    std::size_t sessions = 0;    ///< serve: POST-to-report sessions
    std::size_t polls = 0;       ///< serve: GET /v1/jobs calls
    double rss_growth_mb = 0.0;  ///< serve: RSS after phase - after setup

    void fail(std::string message)
    {
        ++failed;
        errors.push_back(std::move(message));
    }
};

/** One benchmark workload: set up, run the timed phase, tear down. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Everything a user pays once before the first timed operation. */
    virtual void setup() = 0;

    /** The timed phase; `spans` is null in the untraced run. */
    virtual PhaseResult timed(SpanRecorder* spans) = 0;

    virtual void teardown() = 0;

    /** Nominal host time of one set-up + timed phase (2 workers, 4-core
     *  x86-64 host). A run makes max(3, round(seconds / this)) phases,
     *  so the work it measures depends on --seconds, never on how fast
     *  the host happens to be. */
    virtual double nominalPhaseSeconds() const = 0;

    /** Compare a phase's outputs with the goldens (seed 7) or with an
     *  offline recomputation; every mismatch is recorded as a failure.
     *  Runs after the timed phases. */
    virtual void checkOutputs(PhaseResult& phase) = 0;

    /** mean |ln(model / paper)| over the paper ratios the workload's
     *  reports reproduce. */
    virtual double paperLogErr(const PhaseResult& phase) const = 0;

    /** Modelled per-layer metrics read from lastResult() come from
     *  this (accelerator label, workload name) cell; empty = none. */
    virtual std::string referenceLabel() const { return ""; }
    virtual std::string referenceWorkload() const { return ""; }
};

/** "fig9", "fig8-baselines" or "serve-sweep"; `quick` shrinks the work
 *  for the self-test. Throws std::invalid_argument on an unknown name. */
std::unique_ptr<BenchWorkload> makeBenchWorkload(const std::string& name,
                                                 std::uint64_t seed,
                                                 bool quick);

/** Resident set size now, in MB (from /proc/self/statm). */
double currentRssMb();

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** q-quantile (0..1) of `values` by linear interpolation; 0 if empty. */
double quantile(std::vector<double> values, double q);

// --- paper references (paper.cc) ---------------------------------------

/** Fig. 9 ladder against Eyeriss (speed-up geomeans). */
double fig9LadderLogErr(const std::string& report_bytes);

/** Baseline-vs-Eyeriss ratios implied by Fig. 8's headline numbers
 *  (speed-up and energy efficiency; Stellar excluded). */
double fig8BaselineLogErr(const std::string& report_bytes);

// --- replay (replay.cc) -------------------------------------------------

/** What the single-thread replay measured besides its spans. */
struct ReplayOutcome
{
    std::size_t root_span = 0; ///< the "replay" span in the recorder
    std::size_t jobs = 0;
    std::size_t reports = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> errors;

    double job_s = 0.0;         ///< summed per-job replay time
    double prosperity_tiles = 0.0; ///< tiles the PPU analysed
    double generated_bits = 0.0;   ///< rows x cols of generated spikes
    double report_bytes = 0.0;     ///< bytes serialised

    // Modelled clock, from ProsperityAccelerator::lastResult().
    double ref_dense_ops = 0.0, ref_bit_ops = 0.0, ref_product_ops = 0.0;
    double prefix_hits = 0.0, rows_processed = 0.0;
    double traversal_exposed = 0.0, traversal_cycles = 0.0;
    std::size_t dram_bound_layers = 0;
};

/**
 * Replay every unique job behind `reports` on this thread through the
 * library's public functions, mirroring runWorkload layer by layer, and
 * re-assemble and re-serialise each report. A report whose replayed
 * bytes differ from the timed run's counts as a mismatch.
 */
ReplayOutcome replayReports(const std::vector<Report>& reports,
                            SpanRecorder& spans,
                            const std::string& reference_label,
                            const std::string& reference_workload);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
