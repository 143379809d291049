/**
 * @file
 * CSV export of experiment results.
 *
 * The paper's figures are plots; this module dumps the simulator's
 * results in a plotting-friendly CSV form (one row per data point,
 * stable column order) so downstream users can regenerate the
 * end-to-end figures with their tool of choice.
 */

#ifndef PROSPERITY_ANALYSIS_EXPORT_H
#define PROSPERITY_ANALYSIS_EXPORT_H

#include <ostream>
#include <string>
#include <vector>

#include "analysis/runner.h"

namespace prosperity {

/** Minimal CSV writer with RFC-4180-style quoting. */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream& os) : os_(os) {}

    /** Write one row; cells containing commas/quotes/newlines are
     *  quoted and inner quotes doubled. */
    void writeRow(const std::vector<std::string>& cells);

    /** Convenience numeric cell: locale-independent and round-trip
     *  exact (json::formatDouble), so CSV output is byte-stable across
     *  environments. */
    static std::string cell(double v);

  private:
    std::ostream& os_;
};

/**
 * Dump end-to-end results: one row per (workload, accelerator) with
 * cycles, seconds, GOP/s, GOP/J, total energy and average power.
 */
void exportRunResults(std::ostream& os,
                      const std::vector<RunResult>& results);

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_EXPORT_H
