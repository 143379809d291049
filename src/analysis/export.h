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

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/runner.h"

namespace prosperity {

/**
 * Minimal CSV writer with RFC-4180-style quoting: rows append, cell by
 * cell, to one string.
 */
class CsvWriter
{
  public:
    /** Append a text cell to the current row; a cell holding a comma,
     *  quote or newline is quoted and its inner quotes doubled. */
    CsvWriter& cell(std::string_view text);

    /** Append a numeric cell: locale-independent and round-trip exact
     *  (json::formatDouble), so CSV output is byte-stable across
     *  environments. */
    CsvWriter& cell(double v);

    /** End the current row. */
    void endRow();

    /** Append one whole row of text cells. */
    void writeRow(const std::vector<std::string>& cells);

    /** Hand over the rows written so far; the writer is left empty. */
    std::string take()
    {
        std::string rows = std::move(out_);
        out_.clear();
        row_open_ = false;
        return rows;
    }

  private:
    /** The separator before every cell but a row's first. */
    void separate();

    std::string out_;
    bool row_open_ = false;
};

/**
 * End-to-end results as CSV: one row per (workload, accelerator) with
 * cycles, seconds, GOP/s, GOP/J, total energy, average power and DRAM
 * bytes.
 */
std::string exportRunResults(const std::vector<RunResult>& results);

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_EXPORT_H
