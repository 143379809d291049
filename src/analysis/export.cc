#include "export.h"

#include "util/json.h"

namespace prosperity {

namespace {

std::string
quoteIfNeeded(const std::string& cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char c : cell) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

void
CsvWriter::writeRow(const std::vector<std::string>& cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << quoteIfNeeded(cells[i]);
    }
    os_ << '\n';
}

std::string
CsvWriter::cell(double v)
{
    return json::formatDouble(v);
}

void
exportRunResults(std::ostream& os, const std::vector<RunResult>& results)
{
    CsvWriter csv(os);
    csv.writeRow({"workload", "accelerator", "cycles", "seconds",
                  "gops", "gopj", "energy_pj", "avg_power_w",
                  "dram_bytes"});
    for (const RunResult& r : results) {
        csv.writeRow({r.workload, r.accelerator, CsvWriter::cell(r.cycles),
                      CsvWriter::cell(r.seconds()),
                      CsvWriter::cell(r.gops()), CsvWriter::cell(r.gopj()),
                      CsvWriter::cell(r.energy.totalPj()),
                      CsvWriter::cell(r.averagePowerW()),
                      CsvWriter::cell(r.dram_bytes)});
    }
}

} // namespace prosperity
