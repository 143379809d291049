#include "export.h"

#include "util/json.h"

namespace prosperity {

void
CsvWriter::separate()
{
    if (row_open_)
        out_ += ',';
    row_open_ = true;
}

CsvWriter&
CsvWriter::cell(std::string_view text)
{
    separate();
    if (text.find_first_of(",\"\n") == std::string_view::npos) {
        out_ += text;
        return *this;
    }
    out_ += '"';
    for (const char c : text) {
        if (c == '"')
            out_ += '"';
        out_ += c;
    }
    out_ += '"';
    return *this;
}

CsvWriter&
CsvWriter::cell(double v)
{
    separate();
    json::appendDouble(out_, v);
    return *this;
}

void
CsvWriter::endRow()
{
    out_ += '\n';
    row_open_ = false;
}

void
CsvWriter::writeRow(const std::vector<std::string>& cells)
{
    for (const std::string& text : cells)
        cell(text);
    endRow();
}

std::string
exportRunResults(const std::vector<RunResult>& results)
{
    CsvWriter csv;
    csv.writeRow({"workload", "accelerator", "cycles", "seconds", "gops",
                  "gopj", "energy_pj", "avg_power_w", "dram_bytes"});
    for (const RunResult& r : results) {
        csv.cell(r.workload)
            .cell(r.accelerator)
            .cell(r.cycles)
            .cell(r.seconds())
            .cell(r.gops())
            .cell(r.gopj())
            .cell(r.energy.totalPj())
            .cell(r.averagePowerW())
            .cell(r.dram_bytes)
            .endRow();
    }
    return csv.take();
}

} // namespace prosperity
