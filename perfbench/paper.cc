/**
 * @file
 * Paper reference ratios and `paper_log_err`, the modelled-clock
 * distance from the paper: mean |ln(model / paper)| over the ratios a
 * workload reproduces. Model ratios are the geomean columns of the
 * report's derived tables (normalised to Eyeriss, geomean over every
 * row the report holds).
 *
 * Fig. 9 ladder (speed-up over Eyeriss, read off Fig. 9): PTB 2.62x,
 * unstructured bit sparsity 5.97x, ProSparsity with traversal dispatch
 * 12.87x, full Prosperity 19.12x.
 *
 * Fig. 8 gives Prosperity's speed-up over Eyeriss, PTB, SATO, MINT and
 * the A100 (14.2, 7.4, 4.8, 3.6, 1.79x) and its energy-efficiency gain
 * over them (21.4, 8.0, 4.2, 3.1, 193x). A baseline's own ratio over
 * Eyeriss follows by division: PTB's speed-up over Eyeriss is
 * 14.2 / 7.4 = 1.92x, its energy efficiency 21.4 / 8.0 = 2.68x, and so
 * on. Stellar is left out: the paper compares it on CNNs only.
 */

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

struct PaperRatio
{
    const char* label;  ///< accelerator column of the derived table
    bool energy;        ///< energy efficiency (else speed-up)
    double paper;       ///< paper's ratio over Eyeriss
};

/** Geomean of `label`'s column in the report's derived `table`. */
double
geomeanOf(const prosperity::json::Value& report, const char* table,
          const std::string& label)
{
    const prosperity::json::Value& derived = report.at("derived").at(table);
    const auto& columns = derived.at("columns").asArray();
    for (std::size_t c = 0; c < columns.size(); ++c)
        if (columns[c].asString() == label)
            return derived.at("geomean").asArray().at(c).asNumber();
    throw std::runtime_error("report has no \"" + label + "\" column");
}

double
meanLogErr(const std::string& report_bytes,
           const std::vector<PaperRatio>& refs)
{
    const prosperity::json::Value report =
        prosperity::json::Value::parse(report_bytes);
    double sum = 0.0;
    for (const PaperRatio& ref : refs) {
        const double model = geomeanOf(
            report, ref.energy ? "energy_efficiency" : "speedup", ref.label);
        sum += std::fabs(std::log(model / ref.paper));
    }
    return sum / static_cast<double>(refs.size());
}

} // namespace

double
fig9LadderLogErr(const std::string& report)
{
    return meanLogErr(report, {{"ptb", false, 2.62},
                               {"prosperity-bit", false, 5.97},
                               {"prosperity-traversal", false, 12.87},
                               {"prosperity", false, 19.12}});
}

double
fig8BaselineLogErr(const std::string& report)
{
    constexpr double kSpeedOverEyeriss = 14.2;
    constexpr double kEnergyOverEyeriss = 21.4;
    return meanLogErr(report,
                      {{"ptb", false, kSpeedOverEyeriss / 7.4},
                       {"sato", false, kSpeedOverEyeriss / 4.8},
                       {"mint", false, kSpeedOverEyeriss / 3.6},
                       {"a100", false, kSpeedOverEyeriss / 1.79},
                       {"ptb", true, kEnergyOverEyeriss / 8.0},
                       {"sato", true, kEnergyOverEyeriss / 4.2},
                       {"mint", true, kEnergyOverEyeriss / 3.1},
                       {"a100", true, kEnergyOverEyeriss / 193.0}});
}

} // namespace perfbench
