#include "area_model.h"

#include <algorithm>

#include "arch/sram.h"

namespace prosperity {

std::size_t
log2ceil(std::size_t x)
{
    std::size_t bits = 1;
    while ((std::size_t{1} << bits) < x)
        ++bits;
    return bits;
}

std::size_t
ProsperityConfig::tableEntryBits() const
{
    // prefix index + row index + pattern + NO field + valid/control.
    return 2 * log2ceil(tile.m) + tile.k + log2ceil(tile.k + 1) + 11;
}

namespace {

// Coefficients anchored at the default config (Fig. 10 (a)); see the
// file comment in area_model.h.
constexpr double kTcamBitAreaMm2 = 2.343e-6;   // 8192 b -> 0.0192
constexpr double kPopcountAreaMm2 = 2.25e-4;   // 8 units -> 0.0018
constexpr double kPrunerChannelAreaMm2 = 7.81e-5; // 256 ch -> 0.020
constexpr double kTableBitAreaMm2 = 3.0e-6;    // 24576 b -> 0.0737
constexpr double kSorterCmpAreaMm2 = 3.1e-6;   // 4608 cmp -> 0.0143
constexpr double kPeAreaMm2 = 5.78e-4;         // 128 PEs -> 0.074
constexpr double kOtherAreaMm2 = 0.022;        // SFU + LIF + control

} // namespace

AreaBreakdown
AreaModel::area() const
{
    const auto& c = config_;
    AreaBreakdown out;

    out.detector = kTcamBitAreaMm2 * static_cast<double>(c.tcamBits()) +
                   kPopcountAreaMm2 * static_cast<double>(c.num_popcounts);
    out.pruner = kPrunerChannelAreaMm2 * static_cast<double>(c.tile.m);

    const double log_m = static_cast<double>(log2ceil(c.tile.m));
    const double sorter_cmps =
        static_cast<double>(c.tile.m) / 2.0 * log_m * (log_m + 1.0) / 2.0;
    out.dispatcher = kTableBitAreaMm2 * static_cast<double>(c.tableBits()) +
                     kSorterCmpAreaMm2 * sorter_cmps;

    out.processor = kPeAreaMm2 * static_cast<double>(c.num_pes);
    out.other = kOtherAreaMm2;

    out.buffer =
        SramBuffer("spike", c.spikeBufferBytes(), c.tile.k / 8).areaMm2() +
        SramBuffer("weight", c.weightBufferBytes(), c.tile.n).areaMm2() +
        SramBuffer("output", c.outputBufferBytes(),
                   c.tile.n * c.psum_bits / 8).areaMm2();

    // Inter-PPU scaling replicates the whole PPU including its buffers;
    // the SFU/LIF "other" block is shared.
    const double ppus = static_cast<double>(std::max<std::size_t>(
        1, c.num_ppus));
    out.detector *= ppus;
    out.pruner *= ppus;
    out.dispatcher *= ppus;
    out.processor *= ppus;
    out.buffer *= ppus;
    return out;
}

double
AreaModel::peakOnChipPowerW() const
{
    const auto& c = config_;
    const EnergyParams& e = kEnergyParams;
    const double m = static_cast<double>(c.tile.m);
    const double k = static_cast<double>(c.tile.k);
    const double n = static_cast<double>(c.tile.n);

    // Energy per fully-active cycle (pJ).
    double pj = 0.0;
    pj += e.tcam_search_per_bit_pj * m * k;        // one query broadside
    pj += e.popcount_per_row_pj *
          static_cast<double>(c.num_popcounts);
    pj += e.pruner_per_row_pj;                     // one row per cycle
    const double log_m = static_cast<double>(log2ceil(c.tile.m));
    pj += e.sorter_per_compare_pj * (m / 2.0) * log_m /
          std::max(1.0, m);                        // amortized per cycle
    pj += e.table_access_per_entry_pj * 2.0;       // write + read
    pj += e.pe_add8_pj * static_cast<double>(c.num_pes);

    const SramBuffer wgt("weight", c.weightBufferBytes(), c.tile.n);
    const SramBuffer out("output", c.outputBufferBytes(),
                         c.tile.n * c.psum_bits / 8);
    const SramBuffer spk("spike", c.spikeBufferBytes(), c.tile.k / 8);
    pj += wgt.accessEnergyPerBytePj() * n;         // one weight row
    pj += out.accessEnergyPerBytePj() * n *
          static_cast<double>(c.psum_bits) / 8.0;  // one psum row
    pj += spk.accessEnergyPerBytePj() * k / 8.0;   // one spike row
    pj += e.other_per_cycle_pj;

    return pj * 1e-12 * c.tech.frequency_hz;
}

} // namespace prosperity
