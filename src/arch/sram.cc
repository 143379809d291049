#include "sram.h"

#include <cmath>

#include "sim/logging.h"

namespace prosperity {

namespace {

// Coefficients fit so that 8 + 32 + 96 KB = 136 KB totals 0.303 mm^2
// (Fig. 10 (a)) with a mild super-linear exponent typical of CACTI
// results for small SRAM macros at 28 nm.
constexpr double kAreaPerKbMm2 = 0.00196;
constexpr double kAreaExponent = 1.025;
constexpr double kAreaFixedMm2 = 0.004;

// Access energy: ~0.08 pJ/B for an 8 KB macro, scaling with sqrt(KB)
// (CACTI-7-like values for small 28 nm macros with wide read ports).
constexpr double kEnergyPerByteAt8KbPj = 0.123;

} // namespace

SramBuffer::SramBuffer(std::string name, std::size_t capacity_bytes,
                       std::size_t word_bytes)
    : name_(std::move(name)), capacity_bytes_(capacity_bytes),
      word_bytes_(word_bytes)
{
    PROSPERITY_ASSERT(capacity_bytes_ > 0 && word_bytes_ > 0,
                      "SRAM must have nonzero capacity and word size");
    PROSPERITY_ASSERT(word_bytes_ <= capacity_bytes_,
                      "SRAM word wider than capacity");
}

double
SramBuffer::areaMm2() const
{
    const double kb = static_cast<double>(capacity_bytes_) / 1024.0;
    return kAreaFixedMm2 + kAreaPerKbMm2 * std::pow(kb, kAreaExponent);
}

double
SramBuffer::accessEnergyPerBytePj() const
{
    const double kb = static_cast<double>(capacity_bytes_) / 1024.0;
    return kEnergyPerByteAt8KbPj * std::sqrt(kb / 8.0);
}

} // namespace prosperity
