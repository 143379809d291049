/**
 * @file
 * On-chip SRAM buffer model.
 *
 * Stands in for CACTI 7.0 (the paper's buffer evaluator): area and
 * per-access energy follow CACTI-like scaling laws in capacity, with
 * coefficients anchored so the default 8 KB spike / 32 KB weight /
 * 96 KB output buffers total the 0.303 mm^2 reported in Fig. 10 (a).
 */

#ifndef PROSPERITY_ARCH_SRAM_H
#define PROSPERITY_ARCH_SRAM_H

#include <cstddef>
#include <string>

namespace prosperity {

/** One on-chip SRAM buffer (single-ported, double-buffered pairs are
 *  modeled as two instances). */
class SramBuffer
{
  public:
    /**
     * @param name Buffer name for reports ("spike", "weight", "output").
     * @param capacity_bytes Total capacity.
     * @param word_bytes Access width in bytes.
     */
    SramBuffer(std::string name, std::size_t capacity_bytes,
               std::size_t word_bytes);

    const std::string& name() const { return name_; }

    /**
     * Silicon area in mm^2 at 28 nm. CACTI-like fit: a fixed periphery
     * cost plus a per-KB bit-cell cost that grows mildly super-linearly
     * (wordline/bitline loading).
     */
    double areaMm2() const;

    /** Per-byte access energy (pJ/B). */
    double accessEnergyPerBytePj() const;

  private:
    std::string name_;
    std::size_t capacity_bytes_;
    std::size_t word_bytes_;
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_SRAM_H
