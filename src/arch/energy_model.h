/**
 * @file
 * Activity-based energy accounting.
 *
 * Component event energies are calibrated so that the default Prosperity
 * configuration reproduces the paper's Fig. 10 power breakdown (915 mW on
 * Spikformer/CIFAR10: DRAM 467.5, detector 268.6, buffer 80.4, processor
 * 55.0, dispatcher 24.1, other 16.3, pruner 3.1 mW). The paper's own
 * numbers come from Design Compiler + CACTI + DRAMsim3; here the same
 * structure is captured with analytic per-event energies (see DESIGN.md
 * substitution table).
 */

#ifndef PROSPERITY_ARCH_ENERGY_MODEL_H
#define PROSPERITY_ARCH_ENERGY_MODEL_H

#include <map>
#include <string>

#include "arch/tech.h"

namespace prosperity {

/** Per-event energies in picojoules, 28 nm. */
struct EnergyParams
{
    // ProSparsity Processing Unit events.
    double tcam_search_per_bit_pj = 0.94;  ///< one TCAM cell compare
    double popcount_per_row_pj = 2.5;      ///< k-bit popcount
    double pruner_per_row_pj = 42.3;       ///< subset filter + argmax
    double sorter_per_compare_pj = 15.2;   ///< bitonic compare-exchange
    double table_access_per_entry_pj = 35.4; ///< sparsity-table access
    double pe_add8_pj = 2.29;              ///< 8-bit add incl. psum reg
    double pe_mac8_pj = 3.5;               ///< 8-bit MAC (dense baselines)
    double pe_add2_pj = 0.30;              ///< 2-bit add (MINT)
    double pe_add12_pj = 2.60;             ///< 12-bit add (Stellar)
    double sfu_op_pj = 4.0;                ///< exp/div/mul in softmax, LN
    double lif_update_pj = 1.5;            ///< membrane update + fire

    // Memory events.
    double spike_buffer_per_byte_pj = 0.45;
    double weight_buffer_per_byte_pj = 0.55;
    double output_buffer_per_byte_pj = 0.70;
    double dram_per_byte_pj = 170.0; ///< DDR4 access+IO+refresh share

    // Idle/control overheads charged per active cycle.
    double other_per_cycle_pj = 32.6;
};

/**
 * Accumulates component energies from named events. Components mirror
 * Fig. 10's breakdown categories.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(EnergyParams params = {}) : params_(params) {}

    const EnergyParams& params() const { return params_; }

    /** Charge `count` events of energy `pj_each` to `component`. */
    void charge(const std::string& component, double pj_each, double count);

    /** Total energy in picojoules. */
    double totalPj() const;

    /** Energy of one component in picojoules (0 if absent). */
    double componentPj(const std::string& component) const;

    /** All component energies. */
    const std::map<std::string, double>& breakdown() const
    {
        return breakdown_;
    }

    /** Average power in watts given elapsed cycles at `tech`'s clock. */
    double averagePowerW(double cycles, const Tech& tech) const;

    void reset() { breakdown_.clear(); }

    /** Merge another model's charges into this one. */
    void merge(const EnergyModel& other);

  private:
    EnergyParams params_;
    std::map<std::string, double> breakdown_;
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_ENERGY_MODEL_H
