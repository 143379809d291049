/**
 * @file
 * Activity-based energy accounting.
 *
 * A design charges each event's energy to one of nine components. Seven
 * are Fig. 10 (b)'s Prosperity categories (DRAM, detector, buffer,
 * processor, dispatcher, other, pruner); the ASIC baselines add
 * `static` (per-cycle leakage and control) and the A100 `gpu` (board
 * power). The enum is declared in report order: a report lists the
 * charged components in enum order, and the golden reports list them
 * by ascending name, so the two orders must agree (test_energy_model
 * pins it). A component a result never charged is absent from it.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "arch/tech.h"
#include "sim/logging.h"

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

/** The one table of per-event energies every design charges from. */
inline constexpr EnergyParams kEnergyParams{};

/** A component of the energy breakdown, in report order. */
enum class EnergyComponent : std::uint8_t {
    kBuffer,
    kDetector,
    kDispatcher,
    kDram,
    kGpu,
    kOther,
    kProcessor,
    kPruner,
    kStatic,
};

/** Report names, indexed by EnergyComponent. */
inline constexpr auto kEnergyComponentNames =
    std::to_array<std::string_view>({"buffer", "detector", "dispatcher",
                                     "dram", "gpu", "other", "processor",
                                     "pruner", "static"});

inline constexpr std::size_t kEnergyComponentCount =
    kEnergyComponentNames.size();
static_assert(static_cast<std::size_t>(EnergyComponent::kStatic) + 1 ==
                  kEnergyComponentCount,
              "one report name per energy component");

inline std::string_view
energyComponentName(EnergyComponent component)
{
    return kEnergyComponentNames[static_cast<std::size_t>(component)];
}

/** The component reported as `name`, or nullopt for any other name. */
std::optional<EnergyComponent> energyComponentFromName(std::string_view name);

/**
 * A ledger of component energies. A component is present once it has
 * been charged, even with zero energy, and absent until then.
 */
class EnergyModel
{
  public:
    /** Charge `count` events of energy `pj_each` to `component`. */
    void
    charge(EnergyComponent component, double pj_each, double count)
    {
        PROSPERITY_ASSERT(pj_each >= 0.0 && count >= 0.0,
                          "negative energy charge");
        const auto i = static_cast<std::size_t>(component);
        pj_[i] += pj_each * count;
        charged_ |= static_cast<std::uint16_t>(1u << i);
    }

    /** Whether `component` has been charged. */
    bool
    charged(EnergyComponent component) const
    {
        return (charged_ >> static_cast<std::size_t>(component)) & 1u;
    }

    /** Energy of one component in picojoules (0 if absent). */
    double
    componentPj(EnergyComponent component) const
    {
        return pj_[static_cast<std::size_t>(component)];
    }

    /** Call `visit(component, pj)` for each charged component, in
     *  report order. */
    template <typename Visit>
    void
    forEachCharged(Visit&& visit) const
    {
        for (std::size_t i = 0; i < kEnergyComponentCount; ++i) {
            const auto component = static_cast<EnergyComponent>(i);
            if (charged(component))
                visit(component, pj_[i]);
        }
    }

    /** Total energy in picojoules. */
    double totalPj() const;

    /** Average power in watts given elapsed cycles at `tech`'s clock. */
    double averagePowerW(double cycles, const Tech& tech) const;

    /** Add another ledger's charges into this one. */
    void merge(const EnergyModel& other);

  private:
    std::array<double, kEnergyComponentCount> pj_{};
    std::uint16_t charged_ = 0; ///< bit i: component i was charged
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_ENERGY_MODEL_H
