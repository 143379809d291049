/**
 * @file
 * Unit tests for activity-based energy accounting.
 */

#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "arch/energy_model.h"

namespace prosperity {
namespace {

TEST(EnergyModel, ChargeAccumulatesPerComponent)
{
    EnergyModel e;
    e.charge(EnergyComponent::kDetector, 2.0, 10.0);
    e.charge(EnergyComponent::kDetector, 1.0, 5.0);
    e.charge(EnergyComponent::kProcessor, 0.5, 100.0);
    EXPECT_DOUBLE_EQ(e.componentPj(EnergyComponent::kDetector), 25.0);
    EXPECT_DOUBLE_EQ(e.componentPj(EnergyComponent::kProcessor), 50.0);
    EXPECT_DOUBLE_EQ(e.componentPj(EnergyComponent::kPruner), 0.0);
    EXPECT_DOUBLE_EQ(e.totalPj(), 75.0);
}

TEST(EnergyModel, NamesAscendInEnumOrderAndRoundTrip)
{
    // Reports list components in enum order and the goldens in
    // ascending name order: the two agree only while the names ascend.
    for (std::size_t i = 0; i < kEnergyComponentCount; ++i) {
        const auto component = static_cast<EnergyComponent>(i);
        const std::string_view name = energyComponentName(component);
        if (i > 0) {
            EXPECT_LT(kEnergyComponentNames[i - 1], name);
        }
        EXPECT_EQ(energyComponentFromName(name), component) << name;
    }
    EXPECT_EQ(energyComponentName(EnergyComponent::kStatic), "static");
    EXPECT_FALSE(energyComponentFromName("proccessor").has_value());
    EXPECT_FALSE(energyComponentFromName("").has_value());
}

TEST(EnergyModel, ZeroChargeIsPresentAndUnchargedIsAbsent)
{
    EnergyModel e;
    EXPECT_DOUBLE_EQ(e.totalPj(), 0.0);
    e.charge(EnergyComponent::kStatic, 0.0, 100.0);
    e.charge(EnergyComponent::kDram, 2.0, 3.0);

    std::vector<std::pair<EnergyComponent, double>> walked;
    e.forEachCharged([&](EnergyComponent component, double pj) {
        walked.emplace_back(component, pj);
    });
    const std::vector<std::pair<EnergyComponent, double>> expected = {
        {EnergyComponent::kDram, 6.0}, {EnergyComponent::kStatic, 0.0}};
    EXPECT_EQ(walked, expected);
    EXPECT_TRUE(e.charged(EnergyComponent::kStatic));
    EXPECT_FALSE(e.charged(EnergyComponent::kGpu));
    EXPECT_DOUBLE_EQ(e.totalPj(), 6.0);
}

TEST(EnergyModel, AveragePower)
{
    EnergyModel e;
    const Tech tech; // 500 MHz
    // 1000 pJ over 500 cycles = 1 us => 1e-9 J / 1e-6 s = 1 mW.
    e.charge(EnergyComponent::kOther, 1.0, 1000.0);
    EXPECT_NEAR(e.averagePowerW(500.0, tech), 1e-3, 1e-12);
    EXPECT_DOUBLE_EQ(e.averagePowerW(0.0, tech), 0.0);
}

TEST(EnergyModel, MergeCombinesBreakdowns)
{
    EnergyModel a, b;
    a.charge(EnergyComponent::kDram, 160.0, 2.0);
    b.charge(EnergyComponent::kDram, 160.0, 1.0);
    b.charge(EnergyComponent::kBuffer, 1.0, 7.0);
    b.charge(EnergyComponent::kStatic, 0.0, 1.0); // present at 0 pJ
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.componentPj(EnergyComponent::kDram), 480.0);
    EXPECT_DOUBLE_EQ(a.componentPj(EnergyComponent::kBuffer), 7.0);
    // Presence is ORed, so b's zero charge is present in a.
    EXPECT_TRUE(a.charged(EnergyComponent::kStatic));
    EXPECT_FALSE(a.charged(EnergyComponent::kGpu));
}

TEST(EnergyParams, DefaultsAreOrderedSensibly)
{
    const EnergyParams& p = kEnergyParams;
    // A MAC costs more than an add; narrow adds cost less than wide.
    EXPECT_GT(p.pe_mac8_pj, p.pe_add8_pj);
    EXPECT_LT(p.pe_add2_pj, p.pe_add8_pj);
    EXPECT_GT(p.pe_add12_pj, p.pe_add8_pj);
    // A TCAM cell compare is far cheaper than an add (Sec. VII-G uses
    // a 45x ratio between an addition and a TCAM bit op).
    EXPECT_LT(p.tcam_search_per_bit_pj, p.pe_add8_pj);
    // DRAM dwarfs SRAM per byte.
    EXPECT_GT(p.dram_per_byte_pj, 50.0 * p.weight_buffer_per_byte_pj);
}

} // namespace
} // namespace prosperity
