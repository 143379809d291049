/**
 * @file
 * Fig. 10 reproduction: Prosperity area breakdown (total 0.529 mm^2)
 * and power breakdown on Spikformer/CIFAR10 (total 915 mW, DRAM
 * dominant, TCAM detector the largest on-chip consumer).
 */

#include <iostream>

#include "analysis/runner.h"
#include "arch/area_model.h"
#include "core/prosperity_accelerator.h"
#include "sim/table.h"

using namespace prosperity;

int
main()
{
    // (a) Area.
    const AreaBreakdown area = AreaModel().area();
    Table area_table("Fig. 10 (a) — area breakdown (mm^2)");
    area_table.setHeader({"component", "mm^2", "(paper)"});
    area_table.addRow({"detector", Table::num(area.detector, 3),
                       "0.021"});
    area_table.addRow({"pruner", Table::num(area.pruner, 3), "0.020"});
    area_table.addRow({"dispatcher", Table::num(area.dispatcher, 3),
                       "0.088"});
    area_table.addRow({"processor", Table::num(area.processor, 3),
                       "0.074"});
    area_table.addRow({"other", Table::num(area.other, 3), "0.022"});
    area_table.addRow({"buffer", Table::num(area.buffer, 3), "0.303"});
    area_table.addRow({"TOTAL", Table::num(area.total(), 3), "0.529"});
    area_table.print(std::cout);
    std::cout << '\n';

    // (b) Power on Spikformer/CIFAR10.
    ProsperityAccelerator prosperity;
    const Workload w =
        makeWorkload("Spikformer", "CIFAR10");
    const RunResult r = runWorkload(prosperity, w);

    const double seconds = r.seconds();
    auto mw = [&](EnergyComponent component) {
        return r.energy.componentPj(component) * 1e-12 / seconds * 1e3;
    };

    Table power_table(
        "Fig. 10 (b) — power breakdown on Spikformer/CIFAR10 (mW)");
    power_table.setHeader({"component", "mW", "(paper)"});
    power_table.addRow({"detector",
                        Table::num(mw(EnergyComponent::kDetector), 1),
                        "268.6"});
    power_table.addRow({"pruner",
                        Table::num(mw(EnergyComponent::kPruner), 1), "3.1"});
    power_table.addRow({"dispatcher",
                        Table::num(mw(EnergyComponent::kDispatcher), 1),
                        "24.1"});
    power_table.addRow({"processor",
                        Table::num(mw(EnergyComponent::kProcessor), 1),
                        "55.0"});
    power_table.addRow({"other",
                        Table::num(mw(EnergyComponent::kOther), 1), "16.3"});
    power_table.addRow({"buffer",
                        Table::num(mw(EnergyComponent::kBuffer), 1), "80.4"});
    power_table.addRow({"DRAM",
                        Table::num(mw(EnergyComponent::kDram), 1), "467.5"});
    power_table.addRow({"TOTAL",
                        Table::num(r.averagePowerW() * 1e3, 1), "915"});
    power_table.print(std::cout);

    std::cout << "\nExpected structure: DRAM is about half of total "
                 "power; the TCAM detector dominates on-chip power "
                 "(every cell searched every cycle) while the "
                 "dispatcher dominates logic area but not power (the "
                 "table is only partially activated per cycle).\n";
    return 0;
}
