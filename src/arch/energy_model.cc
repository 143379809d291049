#include "energy_model.h"

namespace prosperity {

std::optional<EnergyComponent>
energyComponentFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kEnergyComponentCount; ++i)
        if (kEnergyComponentNames[i] == name)
            return static_cast<EnergyComponent>(i);
    return std::nullopt;
}

double
EnergyModel::totalPj() const
{
    double total = 0.0;
    forEachCharged([&](EnergyComponent, double pj) { total += pj; });
    return total;
}

double
EnergyModel::averagePowerW(double cycles, const Tech& tech) const
{
    if (cycles <= 0.0)
        return 0.0;
    return totalPj() * 1e-12 / tech.secondsFor(cycles);
}

void
EnergyModel::merge(const EnergyModel& other)
{
    other.forEachCharged([&](EnergyComponent component, double pj) {
        pj_[static_cast<std::size_t>(component)] += pj;
    });
    charged_ |= other.charged_;
}

} // namespace prosperity
