/**
 * @file
 * Technology and clocking constants shared by every hardware model.
 *
 * All accelerators in the evaluation (Sec. VII-A, Table IV) are modeled
 * at the same 28 nm node and 500 MHz clock, matching the paper's
 * methodology so throughput comparisons reduce to cycle counts.
 */

#ifndef PROSPERITY_ARCH_TECH_H
#define PROSPERITY_ARCH_TECH_H

namespace prosperity {

/** Common process/clock configuration for all modeled accelerators. */
struct Tech
{
    double frequency_hz = 500e6; ///< 500 MHz (Table IV)
    int node_nm = 28;            ///< 28 nm commercial process

    /** Convert a cycle count to seconds. */
    double secondsFor(double cycles) const { return cycles / frequency_hz; }
};

/** Off-chip memory configuration (Table III: DDR4-2133, 4 ch, 64 GB/s). */
struct DramConfig
{
    double bandwidth_bytes_per_s = 64e9;

    /** Cycles at `tech` frequency to transfer `bytes`. */
    double
    cyclesFor(double bytes, const Tech& tech) const
    {
        return bytes / bandwidth_bytes_per_s * tech.frequency_hz;
    }
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_TECH_H
