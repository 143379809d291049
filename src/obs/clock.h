/**
 * @file
 * The single sanctioned wall-clock portal in `src/`. The determinism
 * lint forbids `std::chrono::*_clock` everywhere else in the source
 * tree, so every latency measurement flows through these two entry
 * points. Keeping the clock behind one seam makes the inertness
 * argument for the metrics layer auditable: if simulation results
 * depended on time, the dependency would have to pass through here.
 */

#ifndef PROSPERITY_OBS_CLOCK_H
#define PROSPERITY_OBS_CLOCK_H

#include <cstdint>

namespace prosperity::obs {

/** Monotonic nanoseconds since an arbitrary epoch (steady clock). */
std::uint64_t monotonicNanos();

/** Seconds elapsed between two monotonicNanos() readings. */
inline double
elapsedSeconds(std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (end_ns <= start_ns)
        return 0.0;
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Monotonic stopwatch started at construction. */
class Stopwatch
{
  public:
    Stopwatch() : start_ns_(monotonicNanos()) {}

    /** Seconds since construction. */
    double elapsed() const
    {
        return elapsedSeconds(start_ns_, monotonicNanos());
    }

  private:
    std::uint64_t start_ns_;
};

} // namespace prosperity::obs

#endif // PROSPERITY_OBS_CLOCK_H
