/**
 * @file
 * ActivationProfile: the statistical description of a workload's spike
 * activations, shared by the workload layer (per-workload calibration),
 * the declarative model format (per-layer overrides) and the synthetic
 * generator in src/gen that consumes it.
 */

#ifndef PROSPERITY_SNN_ACTIVATION_PROFILE_H
#define PROSPERITY_SNN_ACTIVATION_PROFILE_H

#include <cstddef>

namespace prosperity {

/**
 * Statistical profile of a workload's spike activations; drives the
 * synthetic generator in src/gen.
 *
 * - `bit_density`: target fraction of 1-bits (Fig. 11 bit density).
 * - `cluster_fraction`: fraction of rows drawn near a shared base
 *   pattern (models the combinatorial similarity real SNN activations
 *   exhibit; the remainder is i.i.d. Bernoulli).
 * - `bank_size`: number of distinct base patterns per 256-row window,
 *   at most kMaxBankSize (a parsed profile is checked against it). The
 *   generator allocates every entry's spike order and prefix snapshots
 *   before its first row, so the bound also bounds that memory.
 * - `subset_drop_prob`: probability each 1-bit of a base pattern is
 *   dropped when a clustered row is emitted (creates proper-subset /
 *   partial-match structure).
 * - `temporal_repeat`: probability a row is an exact copy of the same
 *   position in the previous time step (creates exact-match structure).
 * - `union_prob`: probability a clustered row is the union of prefixes
 *   from *two* banks (a neuron population driven by two feature
 *   groups) — the structure that makes a second prefix useful
 *   (Table II).
 * - `noise_insert_prob`: per-position probability of a stray spike on
 *   top of a clustered row. Stray spikes break subset relations over
 *   wide column windows, which is why ProSparsity's tile width k has a
 *   sweet spot (Fig. 7 right).
 */
struct ActivationProfile
{
    /** Largest bank_size a parsed profile may carry: one per row of a
     *  256-row window. */
    static constexpr std::size_t kMaxBankSize = 256;

    double bit_density = 0.2;
    double cluster_fraction = 0.6;
    std::size_t bank_size = 24;
    double subset_drop_prob = 0.25;
    double temporal_repeat = 0.3;
    double union_prob = 0.12;
    double noise_insert_prob = 0.003;
};

bool operator==(const ActivationProfile& a, const ActivationProfile& b);
inline bool operator!=(const ActivationProfile& a,
                       const ActivationProfile& b)
{
    return !(a == b);
}

} // namespace prosperity

#endif // PROSPERITY_SNN_ACTIVATION_PROFILE_H
