/**
 * @file
 * Runtime-dispatched SIMD tiers for popcount, the one word-level bit
 * kernel whose vector forms carry measurable time.
 *
 * It has one scalar reference implementation (bitmatrix/
 * word_kernels.h) and two vector specializations (AVX2 / AVX-512),
 * each compiled in its own translation unit with that tier's `-m`
 * flags so the rest of the library stays portable baseline code. At
 * startup the best tier the CPU supports is selected once; every call
 * after that goes through a table of function pointers (`simdOps()`).
 * The other word kernels (subset, any, signature, prefix selection's
 * backward signature search) are short scalar loops that callers use
 * directly.
 *
 * @par Equivalence contract
 * Every tier computes bit-identical results to the scalar reference in
 * word_kernels.h for every input — not "close", identical. The
 * differential suite (tests/test_simd_kernels.cc) fuzzes all available
 * tiers against the scalar reference across widths and word-boundary
 * tails, and the golden pins (prefix selection, spike-generator
 * hashes, byte-identical campaign reports) are re-run under each
 * forced tier. Tier choice can never change a simulation result, only
 * its speed.
 *
 * @par Forcing a tier
 * The `PROSPERITY_SIMD` environment variable (values: `scalar`,
 * `avx2`, `avx512`, case-insensitive) forces a tier before the first
 * dispatch; the CLI forwards `--simd <tier>` to the same mechanism.
 * Forcing a tier the host cannot run falls back to the best available
 * tier at or below the request, with a warning on stderr. Tests force
 * tiers directly via setSimdTier().
 */

#ifndef PROSPERITY_BITMATRIX_SIMD_DISPATCH_H
#define PROSPERITY_BITMATRIX_SIMD_DISPATCH_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace prosperity {

/** Instruction-set tiers, ordered from most portable to widest. */
enum class SimdTier : int
{
    kScalar = 0,
    kAvx2 = 1,
    kAvx512 = 2,
};

/**
 * One tier's kernel table. `popcountWords` reads exactly `n` words
 * (vector main loop plus scalar tail), so any word span is a legal
 * input.
 */
struct SimdOps
{
    SimdTier tier = SimdTier::kScalar;
    const char* name = "scalar";

    /** Total set bits across `n` words. */
    std::size_t (*popcountWords)(const std::uint64_t* words,
                                 std::size_t n);
};

/**
 * The active kernel table. First call detects the CPU, applies any
 * PROSPERITY_SIMD override, and caches the result; afterwards this is
 * one atomic load. Thread-safe.
 */
const SimdOps& simdOps();

/** Tier of the active table. */
SimdTier activeSimdTier();

/** Lower-case tier name ("scalar", "avx2", "avx512"). */
const char* simdTierName(SimdTier tier);

/** Parse a tier name (case-insensitive); nullopt for unknown names. */
std::optional<SimdTier> parseSimdTier(const std::string& name);

/**
 * Whether `tier` was compiled in AND the host CPU can execute it.
 * kScalar is always available.
 */
bool simdTierAvailable(SimdTier tier);

/** Every available tier, ascending (always starts with kScalar). */
std::vector<SimdTier> availableSimdTiers();

/**
 * Force the active tier (tests, CLI --simd). Returns false and leaves
 * the dispatch unchanged when the tier is unavailable on this host.
 */
bool setSimdTier(SimdTier tier);

/** Drop any force and re-run auto-detection (incl. PROSPERITY_SIMD). */
void resetSimdTier();

} // namespace prosperity

#endif // PROSPERITY_BITMATRIX_SIMD_DISPATCH_H
