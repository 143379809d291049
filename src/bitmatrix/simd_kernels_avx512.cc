/**
 * @file
 * AVX-512 tier: 512-bit (8-word) popcount. Requires F+BW+VL+DQ plus
 * VPOPCNTDQ (the dispatcher checks all five CPU bits and the OS zmm
 * state before selecting this tier), so a popcount is a single
 * vpopcntq per cache line. Exact-n safe and bit-identical to the
 * scalar reference (enforced by tests/test_simd_kernels.cc).
 */

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                   \
    defined(__AVX512VL__) && defined(__AVX512DQ__) &&                  \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>

#include "bitmatrix/simd_tiers.h"

namespace prosperity::detail {

namespace {

/**
 * Sum of the eight 64-bit lanes, through a store and a scalar add.
 * GCC 12's _mm512_reduce_add_epi64 reads _mm256_undefined_si256()
 * internally and trips -Wuninitialized at every call site.
 */
std::size_t
sumLanes(__m512i v)
{
    alignas(64) std::uint64_t lanes[8];
    _mm512_store_si512(lanes, v);
    std::uint64_t sum = 0;
    for (const std::uint64_t lane : lanes)
        sum += lane;
    return static_cast<std::size_t>(sum);
}

std::size_t
popcountAvx512(const std::uint64_t* words, std::size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_loadu_si512(words + i);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    std::size_t count = sumLanes(acc);
    for (; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(words[i]));
    return count;
}

} // namespace

const SimdOps&
simdOpsAvx512()
{
    static const SimdOps ops = {SimdTier::kAvx512, "avx512", popcountAvx512};
    return ops;
}

} // namespace prosperity::detail

#endif // AVX-512 feature set
