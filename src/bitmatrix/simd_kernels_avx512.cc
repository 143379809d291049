/**
 * @file
 * AVX-512 tier: 512-bit (8-word) kernels. Requires F+BW+VL+DQ plus
 * VPOPCNTDQ (the dispatcher checks all five CPU bits and the OS zmm
 * state before selecting this tier), so popcounts are a single
 * vpopcntq per cache line and the signature scan's predicate comes
 * straight out of a mask register. Exact-n safe and bit-identical to
 * the scalar reference (enforced by tests/test_simd_kernels.cc).
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

std::size_t
signatureScanAvx512(const std::uint64_t* sigs, std::size_t n,
                    std::uint64_t query_sig, std::uint32_t* out)
{
    const std::uint64_t not_query = ~query_sig;
    const __m512i nq = _mm512_set1_epi64(
        static_cast<long long>(not_query));
    const __m256i lane_base = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    std::size_t count = 0;
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
        const __m512i s = _mm512_loadu_si512(sigs + t);
        // testn: lanes where (s & nq) == 0 — the filter passes.
        const __mmask8 mask = _mm512_testn_epi64_mask(s, nq);
        // Branchless extraction: compress-store the matching lane
        // indices (match masks are inherently unpredictable, so a bit
        // loop here would stall on mispredicts). The masked store
        // writes exactly popcount(mask) entries.
        const __m256i idx = _mm256_add_epi32(
            lane_base, _mm256_set1_epi32(static_cast<int>(t)));
        _mm256_mask_compressstoreu_epi32(out + count, mask, idx);
        count += static_cast<unsigned>(
            std::popcount(static_cast<unsigned>(mask)));
    }
    for (; t < n; ++t)
        if ((sigs[t] & not_query) == 0)
            out[count++] = static_cast<std::uint32_t>(t);
    return count;
}

} // namespace

const SimdOps&
simdOpsAvx512()
{
    static const SimdOps ops = {SimdTier::kAvx512, "avx512",
                                popcountAvx512, signatureScanAvx512};
    return ops;
}

} // namespace prosperity::detail

#endif // AVX-512 feature set
