/**
 * @file
 * AVX2 tier: 256-bit (4-word) popcount, compiled with -mavx2 -mpopcnt
 * (CMake sets the flags on this TU only). Exact-n safe — vector main
 * loop, scalar tail — and bit-identical to the scalar reference in
 * word_kernels.h; tests/test_simd_kernels.cc enforces the equivalence.
 *
 * Popcounts use the Mula pshufb nibble-LUT with _mm256_sad_epu8
 * accumulation.
 */

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

#include "bitmatrix/simd_tiers.h"

namespace prosperity::detail {

namespace {

/** Per-64-bit-lane popcounts of `v` (Mula's pshufb nibble LUT). */
inline __m256i
popcountLanes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_nibble = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibble);
    const __m256i counts = _mm256_add_epi8(
        _mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::uint64_t
horizontalSum(__m256i acc)
{
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

std::size_t
popcountAvx2(const std::uint64_t* words, std::size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + i));
        acc = _mm256_add_epi64(acc, popcountLanes(v));
    }
    std::size_t count = static_cast<std::size_t>(horizontalSum(acc));
    for (; i < n; ++i)
        count += static_cast<std::size_t>(std::popcount(words[i]));
    return count;
}

} // namespace

const SimdOps&
simdOpsAvx2()
{
    static const SimdOps ops = {SimdTier::kAvx2, "avx2", popcountAvx2};
    return ops;
}

} // namespace prosperity::detail

#endif // __AVX2__
