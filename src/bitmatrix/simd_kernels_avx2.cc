/**
 * @file
 * AVX2 tier: 256-bit (4-word) kernels, compiled with -mavx2 -mpopcnt
 * (CMake sets the flags on this TU only). Both functions are exact-n
 * safe — vector main loop, scalar tail — and bit-identical to the
 * scalar reference in word_kernels.h; tests/test_simd_kernels.cc
 * enforces the equivalence.
 *
 * Popcounts use the Mula pshufb nibble-LUT with _mm256_sad_epu8
 * accumulation; the signature scan tests 4 candidates per compare.
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

/**
 * Byte shuffles compressing the dwords selected by a 4-bit lane mask
 * to the front of an XMM register (0x80 lanes shuffle in zeros).
 * Indexed by the movemask below; entry m moves dword i (bytes 4i ..
 * 4i+3) ahead of dword j when i < j and both bits are set.
 */
alignas(16) const std::uint8_t kCompressDword[16][16] = {
    {128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128},
    {4, 5, 6, 7, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 4, 5, 6, 7, 128, 128, 128, 128, 128, 128, 128, 128},
    {8, 9, 10, 11, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 8, 9, 10, 11, 128, 128, 128, 128, 128, 128, 128, 128},
    {4, 5, 6, 7, 8, 9, 10, 11, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 128, 128, 128, 128},
    {12, 13, 14, 15, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 12, 13, 14, 15, 128, 128, 128, 128, 128, 128, 128, 128},
    {4, 5, 6, 7, 12, 13, 14, 15, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 128, 128, 128, 128},
    {8, 9, 10, 11, 12, 13, 14, 15, 128, 128, 128, 128, 128, 128, 128, 128},
    {0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15, 128, 128, 128, 128},
    {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 128, 128, 128, 128},
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
};

std::size_t
signatureScanAvx2(const std::uint64_t* sigs, std::size_t n,
                  std::uint64_t query_sig, std::uint32_t* out)
{
    const std::uint64_t not_query = ~query_sig;
    const __m256i nq = _mm256_set1_epi64x(
        static_cast<long long>(not_query));
    const __m256i zero = _mm256_setzero_si256();
    const __m128i lane_base = _mm_setr_epi32(0, 1, 2, 3);
    std::size_t count = 0;
    std::size_t t = 0;
    // Branchless survivor extraction: real match masks are
    // unpredictable (that is the point of the prefilter), so a
    // data-dependent bit loop here mispredicts its way past any gain
    // from the vector compare. Instead every iteration shuffles the
    // matching lane indices to the front (16-entry dword-compress LUT)
    // and stores 16 bytes unconditionally; count advances by
    // popcount(mask), so losers are overwritten by the next batch.
    // out[] therefore needs room for n entries (contract in
    // word_kernels.h) but never sees an index past the scanned range:
    // count <= t before each store, so the store ends by t + 4 <= n.
    for (; t + 4 <= n; t += 4) {
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sigs + t));
        const __m256i bad = _mm256_and_si256(s, nq);
        const __m256i ok = _mm256_cmpeq_epi64(bad, zero);
        const unsigned mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(ok)));
        const __m128i idx = _mm_add_epi32(
            lane_base, _mm_set1_epi32(static_cast<int>(t)));
        const __m128i packed = _mm_shuffle_epi8(
            idx, _mm_load_si128(reinterpret_cast<const __m128i*>(
                     kCompressDword[mask])));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count),
                         packed);
        count += static_cast<unsigned>(std::popcount(mask));
    }
    for (; t < n; ++t)
        if ((sigs[t] & not_query) == 0)
            out[count++] = static_cast<std::uint32_t>(t);
    return count;
}

} // namespace

const SimdOps&
simdOpsAvx2()
{
    static const SimdOps ops = {SimdTier::kAvx2, "avx2", popcountAvx2,
                                signatureScanAvx2};
    return ops;
}

} // namespace prosperity::detail

#endif // __AVX2__
