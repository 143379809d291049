/**
 * @file
 * Internal linkage between the dispatch TU and the vector-tier kernel
 * TUs. Each vector tier is compiled in its own translation unit with
 * that tier's `-m` flags (see CMakeLists.txt); the TU defines its
 * table getter only when the compiler actually enabled the ISA, and
 * the dispatch TU references it only when the matching
 * PROSPERITY_SIMD_HAS_* definition was set by the build. Nothing in
 * here is part of the public API — include simd_dispatch.h instead.
 */

#ifndef PROSPERITY_BITMATRIX_SIMD_TIERS_H
#define PROSPERITY_BITMATRIX_SIMD_TIERS_H

#include "bitmatrix/simd_dispatch.h"

namespace prosperity::detail {

#ifdef PROSPERITY_SIMD_HAS_AVX2
const SimdOps& simdOpsAvx2();
#endif
#ifdef PROSPERITY_SIMD_HAS_AVX512
const SimdOps& simdOpsAvx512();
#endif

} // namespace prosperity::detail

#endif // PROSPERITY_BITMATRIX_SIMD_TIERS_H
