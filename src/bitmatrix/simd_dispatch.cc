/**
 * @file
 * Tier detection and dispatch for the SIMD bit kernels.
 *
 * This TU is compiled with the repo's plain baseline flags — it must
 * run on any host, so it contains no vector intrinsics; it holds the
 * scalar table (the word_kernels.h loops themselves). It decides which
 * tier table (simd_tiers.h) to publish: the widest tier that is
 * (a) compiled into this binary and (b) executable on this CPU/OS,
 * unless PROSPERITY_SIMD or setSimdTier() forces another one.
 */

#include "simd_dispatch.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "bitmatrix/simd_tiers.h"
#include "bitmatrix/word_kernels.h"
#include "util/thread_annotations.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define PROSPERITY_X86 1
#endif

namespace prosperity {

namespace {

/** Scalar reference table: always available, the ground truth every
 *  vector tier is differentially tested against. */
const SimdOps kScalarOps = {SimdTier::kScalar, "scalar", popcountWords};

#ifdef PROSPERITY_X86

/** XGETBV xcr0 — which vector register states the OS saves/restores. */
std::uint64_t
readXcr0()
{
    std::uint32_t eax = 0, edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false; // F+BW+VL+DQ+VPOPCNTDQ, with OS zmm state
};

CpuFeatures
detectCpu()
{
    CpuFeatures f;
    std::uint32_t eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx >> 27) & 1;
    const bool avx = (ecx >> 28) & 1;
    if (!osxsave || !avx)
        return f;
    const std::uint64_t xcr0 = readXcr0();
    const bool os_ymm = (xcr0 & 0x6) == 0x6;
    const bool os_zmm = (xcr0 & 0xe6) == 0xe6;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.avx2 = os_ymm && ((ebx >> 5) & 1);
        const bool avx512f = (ebx >> 16) & 1;
        const bool avx512dq = (ebx >> 17) & 1;
        const bool avx512bw = (ebx >> 30) & 1;
        const bool avx512vl = (ebx >> 31) & 1;
        const bool vpopcntdq = (ecx >> 14) & 1;
        f.avx512 = os_zmm && avx512f && avx512dq && avx512bw &&
                   avx512vl && vpopcntdq;
    }
    return f;
}

#else // !PROSPERITY_X86

struct CpuFeatures
{
    bool avx2 = false;
    bool avx512 = false;
};

CpuFeatures
detectCpu()
{
    return {};
}

#endif // PROSPERITY_X86

/** Table for `tier`, or nullptr when not compiled in / not runnable. */
const SimdOps*
tierTable(SimdTier tier)
{
    static const CpuFeatures cpu = detectCpu();
    switch (tier) {
    case SimdTier::kScalar:
        return &kScalarOps;
    case SimdTier::kAvx2:
#ifdef PROSPERITY_SIMD_HAS_AVX2
        if (cpu.avx2)
            return &detail::simdOpsAvx2();
#endif
        return nullptr;
    case SimdTier::kAvx512:
#ifdef PROSPERITY_SIMD_HAS_AVX512
        if (cpu.avx512)
            return &detail::simdOpsAvx512();
#endif
        return nullptr;
    }
    return nullptr;
}

/** Widest available tier at or below `ceiling`. */
const SimdOps*
bestTableAtOrBelow(SimdTier ceiling)
{
    for (int t = static_cast<int>(ceiling); t > 0; --t)
        if (const SimdOps* ops = tierTable(static_cast<SimdTier>(t)))
            return ops;
    return &kScalarOps;
}

/** Auto selection: PROSPERITY_SIMD override, else widest available. */
const SimdOps*
autoSelect()
{
    const char* env = std::getenv("PROSPERITY_SIMD");
    if (env != nullptr && env[0] != '\0') {
        const std::optional<SimdTier> wanted = parseSimdTier(env);
        if (!wanted) {
            std::fprintf(stderr,
                         "prosperity: PROSPERITY_SIMD=%s is not a tier "
                         "(scalar, avx2, avx512); using "
                         "auto-detection\n",
                         env);
        } else if (const SimdOps* ops = tierTable(*wanted)) {
            return ops;
        } else {
            const SimdOps* fallback = bestTableAtOrBelow(*wanted);
            std::fprintf(stderr,
                         "prosperity: PROSPERITY_SIMD=%s is unavailable "
                         "on this host; using %s\n",
                         env, fallback->name);
            return fallback;
        }
    }
    return bestTableAtOrBelow(SimdTier::kAvx512);
}

/** The published table: lock-free fast path for every kernel call. */
std::atomic<const SimdOps*> g_active{nullptr};
/** Serializes tier (re)selection — the one-time install and the
 *  test-only setSimdTier/resetSimdTier overrides. */
util::Mutex g_select_mutex;

} // namespace

const SimdOps&
simdOps()
{
    const SimdOps* ops = g_active.load(std::memory_order_acquire);
    if (ops != nullptr)
        return *ops;
    util::MutexLock lock(g_select_mutex);
    ops = g_active.load(std::memory_order_acquire);
    if (ops == nullptr) {
        ops = autoSelect();
        g_active.store(ops, std::memory_order_release);
    }
    return *ops;
}

SimdTier
activeSimdTier()
{
    return simdOps().tier;
}

const char*
simdTierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::kScalar:
        return "scalar";
    case SimdTier::kAvx2:
        return "avx2";
    case SimdTier::kAvx512:
        return "avx512";
    }
    return "unknown";
}

std::optional<SimdTier>
parseSimdTier(const std::string& name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "scalar")
        return SimdTier::kScalar;
    if (lower == "avx2")
        return SimdTier::kAvx2;
    if (lower == "avx512" || lower == "avx-512")
        return SimdTier::kAvx512;
    return std::nullopt;
}

bool
simdTierAvailable(SimdTier tier)
{
    util::MutexLock lock(g_select_mutex);
    return tierTable(tier) != nullptr;
}

std::vector<SimdTier>
availableSimdTiers()
{
    util::MutexLock lock(g_select_mutex);
    std::vector<SimdTier> tiers;
    for (int t = 0; t <= static_cast<int>(SimdTier::kAvx512); ++t)
        if (tierTable(static_cast<SimdTier>(t)) != nullptr)
            tiers.push_back(static_cast<SimdTier>(t));
    return tiers;
}

bool
setSimdTier(SimdTier tier)
{
    util::MutexLock lock(g_select_mutex);
    const SimdOps* ops = tierTable(tier);
    if (ops == nullptr)
        return false;
    g_active.store(ops, std::memory_order_release);
    return true;
}

void
resetSimdTier()
{
    util::MutexLock lock(g_select_mutex);
    g_active.store(autoSelect(), std::memory_order_release);
}

} // namespace prosperity
