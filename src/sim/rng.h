/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All experiments in the repository are seeded, so every bench and test
 * run is reproducible. The generator is xoshiro256** (public domain,
 * Blackman & Vigna), chosen over std::mt19937 for speed and a compact,
 * well-understood state that is trivial to split into independent
 * streams per layer / per tile.
 */

#ifndef PROSPERITY_SIM_RNG_H
#define PROSPERITY_SIM_RNG_H

#include <array>
#include <cstdint>

namespace prosperity {

/** xoshiro256** deterministic PRNG. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Uniform 64-bit draw (UniformRandomBitGenerator interface). */
    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) without modulo bias. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /**
     * Fill `dst[0..nwords)` with words of 64 independent Bernoulli(p)
     * bits — the word-parallel replacement for 64 nextBool(p) calls
     * per word in the spike-generation hot path.
     *
     * `p` is quantized to kBernoulliBits binary digits and synthesized
     * from the binary expansion: one raw draw per significant digit
     * (at most kBernoulliBits draws per word, versus 64 for bit by
     * bit). The draws are word-major, so an n-word batch leaves the
     * same words and stream state as n one-word batches (pinned by
     * tests/test_simd_kernels.cc), and they depend only on the
     * quantized p, so outputs are deterministic per (seed, p).
     */
    void nextBernoulliWords(std::uint64_t* dst, std::size_t nwords,
                            double p);

    /**
     * Binomial(n, p) draw via popcounts of nextBernoulliWords batches:
     * exactly the number of successes in n Bernoulli(p) trials, at
     * ~kBernoulliBits/64 raw draws per trial word.
     */
    std::size_t nextBinomial(std::size_t n, double p);

    /** Probability resolution of nextBernoulliWords / nextBinomial. */
    static constexpr int kBernoulliBits = 24;

    /**
     * Derive an independent child stream. Used to give each layer and
     * tile its own stream so results do not depend on evaluation order.
     */
    Rng split(std::uint64_t stream_id) const;

  private:
    std::array<std::uint64_t, 4> state_;
};

} // namespace prosperity

#endif // PROSPERITY_SIM_RNG_H
