#include "rng.h"

#include <algorithm>
#include <bit>

namespace prosperity {

namespace {

/** splitmix64 seed expander (Steele et al.). */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection to avoid modulo bias: draws below 2^64 mod bound
    // (-bound % bound) are redrawn. That threshold is below bound, so
    // it only needs computing, with a second division, for a draw
    // below bound.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound || r >= -bound % bound)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

void
Rng::nextBernoulliWords(std::uint64_t* dst, std::size_t nwords,
                        double p)
{
    // p <= 0 (or NaN) and p >= 1 make no draws, and neither does a p
    // that quantizes to 0 or to 2^kBernoulliBits.
    constexpr std::uint64_t kOne = 1ULL << kBernoulliBits;
    const std::uint64_t q =
        p > 0.0 && p < 1.0
            ? static_cast<std::uint64_t>(p * static_cast<double>(kOne) +
                                         0.5)
            : (p >= 1.0 ? kOne : 0);
    if (q == 0 || q >= kOne) {
        std::fill_n(dst, nwords, q == 0 ? 0 : ~0ULL);
        return;
    }

    // Synthesize Bernoulli(q / 2^kBernoulliBits) per bit lane from the
    // binary expansion of q, least significant digit first: a set digit
    // ORs in a fresh uniform word (adding 1/2 of the remaining mass), a
    // clear digit ANDs one (halving it). Trailing zero digits leave the
    // accumulator all-zero, so each word starts at the lowest set digit.
    // p is quantized once for the whole batch, and the xoshiro state is
    // held in locals so it round-trips through registers instead of the
    // member array. The draw order is word-major — all draws for
    // dst[0], then dst[1], ... — so a batch makes the same draws as
    // `nwords` one-word batches.
    std::uint64_t s0 = state_[0], s1 = state_[1];
    std::uint64_t s2 = state_[2], s3 = state_[3];
    const auto draw = [&]() {
        const std::uint64_t result = rotl(s1 * 5, 7) * 9;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = rotl(s3, 45);
        return result;
    };
    const int first_digit = std::countr_zero(q) + 1;
    for (std::size_t w = 0; w < nwords; ++w) {
        std::uint64_t acc = draw();
        for (int b = first_digit; b < kBernoulliBits; ++b) {
            const std::uint64_t r = draw();
            acc = (q & (1ULL << b)) ? (r | acc) : (r & acc);
        }
        dst[w] = acc;
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
}

std::size_t
Rng::nextBinomial(std::size_t n, double p)
{
    // n trials are ceil(n / 64) Bernoulli words, drawn in chunks of
    // one stack buffer; the bits past n in the last word are masked off.
    std::array<std::uint64_t, 16> words;
    std::size_t count = 0;
    while (n > 0) {
        const std::size_t nwords = std::min(words.size(), (n + 63) / 64);
        nextBernoulliWords(words.data(), nwords, p);
        if (n < nwords * 64)
            words[nwords - 1] &= (1ULL << (n % 64)) - 1;
        for (std::size_t w = 0; w < nwords; ++w)
            count += static_cast<std::size_t>(std::popcount(words[w]));
        n -= std::min(n, nwords * 64);
    }
    return count;
}

Rng
Rng::split(std::uint64_t stream_id) const
{
    // Mix the stream id into a copy of the state through splitmix64 so
    // children with adjacent ids are decorrelated.
    std::uint64_t s = state_[0] ^ (stream_id * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(s));
}

} // namespace prosperity
