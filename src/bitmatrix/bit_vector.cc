#include "bit_vector.h"

#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

BitVector
BitVector::fromString(const std::string& pattern)
{
    BitVector v(pattern.size());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        const char c = pattern[i];
        PROSPERITY_ASSERT(c == '0' || c == '1',
                          "bit pattern must contain only 0/1");
        if (c == '1')
            v.set(i);
    }
    return v;
}

std::vector<std::size_t>
BitVector::setBits() const
{
    std::vector<std::size_t> out;
    forEachSetBit(words_.data(), words_.size(),
                  [&](std::size_t pos) { out.push_back(pos); });
    return out;
}

void
BitVector::randomize(Rng& rng, double density)
{
    // Same draws, same order as the per-word loop it replaced: the
    // per-(seed, layer) hash pins in tests/test_spike_generator.cc hold.
    if (words_.empty())
        return;
    rng.nextBernoulliWords(words_.data(), words_.size(), density);
    words_.back() &= lastWordMask(bits_);
}

} // namespace prosperity
