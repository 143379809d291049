#include "bit_vector.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "bitmatrix/simd_dispatch.h"
#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t
wordsFor(std::size_t bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

} // namespace

BitVector::BitVector(std::size_t bits)
    : bits_(bits), word_count_(wordsFor(bits))
{
    if (word_count_ > kInlineWords)
        heap_words_ = std::make_unique<std::uint64_t[]>(word_count_);
    // Inline storage is zero-initialized by the member initializer;
    // make_unique value-initializes the heap block.
}

BitVector::BitVector(const BitVector& other)
    : bits_(other.bits_), word_count_(other.word_count_)
{
    if (other.heap_words_) {
        heap_words_ = std::make_unique<std::uint64_t[]>(word_count_);
        std::copy_n(other.heap_words_.get(), word_count_,
                    heap_words_.get());
    } else {
        std::copy_n(other.inline_words_, kInlineWords, inline_words_);
    }
}

BitVector::BitVector(BitVector&& other) noexcept
    : bits_(other.bits_), word_count_(other.word_count_),
      heap_words_(std::move(other.heap_words_))
{
    std::copy_n(other.inline_words_, kInlineWords, inline_words_);
    other.bits_ = 0;
    other.word_count_ = 0;
    std::fill_n(other.inline_words_, kInlineWords, 0);
}

BitVector&
BitVector::operator=(const BitVector& other)
{
    if (this == &other)
        return *this;
    if (other.heap_words_) {
        // Reuse our block when the sizes match; reallocate otherwise.
        if (!heap_words_ || word_count_ != other.word_count_)
            heap_words_ =
                std::make_unique<std::uint64_t[]>(other.word_count_);
        std::copy_n(other.heap_words_.get(), other.word_count_,
                    heap_words_.get());
    } else {
        heap_words_.reset();
        std::copy_n(other.inline_words_, kInlineWords, inline_words_);
    }
    bits_ = other.bits_;
    word_count_ = other.word_count_;
    return *this;
}

BitVector&
BitVector::operator=(BitVector&& other) noexcept
{
    if (this == &other)
        return *this;
    heap_words_ = std::move(other.heap_words_);
    std::copy_n(other.inline_words_, kInlineWords, inline_words_);
    bits_ = other.bits_;
    word_count_ = other.word_count_;
    other.bits_ = 0;
    other.word_count_ = 0;
    std::fill_n(other.inline_words_, kInlineWords, 0);
    return *this;
}

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

void
BitVector::clear()
{
    std::fill_n(data(), word_count_, 0);
}

std::size_t
BitVector::popcount() const
{
    return simdOps().popcountWords(data(), word_count_);
}

bool
BitVector::isSubsetOf(const BitVector& other) const
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    return isSubsetOfWords(data(), other.data(), word_count_);
}

std::size_t
BitVector::findFirst() const
{
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < word_count_; ++i)
        if (w[i])
            return i * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(w[i]));
    return bits_;
}

std::size_t
BitVector::findNext(std::size_t pos) const
{
    ++pos;
    if (pos >= bits_)
        return bits_;
    const std::uint64_t* w = data();
    std::size_t word = pos / kWordBits;
    std::uint64_t masked = w[word] & (~0ULL << (pos % kWordBits));
    for (;;) {
        if (masked)
            return word * kWordBits +
                   static_cast<std::size_t>(std::countr_zero(masked));
        if (++word >= word_count_)
            return bits_;
        masked = w[word];
    }
}

std::vector<std::size_t>
BitVector::setBits() const
{
    std::vector<std::size_t> out;
    out.reserve(popcount());
    for (std::size_t pos = findFirst(); pos < bits_; pos = findNext(pos))
        out.push_back(pos);
    return out;
}

BitVector
BitVector::operator&(const BitVector& other) const
{
    BitVector out(*this);
    out &= other;
    return out;
}

BitVector
BitVector::operator|(const BitVector& other) const
{
    BitVector out(*this);
    out |= other;
    return out;
}

BitVector
BitVector::andNot(const BitVector& other) const
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    // Both operands are canonical (zero tail), so x & ~y has a zero
    // tail too: x's tail contributes nothing.
    BitVector out(bits_);
    const std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    std::uint64_t* o = out.data();
    for (std::size_t i = 0; i < word_count_; ++i)
        o[i] = a[i] & ~b[i];
    return out;
}

// The compound bitwise operators write words_ directly: AND/OR of
// two canonical (zero-tail) operands of equal width are canonical by
// construction, and the branch-free loops auto-vectorize. Only writes
// that can carry arbitrary out-of-range bits — setWord, randomize —
// must funnel through storeWord.

BitVector&
BitVector::operator&=(const BitVector& other)
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t i = 0; i < word_count_; ++i)
        a[i] &= b[i];
    return *this;
}

BitVector&
BitVector::operator|=(const BitVector& other)
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t i = 0; i < word_count_; ++i)
        a[i] |= b[i];
    return *this;
}

bool
BitVector::operator==(const BitVector& other) const
{
    return bits_ == other.bits_ &&
           std::equal(data(), data() + word_count_, other.data());
}

void
BitVector::randomize(Rng& rng, double density)
{
    // Whole-row batched draw: one nextBernoulliWords call fills every
    // logical word with the exact bit stream the per-word loop drew
    // (same draws, same order — the per-(seed, layer) hash pins in
    // tests/test_spike_generator.cc hold), then one masked store
    // restores the tail invariant.
    if (word_count_ == 0)
        return;
    rng.nextBernoulliWords(data(), word_count_, density);
    data()[word_count_ - 1] &= wordMask(word_count_ - 1);
}

std::string
BitVector::toString() const
{
    std::string out(bits_, '0');
    for (std::size_t pos = 0; pos < bits_; ++pos)
        if (test(pos))
            out[pos] = '1';
    return out;
}

std::uint64_t
BitVector::hash() const
{
    // FNV-1a over the words; the zero-padded tail keeps this
    // canonical.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < word_count_; ++i) {
        h ^= w[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
BitVector::setWord(std::size_t index, std::uint64_t value)
{
    PROSPERITY_ASSERT(index < word_count_, "word index out of range");
    storeWord(index, value);
}

void
BitVector::storeWord(std::size_t index, std::uint64_t value)
{
    data()[index] = value & wordMask(index);
}

std::uint64_t
BitVector::wordMask(std::size_t index) const
{
    const std::size_t tail = bits_ % kWordBits;
    if (tail == 0 || index + 1 != word_count_)
        return ~0ULL;
    return (1ULL << tail) - 1;
}

} // namespace prosperity
