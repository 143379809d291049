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

/** Logical word count rounded up to the SIMD row stride. */
std::size_t
strideFor(std::size_t bits)
{
    const std::size_t words = wordsFor(bits);
    const std::size_t stride = BitVector::kRowStrideWords;
    return (words + stride - 1) / stride * stride;
}

} // namespace

BitVector::BitVector(std::size_t bits)
    : bits_(bits), word_count_(wordsFor(bits)), stride_words_(strideFor(bits))
{
    if (stride_words_ > kRowStrideWords)
        heap_words_ = std::make_unique<std::uint64_t[]>(stride_words_);
    // Inline storage is zero-initialized by the member initializer;
    // make_unique value-initializes the heap block.
}

BitVector::BitVector(const BitVector& other)
    : bits_(other.bits_), word_count_(other.word_count_),
      stride_words_(other.stride_words_)
{
    if (other.heap_words_) {
        heap_words_ = std::make_unique<std::uint64_t[]>(stride_words_);
        std::copy_n(other.heap_words_.get(), stride_words_,
                    heap_words_.get());
    } else {
        std::copy_n(other.inline_words_, kRowStrideWords, inline_words_);
    }
}

BitVector::BitVector(BitVector&& other) noexcept
    : bits_(other.bits_), word_count_(other.word_count_),
      stride_words_(other.stride_words_),
      heap_words_(std::move(other.heap_words_))
{
    std::copy_n(other.inline_words_, kRowStrideWords, inline_words_);
    other.bits_ = 0;
    other.word_count_ = 0;
    other.stride_words_ = 0;
    std::fill_n(other.inline_words_, kRowStrideWords, 0);
}

BitVector&
BitVector::operator=(const BitVector& other)
{
    if (this == &other)
        return *this;
    if (other.heap_words_) {
        // Reuse our block when the strides match; reallocate otherwise.
        if (!heap_words_ || stride_words_ != other.stride_words_)
            heap_words_ =
                std::make_unique<std::uint64_t[]>(other.stride_words_);
        std::copy_n(other.heap_words_.get(), other.stride_words_,
                    heap_words_.get());
    } else {
        heap_words_.reset();
        std::copy_n(other.inline_words_, kRowStrideWords, inline_words_);
    }
    bits_ = other.bits_;
    word_count_ = other.word_count_;
    stride_words_ = other.stride_words_;
    return *this;
}

BitVector&
BitVector::operator=(BitVector&& other) noexcept
{
    if (this == &other)
        return *this;
    heap_words_ = std::move(other.heap_words_);
    std::copy_n(other.inline_words_, kRowStrideWords, inline_words_);
    bits_ = other.bits_;
    word_count_ = other.word_count_;
    stride_words_ = other.stride_words_;
    other.bits_ = 0;
    other.word_count_ = 0;
    other.stride_words_ = 0;
    std::fill_n(other.inline_words_, kRowStrideWords, 0);
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

// The query ops below go through the dispatched SIMD table. Wide
// vectors hand the kernels the whole padded stride — pad words are
// zero, so popcount / subset / any results are unchanged and the
// vector tiers never hit their scalar tail loops. Vectors narrower
// than one stride pass the logical count instead: sweeping a full
// 8-word stride for a 1-word row would be pure overhead on the
// paper's 16-column tiles.

bool
BitVector::any() const
{
    return simdOps().anyWord(data(), queryLen());
}

void
BitVector::clear()
{
    std::fill_n(data(), stride_words_, 0);
}

std::size_t
BitVector::popcount() const
{
    return simdOps().popcountWords(data(), queryLen());
}

bool
BitVector::isSubsetOf(const BitVector& other) const
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    return simdOps().isSubsetOfWords(data(), other.data(), queryLen());
}

std::uint64_t
BitVector::signature() const
{
    // Logical count, not the stride: the signature's group mapping
    // depends on n (for one logical word it IS the word), so padding
    // would weaken the filter and change signature() values.
    return simdOps().signatureWords(data(), word_count_);
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

std::size_t
BitVector::andPopcount(const BitVector& other) const
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    return simdOps().andPopcountWords(data(), other.data(), queryLen());
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
BitVector::operator^(const BitVector& other) const
{
    BitVector out(*this);
    out ^= other;
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
    for (std::size_t i = 0; i < stride_words_; ++i)
        o[i] = a[i] & ~b[i];
    return out;
}

// The compound bitwise operators write words_ directly: AND/OR/XOR of
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
    for (std::size_t i = 0; i < stride_words_; ++i)
        a[i] &= b[i];
    return *this;
}

BitVector&
BitVector::operator|=(const BitVector& other)
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t i = 0; i < stride_words_; ++i)
        a[i] |= b[i];
    return *this;
}

BitVector&
BitVector::operator^=(const BitVector& other)
{
    PROSPERITY_ASSERT(bits_ == other.bits_, "width mismatch");
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t i = 0; i < stride_words_; ++i)
        a[i] ^= b[i];
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
    // restores the tail invariant. Pad words are never written.
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
    // FNV-1a over the logical words (pad excluded, so values are
    // unchanged by the stride padding); the zero-padded tail keeps
    // this canonical.
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
