#include "spike_generator.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <span>
#include <vector>

#include "bitmatrix/word_kernels.h"
#include "sim/logging.h"

namespace prosperity {

SpikeGenerator::SpikeGenerator(ActivationProfile profile, std::uint64_t seed)
    : profile_(profile), seed_(seed)
{
    PROSPERITY_ASSERT(profile_.bit_density > 0.0 &&
                          profile_.bit_density < 1.0,
                      "bit density must lie in (0, 1)");
    PROSPERITY_ASSERT(profile_.cluster_fraction >= 0.0 &&
                          profile_.cluster_fraction <= 1.0,
                      "cluster fraction must lie in [0, 1]");
}

double
SpikeGenerator::layerDensity(std::size_t layer_index) const
{
    // Deterministic +/-15% per-layer jitter around the workload target,
    // mimicking the layer-to-layer density variation of real SNNs.
    Rng rng(seed_ ^ (0xa5a5a5a5ULL + layer_index * 0x9e3779b9ULL));
    const double jitter = 0.85 + 0.30 * rng.nextDouble();
    return std::clamp(profile_.bit_density * jitter, 0.005, 0.95);
}

BitMatrix
SpikeGenerator::generate(std::size_t rows, std::size_t cols,
                         std::size_t time_steps,
                         std::size_t layer_index) const
{
    BitMatrix out(rows, cols);
    if (rows == 0 || cols == 0)
        return out;

    Rng rng = Rng(seed_).split(layer_index + 1);
    const double density = layerDensity(layer_index);

    // Base patterns are denser than the target so that subset-dropped
    // clustered rows land back on it: d_base * (1 - q) = density.
    const double drop = profile_.subset_drop_prob;
    const double base_density = std::min(0.95, density / (1.0 - drop));

    // Each bank entry is an *ordered* spike set: clustered rows take a
    // Binomial-length prefix of the order, so any two rows drawn from
    // the same bank are nested (one is a subset of the other) — and
    // prefixes of a set sequence stay nested inside every k-column
    // window, which is exactly the structure ProSparsity harvests
    // tile by tile. Real SNN activations exhibit this because strongly
    // driven neurons fire across many rows while weakly driven ones
    // drop out row by row.
    const std::size_t bank_size =
        std::max<std::size_t>(1, profile_.bank_size);
    std::vector<std::vector<std::size_t>> bank_order(bank_size);
    // Entry e's prefix snapshots are rows first_snapshot[e] + j of
    // `snapshots`, j = 0 .. |order| / 64: row j holds the order's first
    // 64 * j spikes, so a prefix of `keep` spikes is one word-level OR
    // of snapshot keep / 64 plus at most 63 single-bit sets.
    std::vector<std::size_t> first_snapshot(bank_size);
    std::size_t snapshot_rows = 0;
    // Each entry's base is drawn into one reused row (randomizeRow
    // overwrites every word) and walked into its order.
    BitMatrix base(1, cols);
    for (std::size_t e = 0; e < bank_size; ++e) {
        auto& order = bank_order[e];
        base.randomizeRow(0, rng, base_density);
        const std::span<const std::uint64_t> words = base.row(0);
        order.reserve(popcountWords(words.data(), words.size()));
        forEachSetBit(words.data(), words.size(),
                      [&](std::size_t pos) { order.push_back(pos); });
        // Fisher-Yates shuffle so chain prefixes are spatially spread.
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
        first_snapshot[e] = snapshot_rows;
        snapshot_rows += order.size() / 64 + 1;
    }
    BitMatrix snapshots(snapshot_rows, cols);
    for (std::size_t e = 0; e < bank_size; ++e) {
        const auto& order = bank_order[e];
        std::size_t row = first_snapshot[e];
        for (std::size_t i = 0; i + 64 <= order.size(); i += 64, ++row) {
            snapshots.copyRow(row + 1, row);
            for (std::size_t k = i; k < i + 64; ++k)
                snapshots.set(row + 1, order[k]);
        }
    }

    const std::size_t positions =
        time_steps > 0 && rows % time_steps == 0 ? rows / time_steps : rows;

    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t t = r / positions;
        // Exact-match structure across time steps: re-emit the previous
        // step's row for the same spatial position.
        if (t > 0 && rng.nextBool(profile_.temporal_repeat)) {
            out.copyRow(r, r - positions);
            continue;
        }
        if (rng.nextBool(profile_.cluster_fraction)) {
            // Union rows span two banks (both halves shortened so the
            // density target holds); single-bank rows take one prefix.
            const bool is_union = rng.nextBool(profile_.union_prob);
            const int parts = is_union ? 2 : 1;
            for (int part = 0; part < parts; ++part) {
                const std::size_t entry = rng.nextBelow(bank_size);
                const auto& order = bank_order[entry];
                // Keep-length ~ Binomial(|order|, (1 - drop) / parts),
                // drawn word-parallel: popcounts of Bernoulli words
                // instead of |order| scalar coin flips.
                const double keep_prob = (1.0 - drop) / parts;
                const std::size_t keep =
                    rng.nextBinomial(order.size(), keep_prob);
                const std::size_t whole = keep / 64;
                out.orRow(r, snapshots, first_snapshot[entry] + whole);
                for (std::size_t i = whole * 64; i < keep; ++i)
                    out.set(r, order[i]);
            }
            // Stray spikes: rare uncorrelated firings that perturb the
            // cluster structure (and limit how wide a TCAM window can
            // profitably be — Fig. 7).
            if (profile_.noise_insert_prob > 0.0) {
                const double expected =
                    profile_.noise_insert_prob *
                    static_cast<double>(cols);
                std::size_t strays = static_cast<std::size_t>(expected);
                if (rng.nextBool(expected - std::floor(expected)))
                    ++strays;
                for (std::size_t i = 0; i < strays; ++i)
                    out.set(r, rng.nextBelow(cols));
            }
        } else {
            out.randomizeRow(r, rng, density);
        }
    }
    return out;
}

BitMatrix
SpikeGenerator::generateLayer(const LayerSpec& layer,
                              std::size_t layer_index) const
{
    if (layer.profile_override)
        return SpikeGenerator(*layer.profile_override, seed_)
            .generate(layer.gemm.m, layer.gemm.k, layer.time_steps,
                      layer_index);
    return generate(layer.gemm.m, layer.gemm.k, layer.time_steps,
                    layer_index);
}

bool
sameLayerSpikes(const LayerSpec& a, const LayerSpec& b)
{
    if (a.isSpikingGemm() != b.isSpikingGemm())
        return false;
    return !a.isSpikingGemm() ||
           (a.gemm.m == b.gemm.m && a.gemm.k == b.gemm.k &&
            a.time_steps == b.time_steps &&
            a.profile_override == b.profile_override);
}

namespace {

/** Append `v` in its shortest round-trip form: exact, so canonical. */
template <typename T>
void
appendNumber(std::string& out, T v)
{
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
appendProfile(std::string& out, const ActivationProfile& p)
{
    for (const double v : {p.bit_density, p.cluster_fraction,
                           p.subset_drop_prob, p.temporal_repeat,
                           p.union_prob, p.noise_insert_prob}) {
        appendNumber(out, v);
        out += ',';
    }
    appendNumber(out, p.bank_size);
}

} // namespace

std::string
spikeStreamKey(const ModelSpec& model, const ActivationProfile& profile,
               std::uint64_t seed)
{
    // The seed first: it tells most unequal keys apart at once. Then
    // one entry per layer position, since the position seeds the
    // layer's stream: '-' for a layer the generator skips, else what
    // generateLayer reads.
    std::string key;
    appendNumber(key, seed);
    key += '|';
    appendProfile(key, profile);
    key += '|';
    for (const LayerSpec& layer : model.layers) {
        if (!layer.isSpikingGemm()) {
            key += "-;";
            continue;
        }
        appendNumber(key, layer.gemm.m);
        key += ',';
        appendNumber(key, layer.gemm.k);
        key += ',';
        appendNumber(key, layer.time_steps);
        if (layer.profile_override) {
            key += '{';
            appendProfile(key, *layer.profile_override);
            key += '}';
        }
        key += ';';
    }
    return key;
}

WeightMatrix
randomWeights(std::size_t k, std::size_t n, std::uint64_t seed)
{
    WeightMatrix w(k, n);
    Rng rng(seed);
    w.randomizeInt(rng, -127, 127);
    return w;
}

} // namespace prosperity
