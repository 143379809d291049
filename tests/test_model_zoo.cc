/**
 * @file
 * Pins the built-in model zoo to the paper's published configurations
 * (Sec. VII-A: "we use the default configuration for number of layers,
 * dimensions, and time steps"): per-model layer counts, spiking-GeMM
 * counts, exact dense/spiking op totals, and per-layer GeMM shapes.
 * Registry or lowering refactors that silently drift any model's
 * geometry fail here first, and a per-model digest of the lowering on
 * every registered dataset catches a change to any single field.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "snn/model_registry.h"
#include "snn/workload.h"

namespace prosperity {
namespace {

/** 64-bit FNV-1a over a fixed little-endian encoding, so a digest is
 *  the same on every host. */
class Fnv1a
{
  public:
    void
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    void
    str(const std::string& s)
    {
        u64(s.size());
        for (const unsigned char c : s) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Digest of `model` lowered for every registered dataset: the model's
 *  name and time steps, then every field operator==(LayerSpec)
 *  compares. */
std::uint64_t
zooDigest(const std::string& model)
{
    Fnv1a h;
    for (const std::string& dataset : DatasetRegistry::instance().names()) {
        const ModelSpec m = ModelRegistry::instance().build(
            model, defaultInputConfig(dataset));
        h.str(m.name);
        h.u64(m.time_steps);
        for (const LayerSpec& l : m.layers) {
            h.str(l.name);
            h.u64(static_cast<std::uint64_t>(l.type));
            h.u64(l.time_steps);
            h.u64(l.gemm.m);
            h.u64(l.gemm.k);
            h.u64(l.gemm.n);
            h.u64(l.gemm.input_reuse);
            h.f64(l.sfu_ops);
            h.u64(l.spiking ? 1 : 0);
            h.u64(l.profile_override ? 1 : 0);
            if (const auto& p = l.profile_override) {
                h.f64(p->bit_density);
                h.f64(p->cluster_fraction);
                h.u64(p->bank_size);
                h.f64(p->subset_drop_prob);
                h.f64(p->temporal_repeat);
                h.f64(p->union_prob);
                h.f64(p->noise_insert_prob);
            }
        }
    }
    return h.value();
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

struct ZooPin
{
    const char* model;
    const char* dataset;
    std::size_t layers;
    std::size_t spiking_gemms;
    double total_dense_ops;
    double spiking_gemm_ops;
};

/** Dense-op totals are exact doubles (sums of exact integer-valued
 *  products), so they pin bitwise. */
const ZooPin kZooPins[] = {
    {"VGG16", "CIFAR10", 20u, 14u, 1253855232.0, 1246777344.0},
    {"VGG9", "CIFAR10", 12u, 8u, 778870784.0, 771792896.0},
    {"ResNet18", "CIFAR10", 22u, 20u, 2221690880.0, 2214612992.0},
    {"LeNet5", "MNIST", 7u, 4u, 1666080.0, 1195680.0},
    {"AlexNet", "CIFAR10", 11u, 7u, 688693248.0, 681615360.0},
    {"ResNet19", "CIFAR10", 21u, 19u, 9140981760.0, 9126825984.0},
    {"Spikformer", "CIFAR10", 39u, 36u, 2122398720.0, 2117090304.0},
    {"SDT", "CIFAR10", 23u, 20u, 2104250368.0, 2097172480.0},
    {"SpikeBERT", "SST-2", 133u, 85u, 22045267968.0, 21894273024.0},
    {"SpikingBERT", "SST-2", 45u, 29u, 7348426752.0, 7298095104.0},
};

TEST(ModelZoo, LayerCountsAndOpTotalsArePinned)
{
    for (const ZooPin& pin : kZooPins) {
        const ModelSpec m =
            makeWorkload(pin.model, pin.dataset).buildModel();
        EXPECT_EQ(m.layers.size(), pin.layers) << pin.model;
        EXPECT_EQ(m.numSpikingGemms(), pin.spiking_gemms) << pin.model;
        EXPECT_EQ(m.totalDenseOps(), pin.total_dense_ops) << pin.model;
        EXPECT_EQ(m.spikingGemmOps(), pin.spiking_gemm_ops) << pin.model;
    }
}

TEST(ModelZoo, LoweringDigestsArePinnedOnEveryDataset)
{
    // Generated through ModelRegistry::build while the zoo was still
    // written as C++ builders, so the models/*.json definitions must
    // lower to exactly what those builders produced, field for field.
    const std::pair<const char*, std::uint64_t> kDigests[] = {
        {"VGG16", 0x0d23b1108b2b5e18ull},
        {"VGG9", 0x3854dea078099c89ull},
        {"ResNet18", 0x9b56e56484f51774ull},
        {"LeNet5", 0x3c01db6d60c2e3ceull},
        {"Spikformer", 0x1e2549d64d487f69ull},
        {"SDT", 0xfbdd5ba413420623ull},
        {"SpikeBERT", 0x38b236a989136e6aull},
        {"SpikingBERT", 0x1b028151e9c3b56full},
        {"AlexNet", 0x2c6703ac428d4d42ull},
        {"ResNet19", 0x2356dfcc5845a755ull},
    };
    for (const auto& [model, digest] : kDigests)
        EXPECT_EQ(hex(zooDigest(model)), hex(digest)) << model;
}

TEST(ModelZoo, LeNet5ShapesArePinnedLayerByLayer)
{
    struct Shape
    {
        const char* name;
        std::size_t m, k, n;
    };
    // The full lowered GeMM geometry of the smallest zoo member.
    const Shape expected[] = {
        {"conv1", 3136u, 25u, 6u}, {"pool1", 0u, 0u, 0u},
        {"conv2", 400u, 150u, 16u}, {"pool2", 0u, 0u, 0u},
        {"fc1", 4u, 400u, 120u},   {"fc2", 4u, 120u, 84u},
        {"fc3", 4u, 84u, 10u},
    };
    const ModelSpec m = makeWorkload("LeNet5", "MNIST").buildModel();
    ASSERT_EQ(m.layers.size(), std::size(expected));
    for (std::size_t i = 0; i < m.layers.size(); ++i) {
        EXPECT_EQ(m.layers[i].name, expected[i].name);
        EXPECT_EQ(m.layers[i].gemm.m, expected[i].m) << expected[i].name;
        EXPECT_EQ(m.layers[i].gemm.k, expected[i].k) << expected[i].name;
        EXPECT_EQ(m.layers[i].gemm.n, expected[i].n) << expected[i].name;
    }
}

TEST(ModelZoo, PublishedDimensionsSpotChecks)
{
    // VGG-16 conv5_3: 2x2 maps at 512 channels (CIFAR, after 4 pools).
    const ModelSpec vgg = makeWorkload("VGG16", "CIFAR10").buildModel();
    const LayerSpec* conv5_3 = nullptr;
    for (const LayerSpec& l : vgg.layers)
        if (l.name == "conv5_3")
            conv5_3 = &l;
    ASSERT_NE(conv5_3, nullptr);
    EXPECT_EQ(conv5_3->gemm.m, 4u * 2u * 2u);
    EXPECT_EQ(conv5_3->gemm.k, 512u * 9u);
    EXPECT_EQ(conv5_3->gemm.n, 512u);

    // Spikformer-4-384: 64 tokens at dim 384 on CIFAR.
    const ModelSpec spik =
        makeWorkload("Spikformer", "CIFAR10").buildModel();
    std::size_t qk_blocks = 0;
    for (const LayerSpec& l : spik.layers)
        if (l.type == LayerType::kAttentionQK) {
            ++qk_blocks;
            EXPECT_EQ(l.gemm.m, 4u * 64u);
            EXPECT_EQ(l.gemm.k, 384u);
            EXPECT_EQ(l.gemm.n, 64u);
        }
    EXPECT_EQ(qk_blocks, 4u);

    // SpikeBERT: BERT-base FFN expansion 768 -> 3072, 12 blocks.
    const ModelSpec bert =
        makeWorkload("SpikeBERT", "SST-2").buildModel();
    std::size_t ffn = 0;
    for (const LayerSpec& l : bert.layers)
        if (l.gemm.k == 768u && l.gemm.n == 3072u)
            ++ffn;
    EXPECT_EQ(ffn, 12u);

    // Time steps follow the dataset: CIFAR10DVS runs at T=8.
    const ModelSpec dvs =
        makeWorkload("ResNet18", "CIFAR10DVS").buildModel();
    EXPECT_EQ(dvs.time_steps, 8u);
    EXPECT_EQ(dvs.layers.front().gemm.m, 8u * 64u * 64u);
}

} // namespace
} // namespace prosperity
