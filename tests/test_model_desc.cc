/**
 * @file
 * Tests for the declarative model format: the checked-in JSON zoo
 * files are canonical (parse -> serialize is the identity on bytes),
 * parse(serialize(desc)) == desc, per-layer profile overrides survive
 * lowering, malformed definitions fail with key-path errors, and
 * registering a file under a taken name follows one rule. The zoo's
 * lowering itself is pinned by tests/test_model_zoo.cc.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "snn/model_desc.h"
#include "snn/model_registry.h"

namespace prosperity {
namespace {

/** The checked-in built-in zoo and the model name each file defines. */
const char* const kZoo[][2] = {
    {"vgg16.json", "VGG16"},           {"vgg9.json", "VGG9"},
    {"resnet18.json", "ResNet18"},     {"lenet5.json", "LeNet5"},
    {"alexnet.json", "AlexNet"},       {"resnet19.json", "ResNet19"},
    {"spikformer.json", "Spikformer"}, {"sdt.json", "SDT"},
    {"spikebert.json", "SpikeBERT"},   {"spikingbert.json", "SpikingBERT"},
};

std::string
zooPath(const std::string& file)
{
    return defaultModelDir() + "/" + file;
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path);
    EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

TEST(ModelDesc, ZooFilesAreCanonical)
{
    // parse -> serialize reproduces each checked-in file byte for
    // byte, so regenerating the zoo can never produce spurious diffs.
    for (const auto& entry : kZoo) {
        const std::string text = readFile(zooPath(entry[0]));
        const ModelDesc desc =
            ModelDesc::fromJson(json::Value::parse(text));
        EXPECT_EQ(desc.toJson().dump(2) + "\n", text) << entry[0];
    }
}

TEST(ModelDesc, RoundTripIsExact)
{
    for (const auto& entry : kZoo) {
        const ModelDesc desc = ModelDesc::load(zooPath(entry[0]));
        const ModelDesc back =
            ModelDesc::fromJson(json::Value::parse(desc.toJson().dump()));
        EXPECT_TRUE(back == desc) << entry[0];
    }
    // And for the example with per-layer overrides + model profile.
    const ModelDesc custom =
        ModelDesc::load(zooPath("example_custom.json"));
    const ModelDesc back =
        ModelDesc::fromJson(json::Value::parse(custom.toJson().dump()));
    EXPECT_TRUE(back == custom);
    EXPECT_EQ(custom.toJson().dump(2) + "\n",
              readFile(zooPath("example_custom.json")))
        << "example_custom.json must stay canonical";
}

TEST(ModelDesc, PerLayerProfileOverridesSurviveLowering)
{
    const ModelDesc desc =
        ModelDesc::load(zooPath("example_custom.json"));
    ASSERT_TRUE(desc.profile.has_value());
    EXPECT_EQ(desc.profile->bit_density, 0.18);

    const ModelSpec model = desc.lower(desc.defaultInput());
    ASSERT_EQ(model.layers.size(), 5u);
    EXPECT_FALSE(model.layers[0].profile_override.has_value());
    ASSERT_TRUE(model.layers[1].profile_override.has_value());
    EXPECT_EQ(model.layers[1].profile_override->bit_density, 0.3);
    // The override starts from the model profile, so unset fields
    // inherit it.
    EXPECT_EQ(model.layers[1].profile_override->temporal_repeat, 0.45);
    EXPECT_FALSE(model.layers[3].profile_override.has_value());
}

TEST(ModelDesc, SymbolicSizesResolveAgainstTheInput)
{
    ModelDesc desc;
    desc.name = "Sym";
    LinearDesc fc;
    fc.name = "fc";
    fc.in_features = 8;
    fc.out_features = SymbolicSize(std::string("num_classes"));
    desc.layers.push_back(LayerDesc{fc, std::nullopt});
    EncoderDesc enc;
    enc.dim = 16;
    enc.mlp_hidden = 32;
    enc.seq_len = SymbolicSize(std::string("seq_len"));
    desc.layers.push_back(LayerDesc{enc, std::nullopt});

    InputConfig in;
    in.num_classes = 37;
    in.seq_len = 19;
    const ModelSpec model = desc.lower(in);
    EXPECT_EQ(model.layers[0].gemm.n, 37u);
    // block0.attn_qk has shape (T*L, dim, L).
    bool found_qk = false;
    for (const LayerSpec& layer : model.layers)
        if (layer.type == LayerType::kAttentionQK) {
            EXPECT_EQ(layer.gemm.n, 19u);
            found_qk = true;
        }
    EXPECT_TRUE(found_qk);
}

TEST(ModelDesc, CheckpointGeometryTracksTheDataset)
{
    // The ResNet shortcut convs must consume the *block input*
    // geometry whatever the dataset: on CIFAR10DVS (64x64) the first
    // downsample shortcut sees 64x64x64, not the CIFAR 32x32.
    const ModelDesc desc = ModelDesc::load(zooPath("resnet18.json"));
    const ModelSpec dvs = desc.lower(defaultInputConfig("CIFAR10DVS"));
    const LayerSpec* shortcut = nullptr;
    for (const LayerSpec& layer : dvs.layers)
        if (layer.name == "layer2.0.shortcut")
            shortcut = &layer;
    ASSERT_NE(shortcut, nullptr);
    EXPECT_EQ(shortcut->gemm.k, 64u);            // 64 in-channels, 1x1
    EXPECT_EQ(shortcut->gemm.m, 8u * 32u * 32u); // T=8, 64/2=32
}

TEST(ModelDesc, GlobalPoolCollapsesNonSquareMapsTo1x1)
{
    // Rectangular inputs (spectrograms): the global pool must reach
    // 1x1 on both axes, not just the one matching its height.
    ModelDesc desc;
    desc.name = "Rect";
    ConvDesc conv;
    conv.name = "conv";
    conv.out_channels = 8;
    conv.padding = 1;
    desc.layers.push_back(LayerDesc{conv, std::nullopt});
    PoolDesc pool;
    pool.name = "gap";
    pool.global = true;
    desc.layers.push_back(LayerDesc{pool, std::nullopt});
    LinearDesc fc;
    fc.name = "fc";
    fc.out_features = 5;
    desc.layers.push_back(LayerDesc{fc, std::nullopt});

    InputConfig in;
    in.channels = 1;
    in.height = 10;
    in.width = 26;
    const ModelSpec model = desc.lower(in);
    EXPECT_EQ(model.layers.back().gemm.k, 8u); // c*1*1, not c*1*2
}

TEST(ModelDesc, MalformedDefinitionsFailWithKeyPaths)
{
    const auto expectError = [](const char* text, const char* fragment) {
        try {
            ModelDesc::fromJson(json::Value::parse(text));
            FAIL() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << "message \"" << e.what()
                << "\" does not mention \"" << fragment << '"';
        }
    };

    expectError(R"({"layers": []})", "missing required key \"name\"");
    expectError(R"({"name": "x", "layers": []})",
                "must list at least one layer");
    expectError(R"({"name": "x", "layers": [{"kind": "warp"}]})",
                "unknown layer kind \"warp\"");
    expectError(R"({"name": "x", "layers": [{"kind": "warp"}]})",
                "layers[0]");
    expectError(R"({"name": "x",
                    "layers": [{"kind": "conv", "name": "c"}]})",
                "missing required key \"out_channels\"");
    expectError(R"({"name": "x",
                    "layers": [{"kind": "conv", "name": "c",
                                "out_channels": 4, "kernle": 3}]})",
                "unknown key \"kernle\"");
    expectError(R"({"name": "x",
                    "layers": [{"kind": "linear", "name": "fc",
                                "out_features": "classes"}]})",
                "unknown symbolic size \"classes\"");
    expectError(R"({"name": "x",
                    "layers": [{"kind": "encoder", "dim": 64}]})",
                "missing required key \"mlp_hidden\"");
    // A factor on a global pool would be dropped by serialization
    // (breaking parse(serialize) == identity) — rejected instead.
    expectError(R"({"name": "x",
                    "layers": [{"kind": "pool", "name": "p",
                                "global": true, "factor": 3}]})",
                "no effect when \"global\"");
    expectError(R"({"name": "x", "profile": {"bit_density": "high"},
                    "layers": [{"kind": "pool", "name": "p"}]})",
                "profile.bit_density");

    // Geometry errors carry the layer name.
    ModelDesc desc;
    desc.name = "Bad";
    LinearDesc fc;
    fc.name = "fc";
    fc.out_features = 10;
    desc.layers.push_back(LayerDesc{fc, std::nullopt});
    try {
        desc.lower(InputConfig{});
        FAIL() << "flatten without a feature map not rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("layer \"fc\""),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("in_features"),
                  std::string::npos);
    }

    // File-level errors mention the path.
    try {
        ModelDesc::load("/nonexistent/model.json");
        FAIL() << "missing file not rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/model.json"),
                  std::string::npos);
    }
}

TEST(ModelDesc, OutOfRangeProfileValuesFailWithKeyPaths)
{
    // The spike generator needs bit_density in (0, 1) and every
    // probability in [0, 1]; anything else must fail at parse time
    // with the key path, not abort (or never finish) a simulation.
    const auto parseProfile = [](const std::string& profile) {
        ModelDesc::fromJson(json::Value::parse(
            R"({"name": "x", "layers": [{"kind": "pool", "name": "p",
                                        "profile": )" +
            profile + "}]}"));
    };
    const auto expectRejected = [&](const std::string& key,
                                    const std::string& value) {
        try {
            parseProfile("{\"" + key + "\": " + value + "}");
            FAIL() << key << " = " << value << " accepted";
        } catch (const std::invalid_argument& e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("layers[0].profile." + key),
                      std::string::npos)
                << "message \"" << message << "\" lacks the key path";
            EXPECT_NE(message.find("must lie in"), std::string::npos)
                << message;
        }
    };

    expectRejected("bit_density", "0");
    expectRejected("bit_density", "1");
    expectRejected("bit_density", "1.5");
    expectRejected("bit_density", "-0.1");
    for (const char* key : {"cluster_fraction", "subset_drop_prob",
                            "temporal_repeat", "union_prob",
                            "noise_insert_prob"}) {
        expectRejected(key, "-0.01");
        expectRejected(key, "2");
        expectRejected(key, "1e9");
        // The closed interval's ends are legal probabilities.
        EXPECT_NO_THROW(parseProfile(std::string("{\"") + key +
                                     "\": 0}"))
            << key;
        EXPECT_NO_THROW(parseProfile(std::string("{\"") + key +
                                     "\": 1}"))
            << key;
    }
}

TEST(ModelDesc, RegisterModelFileIsIdempotentAndConflictChecked)
{
    // Loading the same definition twice returns the same key...
    const std::string key =
        registerModelFile("models/example_custom.json");
    EXPECT_EQ(key, "examplecustom");
    EXPECT_EQ(registerModelFile("models/example_custom.json"), key);
    EXPECT_EQ(ModelRegistry::instance().sourceOf(key),
              "models/example_custom.json");

    // A built-in's own file is the identical definition: it returns
    // the built-in's key, which keeps its empty source (reports still
    // serialize "VGG16", not a file reference)...
    EXPECT_EQ(registerModelFile("models/vgg16.json"), "vgg16");
    EXPECT_EQ(ModelRegistry::instance().sourceOf("vgg16"), "");

    // ...while a copy with one changed field is refused.
    ModelDesc changed = ModelDesc::load(zooPath("vgg16.json"));
    for (LayerDesc& layer : changed.layers)
        if (auto* conv = std::get_if<ConvDesc>(&layer.op);
            conv && conv->name == "conv5_3")
            conv->out_channels = 256;
    ASSERT_FALSE(changed == ModelDesc::load(zooPath("vgg16.json")));
    const std::string path = ::testing::TempDir() + "vgg16_changed.json";
    ASSERT_TRUE(changed.save(path));
    try {
        registerModelFile(path);
        FAIL() << "a different definition of VGG16 was not refused";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "already registered with a different definition"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace prosperity
