/**
 * @file
 * Tests for workload construction, the model/dataset registries and
 * the calibration table.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "snn/workload.h"

namespace prosperity {
namespace {

TEST(Workload, NamesAreStable)
{
    const Workload w = makeWorkload("VGG16", "CIFAR100");
    EXPECT_EQ(w.name(), "VGG16/CIFAR100");
    EXPECT_EQ(w.model, "vgg16");    // canonical registry key
    EXPECT_EQ(w.dataset, "cifar100");
    EXPECT_EQ(w.modelName(), "VGG16"); // display name
    EXPECT_EQ(w.datasetName(), "CIFAR100");
    EXPECT_EQ(makeWorkload("SpikeBERT", "SST-2").modelName(),
              "SpikeBERT");
    EXPECT_EQ(makeWorkload("SpikeBERT", "SST-2").datasetName(), "SST-2");
}

TEST(Workload, LookupIsCaseInsensitive)
{
    const Workload lower = makeWorkload("vgg16", "cifar100");
    const Workload upper = makeWorkload("VGG16", "CIFAR100");
    EXPECT_TRUE(lower == upper);
    EXPECT_EQ(lower.name(), "VGG16/CIFAR100");
}

TEST(Workload, UnknownNamesListTheRegisteredOnes)
{
    try {
        makeWorkload("VGG17", "CIFAR10");
        FAIL() << "unknown model not rejected";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown model \"VGG17\""),
                  std::string::npos);
        EXPECT_NE(what.find("VGG16"), std::string::npos)
            << "error should list the registered models: " << what;
    }
    try {
        makeWorkload("VGG16", "CIFAR1000");
        FAIL() << "unknown dataset not rejected";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown dataset \"CIFAR1000\""),
                  std::string::npos);
        EXPECT_NE(what.find("CIFAR100"), std::string::npos);
    }
}

TEST(Workload, RegistriesListTheBuiltinZoo)
{
    const std::vector<std::string> models =
        ModelRegistry::instance().names();
    ASSERT_GE(models.size(), 10u);
    // The Fig. 8 / Fig. 11 eight first, in the legacy declaration
    // order, then the LoAS Table V additions.
    EXPECT_EQ(models[0], "VGG16");
    EXPECT_EQ(models[1], "VGG9");
    EXPECT_EQ(models[2], "ResNet18");
    EXPECT_EQ(models[3], "LeNet5");
    EXPECT_EQ(models[4], "Spikformer");
    EXPECT_EQ(models[5], "SDT");
    EXPECT_EQ(models[6], "SpikeBERT");
    EXPECT_EQ(models[7], "SpikingBERT");
    EXPECT_TRUE(ModelRegistry::instance().contains("AlexNet"));
    EXPECT_TRUE(ModelRegistry::instance().contains("ResNet19"));

    const std::vector<std::string> datasets =
        DatasetRegistry::instance().names();
    ASSERT_GE(datasets.size(), 9u);
    EXPECT_EQ(datasets[0], "CIFAR10");
    EXPECT_EQ(datasets[8], "MNLI");
    EXPECT_FALSE(
        ModelRegistry::instance().description("VGG16").empty());
    EXPECT_FALSE(
        DatasetRegistry::instance().description("MNIST").empty());
}

TEST(Workload, CalibratedDensitiesMatchPaperQuotes)
{
    // Values the paper states explicitly.
    EXPECT_NEAR(makeWorkload("VGG16", "CIFAR100").profile.bit_density,
                0.3421, 1e-6);
    EXPECT_NEAR(
        makeWorkload("SpikingBERT", "SST-2").profile.bit_density,
        0.2049, 1e-6);
    EXPECT_NEAR(makeWorkload("SpikeBERT", "SST-2").profile.bit_density,
                0.1319, 1e-6);
}

TEST(Workload, DatasetInputsAreSane)
{
    const InputConfig dvs = defaultInputConfig("CIFAR10DVS");
    EXPECT_EQ(dvs.channels, 2u); // polarity channels
    EXPECT_GT(dvs.time_steps, 4u);

    const InputConfig mnist = defaultInputConfig("MNIST");
    EXPECT_EQ(mnist.channels, 1u);
    EXPECT_EQ(mnist.height, 28u);

    const InputConfig mnli = defaultInputConfig("MNLI");
    EXPECT_EQ(mnli.num_classes, 3u);
    EXPECT_EQ(mnli.seq_len, 128u);
}

TEST(Workload, BuildModelMatchesModelKey)
{
    const Workload w = makeWorkload("SDT", "CIFAR100");
    const ModelSpec m = w.buildModel();
    EXPECT_EQ(m.name, "SDT");
    EXPECT_GT(m.layers.size(), 0u);
    // The registry build equals the workload's build.
    EXPECT_TRUE(m == ModelRegistry::instance().build(
                         "sdt", defaultInputConfig("CIFAR100")));
}

TEST(Workload, Fig8SuiteHasSixteenPairsInPaperOrder)
{
    const auto suite = fig8Suite();
    ASSERT_EQ(suite.size(), 16u);
    EXPECT_EQ(suite.front().name(), "VGG16/CIFAR10");
    EXPECT_EQ(suite[10].name(), "SpikeBERT/SST-2");
    EXPECT_EQ(suite.back().name(), "SpikingBERT/MNLI");
    // 4 CNN + 6 vision transformer + 6 NLP transformer pairs.
    std::size_t transformers = 0;
    for (const auto& w : suite)
        if (w.model == "spikformer" || w.model == "sdt" ||
            w.model == "spikebert" || w.model == "spikingbert")
            ++transformers;
    EXPECT_EQ(transformers, 12u);
}

TEST(Workload, Fig11SuiteCoversAllEightModels)
{
    const auto suite = fig11Suite();
    std::set<std::string> models;
    for (const auto& w : suite)
        models.insert(w.model);
    EXPECT_EQ(models.size(), 8u);
}

TEST(Workload, ProfilesAreWithinValidRanges)
{
    for (const auto& w : fig11Suite()) {
        const ActivationProfile& p = w.profile;
        EXPECT_GT(p.bit_density, 0.0) << w.name();
        EXPECT_LT(p.bit_density, 0.6) << w.name();
        EXPECT_GE(p.cluster_fraction, 0.0) << w.name();
        EXPECT_LE(p.cluster_fraction, 1.0) << w.name();
        EXPECT_GT(p.bank_size, 0u) << w.name();
        EXPECT_GT(p.subset_drop_prob, 0.0) << w.name();
        EXPECT_LT(p.subset_drop_prob, 1.0) << w.name();
    }
}

TEST(Workload, TransformerWorkloadsAreSparserThanCnns)
{
    // Fig. 11: SpikeBERT is the sparsest family, VGG-16 the densest.
    const double vgg =
        makeWorkload("VGG16", "CIFAR10").profile.bit_density;
    const double bert =
        makeWorkload("SpikeBERT", "MR").profile.bit_density;
    EXPECT_GT(vgg, bert);
}

TEST(Workload, RegisteredDescModelRunsAsWorkload)
{
    // A model registered at run time from a programmatic desc is a
    // first-class workload citizen.
    ModelDesc desc;
    desc.name = "UnitDescModel";
    ActivationProfile profile;
    profile.bit_density = 0.17;
    desc.profile = profile;
    LinearDesc fc;
    fc.name = "fc";
    fc.in_features = 64;
    fc.out_features = SymbolicSize(std::string("num_classes"));
    desc.layers.push_back(LayerDesc{fc, std::nullopt});
    ASSERT_TRUE(ModelRegistry::instance().addDesc(desc));

    const Workload w = makeWorkload("UnitDescModel", "MNIST");
    EXPECT_EQ(w.profile.bit_density, 0.17);
    const ModelSpec m = w.buildModel();
    ASSERT_EQ(m.layers.size(), 1u);
    EXPECT_EQ(m.layers[0].gemm.k, 64u);
    EXPECT_EQ(m.layers[0].gemm.n, 10u); // MNIST classes
    EXPECT_EQ(m.layers[0].gemm.m, 4u);  // T tokens
}

} // namespace
} // namespace prosperity
