/**
 * @file
 * Tests for the AcceleratorRegistry: every registered design
 * round-trips through create() with properties identical to direct
 * construction, lookup is case-insensitive, and factory parameters
 * reach the design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "arch/registry.h"
#include "baselines/a100.h"
#include "baselines/eyeriss.h"
#include "baselines/loas.h"
#include "baselines/mint.h"
#include "baselines/ptb.h"
#include "baselines/sato.h"
#include "baselines/stellar.h"
#include "core/prosperity_accelerator.h"

namespace prosperity {
namespace {

TEST(Registry, ListsAllEightDesigns)
{
    const auto names = AcceleratorRegistry::instance().names();
    ASSERT_EQ(names.size(), 8u);
    for (const char* expected : {"eyeriss", "ptb", "sato", "mint",
                                 "stellar", "a100", "loas",
                                 "prosperity"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

/** create(name) must agree with direct construction on the paper's
 *  static design properties. */
template <typename Direct>
void
expectRoundTrip(const std::string& registry_name)
{
    const Direct direct;
    const auto created =
        AcceleratorRegistry::instance().create(registry_name);
    ASSERT_NE(created, nullptr) << registry_name;
    EXPECT_EQ(created->name(), direct.name()) << registry_name;
    EXPECT_EQ(created->numPes(), direct.numPes()) << registry_name;
    EXPECT_DOUBLE_EQ(created->areaMm2(), direct.areaMm2())
        << registry_name;
    EXPECT_DOUBLE_EQ(created->staticPjPerCycle(),
                     direct.staticPjPerCycle())
        << registry_name;
}

TEST(Registry, RoundTripsEveryRegisteredName)
{
    expectRoundTrip<EyerissAccelerator>("eyeriss");
    expectRoundTrip<PtbAccelerator>("ptb");
    expectRoundTrip<SatoAccelerator>("sato");
    expectRoundTrip<MintAccelerator>("mint");
    expectRoundTrip<StellarAccelerator>("stellar");
    expectRoundTrip<A100Accelerator>("a100");
    expectRoundTrip<LoasAccelerator>("loas");
    expectRoundTrip<ProsperityAccelerator>("prosperity");
}

TEST(Registry, LookupIsCaseInsensitive)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    EXPECT_TRUE(registry.contains("Prosperity"));
    EXPECT_TRUE(registry.contains("A100"));
    EXPECT_TRUE(registry.contains("LoAS"));
    EXPECT_EQ(registry.create("Eyeriss")->name(), "Eyeriss");
    EXPECT_EQ(registry.create("PTB")->name(), "PTB");
}

TEST(Registry, UnknownNameThrowsWithRoster)
{
    try {
        AcceleratorRegistry::instance().create("tpu");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("tpu"), std::string::npos);
        EXPECT_NE(message.find("prosperity"), std::string::npos);
    }
}

TEST(Registry, ProsperityAblationParams)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    EXPECT_EQ(registry
                  .create("prosperity",
                          AcceleratorParams().set("sparsity", "bit"))
                  ->name(),
              "Prosperity(bit-only)");
    EXPECT_EQ(registry
                  .create("prosperity",
                          AcceleratorParams().set("dispatch", "traversal"))
                  ->name(),
              "Prosperity(traversal)");
    EXPECT_THROW(registry.create(
                     "prosperity",
                     AcceleratorParams().set("sparsity", "banana")),
                 std::invalid_argument);
    // Zero widths and counts are rejected, not silently run as 1. A
    // tile narrower than 8 columns has no spike-buffer word, and one
    // past 65536 rows or columns could overflow a buffer size.
    const std::pair<const char*, const char*> rejected[] = {
        {"issue_width", "0"}, {"num_ppus", "0"},
        {"tile_m", "0"},      {"tile_k", "0"},
        {"tile_k", "4"},      {"tile_k", "7"},
        {"tile_k", "65537"},  {"tile_k", "4611686018427387904"},
        {"tile_m", "65537"},  {"tile_m", "4611686018427387904"}};
    for (const auto& [key, value] : rejected) {
        try {
            registry.create("prosperity", AcceleratorParams().set(key, value));
            FAIL() << key << "=" << value << " accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    for (const char* key : {"tile_m", "tile_k"})
        for (const char* value : {"8", "65536"})
            EXPECT_NO_THROW(registry.create(
                "prosperity", AcceleratorParams().set(key, value)))
                << key << "=" << value;
}

TEST(Registry, UnknownParameterKeysAreRejected)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    // Typo'd key ("num_ppu" instead of "num_ppus") must fail fast, not
    // silently configure a default design.
    AcceleratorParams typo;
    typo.set("num_ppu", std::size_t{8});
    EXPECT_THROW(registry.create("prosperity", typo),
                 std::invalid_argument);
    AcceleratorParams stray;
    stray.set("time_steps", std::size_t{4});
    EXPECT_THROW(registry.create("eyeriss", stray),
                 std::invalid_argument);
    // PTB takes its T from the model (beginModel), not a parameter.
    EXPECT_THROW(registry.create("ptb", stray), std::invalid_argument);
}

TEST(Registry, LoasWeightDensityParameterReachesTheDesign)
{
    AcceleratorRegistry& registry = AcceleratorRegistry::instance();
    const auto accel = registry.create(
        "loas", AcceleratorParams().set("weight_density", "0.04"));
    const auto* loas = dynamic_cast<LoasAccelerator*>(accel.get());
    ASSERT_NE(loas, nullptr);
    EXPECT_DOUBLE_EQ(loas->weightDensity(), 0.04);

    // The design asserts (0, 1]; the factory must turn a bad value
    // into an exception before the constructor can abort the process.
    EXPECT_NO_THROW(registry.create(
        "loas", AcceleratorParams().set("weight_density", "1")));
    for (const char* bad : {"5", "0", "-0.5", "nan", "inf"}) {
        try {
            registry.create("loas",
                            AcceleratorParams().set("weight_density", bad));
            FAIL() << "weight_density=" << bad << " accepted";
        } catch (const std::invalid_argument& e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("weight_density"), std::string::npos)
                << message;
            EXPECT_NE(message.find("(0, 1]"), std::string::npos) << message;
        }
    }
}

TEST(Registry, DuplicateRegistrationIsRejected)
{
    EXPECT_FALSE(AcceleratorRegistry::instance().add(
        "Prosperity", "imposter", [](const AcceleratorParams&) {
            return std::unique_ptr<Accelerator>{};
        }));
}

TEST(AcceleratorParams, TypedGettersAndFingerprint)
{
    AcceleratorParams params;
    params.set("beta", 2.5);
    params.set("alpha", std::size_t{4});
    EXPECT_DOUBLE_EQ(params.getDouble("beta", 0.0), 2.5);
    EXPECT_EQ(params.getSize("alpha", 0), 4u);
    EXPECT_EQ(params.getString("missing", "fallback"), "fallback");
    EXPECT_EQ(params.fingerprint(), "alpha=4;beta=2.5");
    // A campaign spec's {"x": 0.1} is stored as json::formatDouble's
    // "0.1"; set() must store the same text, not 0.10000000000000001.
    EXPECT_EQ(AcceleratorParams{}.set("x", 0.1).fingerprint(), "x=0.1");
    const AcceleratorParams bad =
        AcceleratorParams().set("x", "not-a-number");
    EXPECT_THROW(bad.getDouble("x", 0.0), std::invalid_argument);
}

} // namespace
} // namespace prosperity
