/**
 * @file
 * Tests for the Accelerator base-class behaviour every design inherits:
 * the value-typed runLayer entry point, dense-GeMM fallback, SFU model,
 * LIF energy, and the shared DRAM traffic helper.
 */

#include <gtest/gtest.h>

#include "arch/accelerator.h"

namespace prosperity {
namespace {

/** Minimal concrete accelerator exposing the protected helper. */
class StubAccelerator : public Accelerator
{
  public:
    std::string name() const override { return "Stub"; }
    std::size_t numPes() const override { return 100; }
    double areaMm2() const override { return 1.0; }

    /** Bytes the shared DRAM helper would move for `shape`. */
    double
    dramBytes(const GemmShape& shape)
    {
        EnergyModel energy;
        return chargeDramTraffic(shape, 128, energy);
    }

  protected:
    double
    simulateSpikingGemm(const GemmShape& shape, const BitMatrix&,
                        EnergyModel& energy) override
    {
        return simulateDenseGemm(shape, energy);
    }
};

TEST(AcceleratorDefaults, DenseGemmCyclesArePerPeMacs)
{
    StubAccelerator stub;
    const GemmShape shape{100, 10, 10};
    const LayerResult r = stub.runLayer(LayerRequest::denseGemm(shape));
    // 10k MACs on 100 PEs = 100 cycles.
    EXPECT_DOUBLE_EQ(r.cycles, 100.0);
    EXPECT_DOUBLE_EQ(r.dense_macs, shape.denseOps());
    EXPECT_GT(r.energy.componentPj(EnergyComponent::kProcessor), 0.0);
    EXPECT_GT(r.energy.componentPj(EnergyComponent::kDram), 0.0);
    EXPECT_GT(r.dram_bytes, 0.0);
}

TEST(AcceleratorDefaults, SfuThroughput)
{
    StubAccelerator stub;
    // A layer with no GeMM is an auxiliary request, as the runner
    // builds it.
    LayerRequest request;
    request.sfu_ops = 3200.0;
    const LayerResult r = stub.runLayer(request);
    EXPECT_DOUBLE_EQ(r.cycles, 100.0); // 32 ops/cycle
    EXPECT_DOUBLE_EQ(r.energy.componentPj(EnergyComponent::kOther),
                     3200.0 * kEnergyParams.sfu_op_pj);
    EXPECT_DOUBLE_EQ(r.dense_macs, 0.0);
}

TEST(AcceleratorDefaults, LifChargesEnergyOnly)
{
    StubAccelerator stub;
    LayerRequest request; // auxiliary: no GeMM, no SFU
    request.lif_updates = 1000.0;
    const LayerResult r = stub.runLayer(request);
    EXPECT_DOUBLE_EQ(r.cycles, 0.0);
    EXPECT_DOUBLE_EQ(r.energy.componentPj(EnergyComponent::kOther),
                     1000.0 * kEnergyParams.lif_update_pj);
}

TEST(AcceleratorDefaults, SpikingGemmRoutesThroughOverride)
{
    StubAccelerator stub;
    const BitMatrix spikes(8, 8);
    const GemmShape shape{8, 8, 8};
    const LayerResult r =
        stub.runLayer(LayerRequest::spikingGemm(shape, spikes));
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_DOUBLE_EQ(r.dense_macs, shape.denseOps());
}

TEST(AcceleratorDefaults, ResultsAreIndependentValues)
{
    // Two identical requests must observe no state from one another.
    StubAccelerator stub;
    const GemmShape shape{64, 64, 64};
    const LayerResult a = stub.runLayer(LayerRequest::denseGemm(shape));
    const LayerResult b = stub.runLayer(LayerRequest::denseGemm(shape));
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.energy.totalPj(), b.energy.totalPj());
}

TEST(AcceleratorDefaults, DramTrafficWeightResident)
{
    StubAccelerator stub;
    // Small spikes (fit the 8 KB staging buffer): every operand once.
    const GemmShape small{64, 64, 64};
    const double bytes = stub.dramBytes(small);
    const double expected = 64.0 * 64.0 / 8.0   // packed spikes in
                            + 64.0 * 64.0       // weights once
                            + 64.0 * 64.0 / 8.0; // packed spikes out
    EXPECT_DOUBLE_EQ(bytes, expected);
}

TEST(AcceleratorDefaults, DramTrafficRestreamsLargeSpikes)
{
    StubAccelerator stub;
    // 1 MB of packed spikes >> 8 KB buffer: re-streamed per n-pass.
    const GemmShape big{8192, 1024, 512};
    const double bytes = stub.dramBytes(big);
    const double spikes_once = 8192.0 * 1024.0 / 8.0;
    const double passes = 512.0 / 128.0;
    EXPECT_DOUBLE_EQ(bytes, spikes_once * passes + 1024.0 * 512.0 +
                                8192.0 * 512.0 / 8.0);
}

TEST(AcceleratorDefaults, DramBytesRecoveredInLayerResult)
{
    // The small shape moves every operand exactly once, so the bytes
    // reported in the LayerResult must equal the analytic traffic.
    StubAccelerator stub;
    const GemmShape shape{64, 64, 64};
    const LayerResult r = stub.runLayer(LayerRequest::denseGemm(shape));
    const double expected = 64.0 * 64.0 / 8.0 + 64.0 * 64.0 +
                            64.0 * 64.0 / 8.0;
    EXPECT_DOUBLE_EQ(r.dram_bytes, expected);
}

TEST(AcceleratorDefaults, DramTrafficHonorsInputReuse)
{
    StubAccelerator stub;
    GemmShape conv{64, 64, 64};
    conv.input_reuse = 9;
    const GemmShape linear{64, 64, 64};
    EXPECT_LT(stub.dramBytes(conv), stub.dramBytes(linear));
}

TEST(AcceleratorDefaults, StaticPowerDefaultsToZero)
{
    StubAccelerator stub;
    EXPECT_DOUBLE_EQ(stub.staticPjPerCycle(), 0.0);
}

TEST(AcceleratorDefaults, BeginModelIsANoop)
{
    StubAccelerator stub;
    ModelHints hints;
    hints.time_steps = 16;
    stub.beginModel(hints); // must not crash or change behaviour
    EXPECT_GT(stub.runLayer(LayerRequest::denseGemm(GemmShape{8, 8, 8}))
                  .cycles,
              0.0);
}

} // namespace
} // namespace prosperity
