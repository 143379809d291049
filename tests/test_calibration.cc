/**
 * @file
 * Calibration regression tests: pin the simulator to the paper's
 * published anchor points so a model change that silently de-calibrates
 * an experiment fails CI instead of producing a wrong EXPERIMENTS.md.
 * Tolerances are deliberately loose (these are anchors, not unit
 * checks).
 */

#include <gtest/gtest.h>

#include "analysis/density.h"
#include "analysis/runner.h"
#include "baselines/eyeriss.h"
#include "baselines/mint.h"
#include "baselines/ptb.h"
#include "baselines/sato.h"
#include "baselines/stellar.h"
#include "core/prosperity_accelerator.h"

namespace prosperity {
namespace {

/** Shared Table IV run (VGG-16 / CIFAR100). */
class TableIv : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        static EyerissAccelerator eyeriss;
        static SatoAccelerator sato;
        static PtbAccelerator ptb;
        static MintAccelerator mint;
        static StellarAccelerator stellar;
        static ProsperityAccelerator prosperity;
        const std::vector<Accelerator*> accels = {
            &eyeriss, &sato, &ptb, &mint, &stellar, &prosperity};
        const Workload workload = makeWorkload("VGG16", "CIFAR100");
        results_ = new std::vector<RunResult>(runWorkloadOnAll(
            accels,
            std::vector<const Workload*>(accels.size(), &workload)));
    }

    static void
    TearDownTestSuite()
    {
        delete results_;
        results_ = nullptr;
    }

    static std::vector<RunResult>* results_;
};

std::vector<RunResult>* TableIv::results_ = nullptr;

TEST_F(TableIv, ThroughputAnchors)
{
    // Paper GOP/s: 29.40, 33.63, 41.37, 62.07, 190.44, 390.10.
    const double paper[] = {29.40, 33.63, 41.37, 62.07, 190.44, 390.10};
    const double tolerance[] = {0.10, 0.10, 0.10, 0.10, 0.15, 0.20};
    for (std::size_t i = 0; i < results_->size(); ++i) {
        const double measured = (*results_)[i].gops();
        EXPECT_NEAR(measured / paper[i], 1.0, tolerance[i])
            << (*results_)[i].accelerator;
    }
}

TEST_F(TableIv, EnergyEfficiencyAnchors)
{
    // Paper GOP/J: 16.67, 49.70, 34.15, 75.61, 142.98, 299.80.
    const double paper[] = {16.67, 49.70, 34.15, 75.61, 142.98, 299.80};
    const double tolerance[] = {0.10, 0.10, 0.10, 0.10, 0.15, 0.20};
    for (std::size_t i = 0; i < results_->size(); ++i) {
        const double measured = (*results_)[i].gopj();
        EXPECT_NEAR(measured / paper[i], 1.0, tolerance[i])
            << (*results_)[i].accelerator;
    }
}

TEST_F(TableIv, OrderingHolds)
{
    for (std::size_t i = 1; i < results_->size(); ++i)
        EXPECT_GT((*results_)[i].gops(), (*results_)[i - 1].gops() * 0.95)
            << (*results_)[i].accelerator;
    EXPECT_GT(results_->back().gops(), 10.0 * results_->front().gops());
}

TEST(DensityAnchors, PaperQuotedWorkloads)
{
    DensityOptions opt;
    opt.max_sampled_tiles = 32;

    // VGG-16/CIFAR100: bit 34.21%, product 2.79% (Tables I/II).
    const DensityReport vgg = analyzeWorkload(
        makeWorkload("VGG16", "CIFAR100"), opt, 7);
    EXPECT_NEAR(vgg.bitDensity(), 0.3421, 0.04);
    EXPECT_NEAR(vgg.productDensity(), 0.0279, 0.012);

    // SpikingBERT/SST-2: bit 20.49%, product 2.98% (Table II).
    const DensityReport sb = analyzeWorkload(
        makeWorkload("SpikingBERT", "SST-2"), opt, 7);
    EXPECT_NEAR(sb.bitDensity(), 0.2049, 0.02);
    EXPECT_NEAR(sb.productDensity(), 0.0298, 0.012);

    // SpikeBERT: bit 13.19%, product ~1.23% (abstract).
    const DensityReport skb = analyzeWorkload(
        makeWorkload("SpikeBERT", "SST-2"), opt, 7);
    EXPECT_NEAR(skb.bitDensity(), 0.1319, 0.015);
    EXPECT_LT(skb.productDensity(), 0.02);
}

TEST(DensityAnchors, EveryWorkloadBelowFivePercentProduct)
{
    // Fig. 11's claim: "we are able to reduce the density below 5%".
    DensityOptions opt;
    opt.max_sampled_tiles = 16;
    for (const Workload& w : fig11Suite()) {
        const DensityReport r = analyzeWorkload(w, opt, 7);
        EXPECT_LT(r.productDensity(), 0.05) << w.name();
        EXPECT_GT(r.reductionVsBit(), 3.0) << w.name();
    }
}

TEST(CostModelAnchor, BreakEvenDeltaS)
{
    // Sec. VII-G: threshold DeltaS = m / (45 n) = 4.4% at 256/128.
    const TileConfig tile;
    const double threshold =
        static_cast<double>(tile.m) / (45.0 * static_cast<double>(tile.n));
    EXPECT_NEAR(threshold, 0.044, 0.001);
}

} // namespace
} // namespace prosperity
