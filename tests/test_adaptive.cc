/**
 * @file
 * Unit tests for the statistical stopping layer (src/stats/): the
 * streaming accumulator, Hoeffding intervals with union bounds,
 * checkpoint schedules, sampling-plan parsing, the stopping rule, and
 * substream seed derivation. End-to-end adaptive-campaign behaviour
 * (thread-count determinism, seed-cap flags, report columns) is
 * covered in test_campaign.cc.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/accumulator.h"
#include "stats/adaptive_runner.h"
#include "stats/checkpoints.h"
#include "stats/hoeffding.h"
#include "stats/sampling_plan.h"
#include "stats/stopping.h"
#include "spec_equality.h"
#include "util/json.h"

namespace prosperity::stats {
namespace {

/** The counts up to `max_n` that `schedule` checkpoints. */
std::vector<std::size_t>
checkpointsUpTo(const CheckpointSchedule& schedule, std::size_t max_n)
{
    std::vector<std::size_t> out;
    for (std::size_t n = 1; n <= max_n; ++n)
        if (schedule.contains(n))
            out.push_back(n);
    return out;
}

TEST(StreamingAccumulator, MatchesClosedFormMoments)
{
    StreamingAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.range(), 0.0);

    const std::vector<double> values = {4.0, 7.0, 13.0, 16.0};
    for (const double v : values)
        acc.add(v);

    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 10.0);
    // Unbiased sample variance: sum((x - 10)^2) / 3 = 90 / 3.
    EXPECT_DOUBLE_EQ(acc.variance(), 30.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), std::sqrt(30.0));
    EXPECT_EQ(acc.min(), 4.0);
    EXPECT_EQ(acc.max(), 16.0);
    EXPECT_EQ(acc.range(), 12.0);
}

TEST(StreamingAccumulator, SingleSampleHasZeroVariance)
{
    StreamingAccumulator acc;
    acc.add(42.0);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.mean(), 42.0);
    EXPECT_EQ(acc.range(), 0.0);
}

TEST(Hoeffding, HalfWidthMatchesTheFormula)
{
    const double h = hoeffdingHalfWidth(10.0, 100, 0.05);
    EXPECT_DOUBLE_EQ(h,
                     10.0 * std::sqrt(std::log(2.0 / 0.05) / 200.0));
    // Shrinks as 1/sqrt(n).
    EXPECT_DOUBLE_EQ(hoeffdingHalfWidth(10.0, 400, 0.05), h / 2.0);
}

TEST(Hoeffding, EdgeCases)
{
    EXPECT_TRUE(std::isinf(hoeffdingHalfWidth(10.0, 0, 0.05)));
    EXPECT_EQ(hoeffdingHalfWidth(0.0, 5, 0.05), 0.0);
}

TEST(Hoeffding, UnionBoundDividesAlpha)
{
    EXPECT_DOUBLE_EQ(unionBoundAlpha(0.05, 10), 0.005);
    EXPECT_DOUBLE_EQ(unionBoundAlpha(0.05, 0), 0.05); // clamped to 1
}

TEST(CheckpointSchedule, LinearAndLogPoints)
{
    CheckpointSchedule linear;
    linear.kind = CheckpointSchedule::Kind::kLinear;
    linear.start = 2;
    linear.step = 3;
    EXPECT_EQ(checkpointsUpTo(linear, 11),
              (std::vector<std::size_t>{2, 5, 8, 11}));
    EXPECT_TRUE(linear.contains(8));
    EXPECT_FALSE(linear.contains(9));
    EXPECT_FALSE(linear.contains(1));

    CheckpointSchedule log;
    log.kind = CheckpointSchedule::Kind::kLog;
    log.start = 2;
    log.factor = 2.0;
    EXPECT_EQ(checkpointsUpTo(log, 20),
              (std::vector<std::size_t>{2, 4, 8, 16}));
    EXPECT_TRUE(log.contains(16));
    EXPECT_FALSE(log.contains(6));

    // A factor barely above 1 still advances every point.
    CheckpointSchedule slow;
    slow.kind = CheckpointSchedule::Kind::kLog;
    slow.start = 2;
    slow.factor = 1.01;
    EXPECT_EQ(checkpointsUpTo(slow, 6),
              (std::vector<std::size_t>{2, 3, 4, 5, 6}));
}

TEST(CheckpointSchedule, JsonRoundTrip)
{
    CheckpointSchedule schedule;
    schedule.kind = CheckpointSchedule::Kind::kLinear;
    schedule.start = 5;
    schedule.step = 2;
    const CheckpointSchedule parsed =
        CheckpointSchedule::fromJson(schedule.toJson(), "test");
    EXPECT_TRUE(parsed == schedule);
}

TEST(SamplingPlan, JsonRoundTripIsExact)
{
    SamplingPlan plan;
    plan.eps = 0.01;
    plan.alpha = 0.1;
    plan.relative = false;
    plan.min_seeds = 3;
    plan.max_seeds = 40;
    plan.metrics = {"cycles", "gopj"};
    plan.checkpoints.kind = CheckpointSchedule::Kind::kLinear;
    plan.checkpoints.start = 3;
    plan.checkpoints.step = 5;
    const SamplingPlan parsed =
        SamplingPlan::fromJson(plan.toJson(), "test");
    EXPECT_TRUE(parsed == plan);
}

TEST(SamplingPlan, RejectsBadValuesWithKeyPaths)
{
    const auto parse = [](const std::string& text) {
        return SamplingPlan::fromJson(json::Value::parse(text),
                                      "sampling");
    };
    // eps is the one required key: a plan without a precision target
    // is meaningless.
    EXPECT_THROW(parse("{}"), std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0}"), std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": -0.1}"), std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0.05, \"alpha\": 0}"),
                 std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0.05, \"alpha\": 1}"),
                 std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0.05, \"min_seeds\": 1}"),
                 std::invalid_argument);
    EXPECT_THROW(
        parse("{\"eps\": 0.05, \"min_seeds\": 8, \"max_seeds\": 4}"),
        std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0.05, \"metrics\": []}"),
                 std::invalid_argument);
    EXPECT_THROW(
        parse(
            "{\"eps\": 0.05, \"metrics\": [\"cycles\", \"cycles\"]}"),
        std::invalid_argument);
    EXPECT_THROW(parse("{\"eps\": 0.05, \"unknown_key\": 1}"),
                 std::invalid_argument);
    try {
        parse("{\"eps\": 0.05, \"metrics\": [\"bogus\"]}");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
        // The error names the bad metric and the supported roster.
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cycles"),
                  std::string::npos);
    }
}

TEST(SamplingPlan, MetricValueCoversTheRoster)
{
    RunResult result;
    result.cycles = 1000.0;
    result.dram_bytes = 64.0;
    result.dense_macs = 2048.0;
    EXPECT_EQ(metricValue(result, "cycles"), 1000.0);
    EXPECT_EQ(metricValue(result, "dram_bytes"), 64.0);
    EXPECT_EQ(metricValue(result, "dense_macs"), 2048.0);
    EXPECT_EQ(metricValue(result, "seconds"), result.seconds());
    EXPECT_EQ(metricValue(result, "energy_pj"),
              result.energy.totalPj());
    EXPECT_THROW(metricValue(result, "bogus"), std::invalid_argument);
    for (const std::string& name : supportedMetrics())
        EXPECT_NO_THROW(metricValue(result, name)) << name;
}

TEST(StoppingRule, ConvergesWhenTheIntervalIsTightEnough)
{
    SamplingPlan plan;
    plan.eps = 0.05; // relative
    plan.alpha = 0.05;
    const StoppingRule rule(plan, 4);
    EXPECT_DOUBLE_EQ(rule.perComparisonAlpha(), 0.05 / 4.0);

    StreamingAccumulator tight;
    for (int i = 0; i < 50; ++i)
        tight.add(100.0 + (i % 2 == 0 ? 0.1 : -0.1));
    const MetricStats stats = rule.evaluate("cycles", tight);
    EXPECT_EQ(stats.n, 50u);
    EXPECT_NEAR(stats.mean, 100.0, 1e-9);
    EXPECT_EQ(stats.half_width,
              hoeffdingHalfWidth(tight.range(), 50,
                                 rule.perComparisonAlpha()));
    EXPECT_TRUE(stats.converged); // half-width << 5% of 100

    StreamingAccumulator wide;
    wide.add(10.0);
    wide.add(200.0);
    EXPECT_FALSE(rule.evaluate("cycles", wide).converged);
}

TEST(StoppingRule, AbsoluteEpsIgnoresTheMean)
{
    SamplingPlan plan;
    plan.eps = 0.5;
    plan.relative = false;
    const StoppingRule rule(plan, 1);
    StreamingAccumulator acc;
    // Tiny mean, tiny spread: relative eps would need a microscopic
    // interval; absolute eps of 0.5 is satisfied easily.
    for (int i = 0; i < 20; ++i)
        acc.add(0.001 + 1e-5 * (i % 3));
    EXPECT_TRUE(rule.evaluate("cycles", acc).converged);
}

TEST(DeriveSubstreamSeed, IndexZeroIsTheBaseSeed)
{
    EXPECT_EQ(deriveSubstreamSeed("key", 7, 0), 7u);
    EXPECT_EQ(deriveSubstreamSeed("other", 123456789, 0), 123456789u);
}

TEST(DeriveSubstreamSeed, DependsOnKeyAndIndexOnly)
{
    const std::uint64_t a = deriveSubstreamSeed("key-a", 7, 3);
    // Stable under repetition...
    EXPECT_EQ(deriveSubstreamSeed("key-a", 7, 3), a);
    // ...distinct across keys, indices, and base seeds.
    EXPECT_NE(deriveSubstreamSeed("key-b", 7, 3), a);
    EXPECT_NE(deriveSubstreamSeed("key-a", 7, 4), a);
    EXPECT_NE(deriveSubstreamSeed("key-a", 8, 3), a);
}

TEST(DeriveSubstreamSeed, StaysWithinJsonExactRange)
{
    // requireSizeValue rejects seeds >= 2^53; every derived seed must
    // survive the spec/report JSON round trip exactly.
    const std::uint64_t limit = 1ull << 53;
    for (std::size_t i = 1; i < 200; ++i)
        EXPECT_LT(deriveSubstreamSeed("key", 7, i), limit) << i;
}

TEST(CellTracker, CheckpointsAreExactAtTheScheduledCounts)
{
    SamplingPlan plan;
    plan.eps = 1e-12; // never converge: we want all the checkpoints
    plan.min_seeds = 2;
    plan.max_seeds = 8;
    plan.metrics = {"cycles"};
    plan.checkpoints.kind = CheckpointSchedule::Kind::kLinear;
    plan.checkpoints.start = 2;
    plan.checkpoints.step = 2;
    const StoppingRule rule(plan, 1);
    CellTracker tracker(rule);

    for (int i = 1; i <= 8; ++i) {
        RunResult result;
        result.cycles = 100.0 * i;
        tracker.append(result);
    }
    EXPECT_TRUE(tracker.done()); // at the cap
    EXPECT_FALSE(tracker.converged());

    const CellSampling summary = tracker.summary();
    EXPECT_EQ(summary.n_seeds, 8u);
    ASSERT_EQ(summary.checkpoints.size(), 4u); // n = 2, 4, 6, 8
    EXPECT_EQ(summary.checkpoints[0].n, 2u);
    EXPECT_DOUBLE_EQ(summary.checkpoints[0].metrics[0].mean, 150.0);
    EXPECT_EQ(summary.checkpoints[1].n, 4u);
    EXPECT_DOUBLE_EQ(summary.checkpoints[1].metrics[0].mean, 250.0);
    EXPECT_EQ(summary.checkpoints[3].n, 8u);
    EXPECT_DOUBLE_EQ(summary.checkpoints[3].metrics[0].mean, 450.0);
}

} // namespace
} // namespace prosperity::stats
