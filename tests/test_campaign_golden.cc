/**
 * @file
 * Golden-report pins for every checked-in campaign.
 *
 * The reports under tests/golden/ were produced by `prosperity_cli
 * campaign <name> --out ...` *before* the workload layer moved to
 * string-keyed registries (PR 4); this test re-runs each campaign
 * through the current CampaignRunner and requires the serialized
 * report to match byte for byte. It pins, in one sweep: spec parsing
 * and re-serialization, job expansion and deduplication, every
 * simulated RunResult (cycles, energy breakdowns, DRAM traffic), the
 * derived speedup / energy-efficiency tables, and the JSON writer's
 * number formatting. The smoke and fig9 campaigns also pin their CSV
 * (tests/golden/<name>.report.csv).
 *
 * If a change legitimately alters results (a modeling fix, a new
 * metric), regenerate the goldens with
 * `prosperity_cli campaign <name> --quiet --out tests/golden/<name>.report.json
 * --csv-out tests/golden/<name>.report.csv` (the CSV for smoke and
 * fig9 only) and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/campaign.h"
#include "bitmatrix/simd_dispatch.h"
#include "obs/trace.h"

namespace prosperity {
namespace {

std::string
goldenDir()
{
#ifdef PROSPERITY_GOLDEN_DIR
    return PROSPERITY_GOLDEN_DIR;
#else
    return "tests/golden";
#endif
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

/** Fails naming the first byte where `produced` leaves `golden`. */
void
expectSameBytes(const std::string& produced, const std::string& golden,
                const std::string& what)
{
    // EXPECT_EQ on the whole document would dump both reports on a
    // mismatch; locate the first differing byte instead.
    if (produced == golden)
        return;
    std::size_t at = 0;
    while (at < produced.size() && at < golden.size() &&
           produced[at] == golden[at])
        ++at;
    ADD_FAILURE() << what << " diverges from the golden at byte " << at
                  << ": ..." << golden.substr(at > 40 ? at - 40 : 0, 80)
                  << "... vs produced ..."
                  << produced.substr(at > 40 ? at - 40 : 0, 80) << "...";
}

class CampaignGolden : public ::testing::TestWithParam<const char*>
{
};

TEST_P(CampaignGolden, ReportIsBitwiseIdenticalToTheGolden)
{
    const std::string name = GetParam();
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(loadNamedCampaign(name));
    expectSameBytes(report.toJson().dump(2) + "\n",
                    readFile(goldenDir() + "/" + name + ".report.json"),
                    name + ".report.json");
}

INSTANTIATE_TEST_SUITE_P(AllCampaigns, CampaignGolden,
                         ::testing::Values("smoke", "table1", "table4",
                                           "fig8", "fig9",
                                           "scalability"),
                         [](const auto& param_info) {
                             return std::string(param_info.param);
                         });

/**
 * The CSV writer's bytes, pinned the same way on two campaigns: the
 * JSON goldens above fix every number, and these fix the CSV layout,
 * quoting and number spelling that `--csv-out` and a served
 * `?format=csv` report write.
 */
class CampaignGoldenCsv : public ::testing::TestWithParam<const char*>
{
};

TEST_P(CampaignGoldenCsv, CsvIsBitwiseIdenticalToTheGolden)
{
    const std::string name = GetParam();
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(loadNamedCampaign(name));
    expectSameBytes(report.toCsv(),
                    readFile(goldenDir() + "/" + name + ".report.csv"),
                    name + ".report.csv");
}

INSTANTIATE_TEST_SUITE_P(CsvCampaigns, CampaignGoldenCsv,
                         ::testing::Values("smoke", "fig9"),
                         [](const auto& param_info) {
                             return std::string(param_info.param);
                         });

/**
 * The same byte-identity, re-run under each forced SIMD tier: the
 * smoke campaign covers the detector, pruner, generator and report
 * writer end to end, so one golden re-check per tier pins "tier
 * choice never changes a simulation result" at the highest level the
 * repo has. (The full campaign set runs once above under the auto
 * tier; smoke keeps the per-tier sweep cheap.)
 */
class CampaignGoldenPerTier : public ::testing::TestWithParam<SimdTier>
{
  protected:
    void TearDown() override { resetSimdTier(); }
};

TEST_P(CampaignGoldenPerTier, SmokeReportIsByteIdenticalUnderForcedTier)
{
    ASSERT_TRUE(setSimdTier(GetParam()))
        << simdTierName(GetParam());
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(loadNamedCampaign("smoke"));
    expectSameBytes(report.toJson().dump(2) + "\n",
                    readFile(goldenDir() + "/smoke.report.json"),
                    std::string("tier ") + simdTierName(GetParam()) +
                        ": smoke.report.json");
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableTiers, CampaignGoldenPerTier,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier>& param_info) {
        return std::string(simdTierName(param_info.param));
    });

/**
 * Tracing inertness at the highest level: the smoke campaign run with
 * the flight recorder enabled and every span site live (installed
 * context, per-layer and per-stage spans recording) must produce the
 * byte-identical golden report. Spans observe the run; nothing they
 * do may feed back into a result or its serialization.
 *
 * The spans also show the smoke campaign's three designs running as
 * one lineup at any thread count: one engine/simulate span, and one
 * spikegen span per spiking layer of LeNet5 (four), not per design.
 * Its one Prosperity design summarizes each spiking layer's tiles
 * once: four frontend spans.
 */
TEST(CampaignGoldenTraced, SmokeReportIsByteIdenticalWithTracingOn)
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.setEnabled(true);
    const std::string golden = readFile(goldenDir() + "/smoke.report.json");

    for (const std::size_t threads : {1u, 4u}) {
        const std::uint64_t trace_id = recorder.mintTraceId();
        std::string produced;
        {
            obs::ScopedTraceContext scope(obs::TraceContext{trace_id, 0});
            obs::ScopedSpan root("campaign", "smoke");
            EngineOptions options;
            options.threads = threads;
            SimulationEngine engine(options);
            CampaignRunner runner(engine);
            const CampaignReport report =
                runner.run(loadNamedCampaign("smoke"));
            produced = report.toJson().dump(2) + "\n";
        }
        EXPECT_EQ(produced, golden) << threads << " threads";

        std::size_t spikegen = 0;
        std::size_t frontend = 0;
        std::size_t simulate = 0;
        for (const obs::TraceSpan& span : recorder.collect(trace_id)) {
            const std::string category = span.category;
            spikegen += category == "spikegen";
            frontend += category == "frontend";
            simulate += category == "engine" && span.name == "simulate";
        }
        EXPECT_EQ(spikegen, 4u) << threads << " threads";
        EXPECT_EQ(frontend, 4u) << threads << " threads";
        EXPECT_EQ(simulate, 1u) << threads << " threads";
    }
    recorder.setEnabled(false);
    recorder.clear();
}

} // namespace
} // namespace prosperity
