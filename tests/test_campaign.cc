/**
 * @file
 * Tests for the declarative campaign layer: deterministic,
 * duplicate-free spec expansion; JSON round-trips
 * (parse(serialize(spec)) == spec); actionable errors for malformed
 * specs; and the redesign's compatibility pin — campaigns/fig8.json
 * expands to exactly the job list the pre-redesign bench built by
 * hand, and CampaignRunner's results are bitwise identical to
 * SimulationEngine::runGrid over the same axes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "analysis/campaign.h"
#include "stats/adaptive_runner.h"

namespace prosperity {
namespace {

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.name = "unit";
    spec.accelerators.push_back(
        {"eyeriss", AcceleratorSpec{"eyeriss"}});
    spec.accelerators.push_back(
        {"ptb8", AcceleratorSpec{"ptb", AcceleratorParams{
                                            {"time_steps", "8"}}}});
    spec.workloads.push_back(
        makeWorkload("LeNet5", "MNIST"));
    spec.workloads.push_back(
        makeWorkload("VGG9", "MNIST"));
    return spec;
}

void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dense_macs, b.dense_macs);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    ASSERT_EQ(a.energy.breakdown().size(), b.energy.breakdown().size());
    for (const auto& [component, pj] : a.energy.breakdown())
        EXPECT_EQ(pj, b.energy.componentPj(component)) << component;
}

TEST(CampaignSpec, CrossExpansionIsDeterministicAndGridOrdered)
{
    CampaignSpec spec = smallSpec();
    RunOptions seeded;
    seeded.seed = 11;
    spec.options = {RunOptions{}, seeded};

    const auto expansion = spec.expand();
    // options outermost, workloads, then accelerators — runGrid order
    // within each option set.
    ASSERT_EQ(expansion.jobs.size(), 8u);
    ASSERT_EQ(expansion.cells.size(), 8u);
    std::size_t i = 0;
    for (std::size_t o = 0; o < 2; ++o)
        for (std::size_t w = 0; w < 2; ++w)
            for (std::size_t a = 0; a < 2; ++a, ++i) {
                const auto& cell = expansion.cells[i];
                EXPECT_EQ(cell.accelerator_index, a);
                EXPECT_EQ(cell.workload_index, w);
                EXPECT_EQ(cell.option_index, o);
                EXPECT_EQ(cell.job_index, i); // no duplicates here
                const SimulationJob& job = expansion.jobs[cell.job_index];
                EXPECT_EQ(job.accelerator, spec.accelerators[a].spec);
                EXPECT_EQ(job.workload, spec.workloads[w]);
                EXPECT_EQ(job.options, spec.options[o]);
            }

    // Expansion is a pure function of the spec.
    const auto again = spec.expand();
    ASSERT_EQ(again.jobs.size(), expansion.jobs.size());
    for (std::size_t j = 0; j < expansion.jobs.size(); ++j)
        EXPECT_EQ(SimulationEngine::jobKey(again.jobs[j]),
                  SimulationEngine::jobKey(expansion.jobs[j]));
}

TEST(CampaignSpec, ExpansionIsDuplicateFree)
{
    CampaignSpec spec = smallSpec();
    // Same design point twice under different labels, and a
    // case-variant of the first (the registry is case-insensitive, so
    // these are all the same simulation).
    spec.accelerators.push_back(
        {"eyeriss-again", AcceleratorSpec{"eyeriss"}});
    spec.accelerators.push_back(
        {"eyeriss-upper", AcceleratorSpec{"Eyeriss"}});
    spec.workloads.resize(1);

    const auto expansion = spec.expand();
    EXPECT_EQ(expansion.cells.size(), 4u);
    EXPECT_EQ(expansion.jobs.size(), 2u); // eyeriss deduped, ptb8 kept
    EXPECT_EQ(expansion.cells[0].job_index,
              expansion.cells[2].job_index);
    EXPECT_EQ(expansion.cells[0].job_index,
              expansion.cells[3].job_index);
}

TEST(CampaignSpec, ZipExpansionBroadcastsAndValidatesLengths)
{
    CampaignSpec spec = smallSpec();
    spec.expansion = CampaignSpec::Expansion::kZip;
    // accelerators = 2, workloads = 2 -> pairs (0,0) and (1,1).
    const auto expansion = spec.expand();
    ASSERT_EQ(expansion.jobs.size(), 2u);
    EXPECT_EQ(expansion.cells[0].accelerator_index, 0u);
    EXPECT_EQ(expansion.cells[0].workload_index, 0u);
    EXPECT_EQ(expansion.cells[1].accelerator_index, 1u);
    EXPECT_EQ(expansion.cells[1].workload_index, 1u);

    // Length-1 axes broadcast.
    CampaignSpec broadcast = smallSpec();
    broadcast.expansion = CampaignSpec::Expansion::kZip;
    broadcast.workloads.resize(1);
    const auto b = broadcast.expand();
    ASSERT_EQ(b.jobs.size(), 2u);
    EXPECT_EQ(b.cells[1].accelerator_index, 1u);
    EXPECT_EQ(b.cells[1].workload_index, 0u);

    // Mismatched lengths are rejected with an actionable message.
    CampaignSpec bad = smallSpec();
    bad.expansion = CampaignSpec::Expansion::kZip;
    bad.workloads.push_back(
        makeWorkload("LeNet5", "CIFAR10"));
    try {
        bad.expand();
        FAIL() << "zip length mismatch not rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("zip"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("workloads=3"),
                  std::string::npos);
    }
}

TEST(CampaignSpec, ValidatesLabelsBaselineAndEmptyAxes)
{
    CampaignSpec no_accels;
    no_accels.name = "x";
    no_accels.workloads.push_back(
        makeWorkload("LeNet5", "MNIST"));
    EXPECT_THROW(no_accels.expand(), std::invalid_argument);

    CampaignSpec dup = smallSpec();
    dup.accelerators.push_back(dup.accelerators.front());
    try {
        dup.expand();
        FAIL() << "duplicate label not rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate accelerator "
                                             "label \"eyeriss\""),
                  std::string::npos);
    }

    CampaignSpec bad_baseline = smallSpec();
    bad_baseline.baseline = "tpu";
    EXPECT_THROW(bad_baseline.expand(), std::invalid_argument);
}

TEST(CampaignSpec, JsonRoundTripIsExact)
{
    CampaignSpec spec = smallSpec();
    spec.description = "unit-test spec";
    spec.baseline = "ptb8";
    spec.expansion = CampaignSpec::Expansion::kZip;
    RunOptions opts;
    opts.seed = 12345;
    opts.keep_layer_records = true;
    spec.options = {opts, RunOptions{}};
    // A profile override must survive the round trip too.
    spec.workloads[1].profile.bit_density = 0.123456789012345;
    spec.workloads[1].profile.bank_size = 7;

    const std::string text = spec.toJson().dump();
    const CampaignSpec back =
        CampaignSpec::fromJson(json::Value::parse(text));
    EXPECT_TRUE(back == spec);

    // And serialization is a fixed point (byte-stable reports).
    EXPECT_EQ(back.toJson().dump(), text);
}

TEST(CampaignSpec, LoadedSpecsRoundTrip)
{
    for (const char* name : {"fig8", "fig9", "table1", "table4",
                             "scalability", "smoke", "custom_smoke"}) {
        const CampaignSpec spec = loadNamedCampaign(name);
        const CampaignSpec back = CampaignSpec::fromJson(
            json::Value::parse(spec.toJson().dump()));
        EXPECT_TRUE(back == spec) << name;
    }
}

TEST(CampaignSpec, FileModelReferencesSerializeBackToTheFileRef)
{
    // A JSON-only model is registered under its own name, but the spec
    // keeps pointing at the file, so written reports/specs stay
    // loadable by a fresh process.
    const CampaignSpec spec = loadNamedCampaign("custom_smoke");
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0].model, "examplecustom");
    EXPECT_EQ(spec.workloads[0].name(), "ExampleCustom/MNIST");
    EXPECT_NE(spec.toJson().dump().find(
                  "file:models/example_custom.json"),
              std::string::npos);
}

TEST(CampaignSpec, UnknownNamesListTheRegisteredRosters)
{
    const auto expectError = [](const char* text,
                                std::initializer_list<const char*>
                                    fragments) {
        try {
            CampaignSpec::fromJson(json::Value::parse(text));
            FAIL() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            for (const char* fragment : fragments)
                EXPECT_NE(std::string(e.what()).find(fragment),
                          std::string::npos)
                    << "message \"" << e.what()
                    << "\" does not mention \"" << fragment << '"';
        }
    };

    // Each axis's error names the bad key AND the registered options.
    expectError(R"({"name": "x", "accelerators": [{"name": "tpu"}],
                    "workloads": [{"suite": "fig8"}]})",
                {"unknown accelerator \"tpu\"", "registered:",
                 "eyeriss", "prosperity", "loas"});
    expectError(R"({"name": "x", "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"model": "VGG17",
                                   "dataset": "CIFAR10"}]})",
                {"unknown model \"VGG17\"", "registered:", "VGG16",
                 "SpikingBERT", "file:<path>"});
    expectError(R"({"name": "x", "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"model": "VGG16",
                                   "dataset": "CIFAR1000"}]})",
                {"unknown dataset \"CIFAR1000\"", "registered:",
                 "CIFAR10DVS", "MNLI"});
}

/** Acceptance pin: a model outside the built-in zoo, referenced by
 *  file, runs end to end through the campaign engine with
 *  deterministic, memoized results. */
TEST(CampaignRunner, FileModelRunsEndToEndDeterministicAndMemoized)
{
    const CampaignSpec spec = loadNamedCampaign("custom_smoke");

    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport first = runner.run(spec);
    ASSERT_EQ(first.cells.size(), 2u);
    for (const CampaignCell& cell : first.cells) {
        EXPECT_EQ(cell.result.workload, "ExampleCustom/MNIST");
        EXPECT_GT(cell.result.cycles, 0.0);
        EXPECT_GT(cell.result.energy.totalPj(), 0.0);
    }

    // Re-running hits the memo cache and reproduces every number.
    const std::size_t hits_before = engine.stats().hits;
    const CampaignReport again = runner.run(spec);
    EXPECT_GT(engine.stats().hits, hits_before);
    for (std::size_t i = 0; i < first.cells.size(); ++i)
        expectIdentical(again.cells[i].result, first.cells[i].result);

    // A fresh engine (no shared cache) is bitwise deterministic too.
    SimulationEngine fresh;
    const CampaignReport independent = CampaignRunner(fresh).run(spec);
    for (std::size_t i = 0; i < first.cells.size(); ++i)
        expectIdentical(independent.cells[i].result,
                        first.cells[i].result);

    // Prosperity exploits the custom model's sparsity.
    const DerivedTable speedup = first.speedupTable();
    EXPECT_GT(speedup.values[0][1], 1.0);
}

TEST(CampaignSpec, MalformedSpecsProduceActionableErrors)
{
    const auto parse = [](const char* text) {
        return CampaignSpec::fromJson(json::Value::parse(text));
    };
    const auto expectError = [&](const char* text,
                                 const char* fragment) {
        try {
            parse(text);
            FAIL() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << "message \"" << e.what()
                << "\" does not mention \"" << fragment << '"';
        }
    };

    expectError(R"({"accelerators": [], "workloads": []})",
                "missing required key \"name\"");
    expectError(R"({"name": "x", "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"model": "VGG17",
                                   "dataset": "CIFAR10"}]})",
                "unknown model \"VGG17\"");
    expectError(R"({"name": "x", "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"model": "VGG16",
                                   "dataset": "CIFAR1000"}]})",
                "unknown dataset \"CIFAR1000\"");
    expectError(R"({"name": "x", "expansion": "product",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig8"}]})",
                "unknown expansion \"product\"");
    expectError(R"({"name": "x",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig12"}]})",
                "unknown suite \"fig12\"");
    expectError(R"({"name": "x",
                    "accelerators": [{"name": "eyeriss",
                                      "typo_key": 1}],
                    "workloads": [{"suite": "fig8"}]})",
                "unknown key \"typo_key\"");
    expectError(R"({"name": "x", "accelerators": "eyeriss",
                    "workloads": [{"suite": "fig8"}]})",
                "must be an array");
    expectError(R"({"name": "x",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig8"}],
                    "options": [{"seed": -1}]})",
                "non-negative integer");
    // 2^53 + 1 parses to exactly 2^53, so the exact-integer guard
    // must reject from 2^53 up, not only above it.
    expectError(R"({"name": "x",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig8"}],
                    "options": [{"seed": 9007199254740993}]})",
                "2^53");
    expectError(R"({"name": "x",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig8"}],
                    "options": [{"seed": 9007199254740992}]})",
                "2^53");
    expectError(R"({"name": "x", "baseline": "tpu",
                    "accelerators": [{"name": "eyeriss"}],
                    "workloads": [{"suite": "fig8"}]})",
                "baseline \"tpu\"");

    // File-level errors mention the path.
    try {
        CampaignSpec::load("/nonexistent/spec.json");
        FAIL() << "missing file not rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/spec.json"),
                  std::string::npos);
    }
}

/** The pre-redesign bench_fig8_endtoend hand-built this exact job
 *  list: the seven-design lineup (Fig. 8 column order) crossed with
 *  fig8Suite() in SimulationEngine::runGrid order. The checked-in
 *  spec must expand to it verbatim. */
TEST(CampaignSpec, Fig8SpecExpandsToTheLegacyJobList)
{
    const CampaignSpec spec = loadNamedCampaign("fig8");

    const char* lineup[] = {"eyeriss", "ptb",  "sato",       "mint",
                            "stellar", "a100", "prosperity"};
    const std::vector<Workload> workloads = fig8Suite();
    std::vector<SimulationJob> legacy;
    for (const Workload& w : workloads)
        for (const char* name : lineup)
            legacy.push_back(
                SimulationJob{AcceleratorSpec{name}, w, RunOptions{}});

    const std::vector<SimulationJob> jobs = spec.expandJobs();
    ASSERT_EQ(jobs.size(), legacy.size());
    ASSERT_EQ(jobs.size(), 112u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(SimulationEngine::jobKey(jobs[i]),
                  SimulationEngine::jobKey(legacy[i]))
            << "job " << i;
}

/** CampaignRunner == runGrid, bitwise, cell for grid position, over a
 *  slice of the real fig8 campaign on independent engines. Together
 *  with Fig8SpecExpandsToTheLegacyJobList this pins that
 *  `prosperity_cli campaign campaigns/fig8.json` reproduces the
 *  pre-redesign bench's RunResult numbers. */
TEST(CampaignRunner, MatchesRunGridBitwiseOnAFig8Slice)
{
    CampaignSpec spec = loadNamedCampaign("fig8");
    spec.workloads.resize(2); // VGG16/CIFAR10, VGG16/CIFAR100

    std::vector<AcceleratorSpec> accels;
    for (const CampaignAccelerator& a : spec.accelerators)
        accels.push_back(a.spec);

    SimulationEngine grid_engine;
    const auto grid = grid_engine.runGrid(accels, spec.workloads);

    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(spec);

    ASSERT_EQ(report.cells.size(),
              spec.workloads.size() * spec.accelerators.size());
    for (const CampaignCell& cell : report.cells)
        expectIdentical(cell.result,
                        grid[cell.workload_index][cell.accelerator_index]);
}

TEST(CampaignRunner, StreamsProgressInJobOrder)
{
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignSpec spec = loadNamedCampaign("smoke");

    std::vector<std::size_t> completed;
    std::size_t total = 0;
    const CampaignReport report = runner.run(
        spec, [&](const CampaignProgress& p) {
            completed.push_back(p.completed);
            total = p.total;
            EXPECT_NE(p.job, nullptr);
            EXPECT_NE(p.result, nullptr);
        });

    ASSERT_EQ(completed.size(), 3u);
    EXPECT_EQ(total, 3u);
    for (std::size_t i = 0; i < completed.size(); ++i)
        EXPECT_EQ(completed[i], i + 1);
    EXPECT_EQ(report.cells.size(), 3u);
}

TEST(CampaignReport, DerivedTablesAndLookups)
{
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(loadNamedCampaign("smoke"));

    const DerivedTable speedup = report.speedupTable();
    ASSERT_EQ(speedup.columns.size(), 3u);
    ASSERT_EQ(speedup.rows.size(), 1u);
    EXPECT_EQ(speedup.baseline, "eyeriss");
    EXPECT_EQ(speedup.values[0][0], 1.0); // baseline column
    EXPECT_GT(speedup.values[0][2], 1.0); // prosperity beats dense
    EXPECT_EQ(speedup.geomean[0], 1.0);

    const RunResult* pros = report.find("prosperity", "LeNet5/MNIST");
    ASSERT_NE(pros, nullptr);
    EXPECT_EQ(pros->accelerator, "Prosperity");
    EXPECT_EQ(report.find("prosperity", "VGG16/CIFAR10"), nullptr);
    EXPECT_EQ(report.find("tpu", "LeNet5/MNIST"), nullptr);

    const CampaignCell* cell = report.cell(2, 0, 0);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(&cell->result, pros);
}

TEST(CampaignReport, JsonAndCsvSerialization)
{
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(loadNamedCampaign("smoke"));

    const json::Value doc = report.toJson();
    EXPECT_EQ(doc.at("schema_version").asNumber(), 1.0);
    EXPECT_EQ(doc.at("campaign").asString(), "smoke");
    EXPECT_EQ(doc.at("cells").asArray().size(), 3u);
    const json::Value& first = doc.at("cells").asArray().front();
    EXPECT_EQ(first.at("accelerator").asString(), "eyeriss");
    EXPECT_GT(first.at("cycles").asNumber(), 0.0);
    EXPECT_GT(first.at("energy_breakdown").asObject().size(), 0u);
    // The embedded spec parses back to the spec that ran.
    EXPECT_TRUE(CampaignSpec::fromJson(doc.at("spec")) == report.spec);
    // Derived tables are embedded with matching shapes.
    const json::Value& derived = doc.at("derived");
    EXPECT_EQ(derived.at("speedup").at("columns").asArray().size(), 3u);
    // The document survives a parse (valid JSON, numbers exact).
    const json::Value reparsed = json::Value::parse(doc.dump());
    EXPECT_EQ(reparsed.at("cells").asArray().front().at("cycles"),
              first.at("cycles"));

    std::ostringstream csv;
    report.writeCsv(csv);
    const std::string text = csv.str();
    // Header + one row per cell.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find("accelerator,workload,model,dataset,seed"),
              std::string::npos);
}

/** An adaptive single-cell spec with real seed-to-seed variance (the
 *  sampled density analysis depends on the seed). */
CampaignSpec
adaptiveSpec(std::size_t min_seeds, std::size_t max_seeds)
{
    CampaignSpec spec;
    spec.name = "adaptive-unit";
    spec.accelerators.push_back(
        {"prosperity",
         AcceleratorSpec{"prosperity",
                         AcceleratorParams{{"max_sampled_tiles", "8"}}}});
    spec.workloads.push_back(makeWorkload("LeNet5", "MNIST"));
    stats::SamplingPlan plan;
    plan.eps = 1e-9; // never converges: the cap decides the count
    plan.min_seeds = min_seeds;
    plan.max_seeds = max_seeds;
    plan.metrics = {"cycles", "energy_pj"};
    plan.checkpoints.start = 2;
    spec.sampling = plan;
    return spec;
}

TEST(CampaignRunner, AppendingSeedsNeverPerturbsEarlierSeeds)
{
    // Substream independence, pinned bitwise: widening a cell's seed
    // budget re-derives the *same* per-seed jobs, so every result from
    // the narrow run reappears untouched in the wide run. The engine's
    // per-seed results are observable through the substream derivation
    // directly...
    const CampaignSpec narrow = adaptiveSpec(4, 4);
    const SimulationJob base = narrow.expandJobs().front();
    const std::string key = SimulationEngine::jobKey(base);

    SimulationEngine engine;
    std::vector<double> narrow_cycles;
    for (std::size_t i = 0; i < 4; ++i) {
        SimulationJob job = base;
        job.options.seed =
            stats::deriveSubstreamSeed(key, base.options.seed, i);
        narrow_cycles.push_back(engine.run(job).cycles);
    }
    // ...and seed index 0 is the base seed itself: the adaptive run's
    // first draw is bitwise the fixed-seed run.
    EXPECT_EQ(stats::deriveSubstreamSeed(key, base.options.seed, 0),
              base.options.seed);

    // ...and through the checkpoint curve: the wide run's n=4
    // checkpoint must equal the narrow run's final interval bitwise,
    // because seeds 0..3 are identical in both.
    CampaignRunner runner(engine);
    const CampaignReport narrow_report = runner.run(narrow);
    const CampaignReport wide_report = runner.run(adaptiveSpec(4, 8));
    ASSERT_TRUE(narrow_report.cells.front().sampling.has_value());
    ASSERT_TRUE(wide_report.cells.front().sampling.has_value());
    const stats::CellSampling& narrow_cell =
        *narrow_report.cells.front().sampling;
    const stats::CellSampling& wide_cell =
        *wide_report.cells.front().sampling;
    EXPECT_EQ(narrow_cell.n_seeds, 4u);
    EXPECT_EQ(wide_cell.n_seeds, 8u);

    const stats::CheckpointPoint* at4 = nullptr;
    for (const stats::CheckpointPoint& point : wide_cell.checkpoints)
        if (point.n == 4)
            at4 = &point;
    ASSERT_NE(at4, nullptr);
    ASSERT_EQ(at4->metrics.size(), narrow_cell.metrics.size());
    for (std::size_t m = 0; m < at4->metrics.size(); ++m) {
        const stats::MetricStats& wide = at4->metrics[m];
        const stats::MetricStats& nar = narrow_cell.metrics[m];
        EXPECT_EQ(wide.metric, nar.metric);
        EXPECT_EQ(wide.mean, nar.mean);
        EXPECT_EQ(wide.stddev, nar.stddev);
        EXPECT_EQ(wide.min, nar.min);
        EXPECT_EQ(wide.max, nar.max);
    }
    // The narrow run's mean is exactly the mean of the four per-seed
    // results observed above (same Welford fold, same order).
    const stats::MetricStats& cycles_stats = narrow_cell.metrics.front();
    ASSERT_EQ(cycles_stats.metric, "cycles");
    EXPECT_EQ(cycles_stats.min,
              *std::min_element(narrow_cycles.begin(),
                                narrow_cycles.end()));
    EXPECT_EQ(cycles_stats.max,
              *std::max_element(narrow_cycles.begin(),
                                narrow_cycles.end()));
    // Real variance: the test would be vacuous if every seed agreed.
    EXPECT_NE(cycles_stats.min, cycles_stats.max);
}

TEST(CampaignRunner, AdaptiveReportIsIdenticalAcrossThreadCounts)
{
    CampaignSpec spec = adaptiveSpec(2, 6);
    spec.sampling->eps = 0.05; // let the stopping rule decide
    std::string dumps[2];
    const std::size_t threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        EngineOptions options;
        options.threads = threads[i];
        SimulationEngine engine(options);
        CampaignRunner runner(engine);
        dumps[i] = runner.run(spec).toJson().dump(2);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(CampaignRunner, UnconvergedCellsAreFlaggedAtTheCap)
{
    const CampaignSpec spec = adaptiveSpec(2, 3); // eps 1e-9: hopeless
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(spec);
    ASSERT_TRUE(report.cells.front().sampling.has_value());
    const stats::CellSampling& cell = *report.cells.front().sampling;
    EXPECT_EQ(cell.n_seeds, 3u);
    EXPECT_FALSE(cell.converged);
    for (const stats::MetricStats& metric : cell.metrics)
        EXPECT_FALSE(metric.converged);
}

TEST(CampaignReport, AdaptiveJsonAndCsvCarrySamplingColumns)
{
    CampaignSpec spec = adaptiveSpec(2, 2);
    SimulationEngine engine;
    CampaignRunner runner(engine);
    const CampaignReport report = runner.run(spec);

    const json::Value doc = report.toJson();
    // The embedded spec round-trips with its sampling block.
    EXPECT_TRUE(CampaignSpec::fromJson(doc.at("spec")) == report.spec);
    const json::Value& cell = doc.at("cells").asArray().front();
    const json::Value& sampling = cell.at("sampling");
    EXPECT_EQ(sampling.at("n_seeds").asNumber(), 2.0);
    EXPECT_GE(sampling.at("metrics").asArray().size(), 2u);
    EXPECT_GE(sampling.at("checkpoints").asArray().size(), 1u);

    std::ostringstream csv;
    report.writeCsv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("n_seeds"), std::string::npos);
    EXPECT_NE(text.find("cycles_mean"), std::string::npos);
    EXPECT_NE(text.find("cycles_ci_half_width"), std::string::npos);
    EXPECT_NE(text.find("energy_pj_mean"), std::string::npos);
}

} // namespace
} // namespace prosperity
