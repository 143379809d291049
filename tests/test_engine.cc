/**
 * @file
 * Tests for the SimulationEngine: multi-threaded batch runs are
 * bitwise-identical to single-threaded ones over the full
 * model x accelerator grid, a design run in a shared-spike lineup
 * matches the same design run alone (also when Prosperity variants
 * share tile summaries, and when workloads that draw one spike
 * stream share a lineup), jobs on different spike streams never
 * share one, result order matches job order,
 * memoization works, job key bytes are pinned, Prosperity's results
 * on wide and exact tiles are pinned, and ModelHints reach
 * time-batching designs exactly as on the legacy runner path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "baselines/ptb.h"
#include "gen/spike_generator.h"
#include "obs/trace.h"
#include "snn/model_desc.h"

namespace prosperity {
namespace {

/** Every registered design; Prosperity sampled lightly to keep the
 *  grid fast without changing any determinism property. */
std::vector<AcceleratorSpec>
fullLineup()
{
    std::vector<AcceleratorSpec> specs;
    for (const std::string& name :
         AcceleratorRegistry::instance().names()) {
        AcceleratorSpec spec(name);
        if (name == "prosperity")
            spec.params.set("max_sampled_tiles", std::size_t{24});
        specs.push_back(spec);
    }
    return specs;
}

std::vector<Workload>
gridWorkloads()
{
    return {makeWorkload("LeNet5", "MNIST"),
            makeWorkload("SpikingBERT", "SST-2")};
}

void
expectIdentical(const RunResult& a, const RunResult& b)
{
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the engine guarantees *bitwise*
    // identity across thread counts, so no ULP tolerance is allowed.
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dense_macs, b.dense_macs);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    for (std::size_t i = 0; i < kEnergyComponentCount; ++i) {
        const auto component = static_cast<EnergyComponent>(i);
        EXPECT_EQ(a.energy.charged(component), b.energy.charged(component))
            << energyComponentName(component);
        EXPECT_EQ(a.energy.componentPj(component),
                  b.energy.componentPj(component))
            << energyComponentName(component);
    }
}

TEST(Engine, ParallelBatchMatchesSingleThreadedBitwise)
{
    const auto specs = fullLineup();
    const auto workloads = gridWorkloads();

    EngineOptions serial;
    serial.threads = 1;
    EngineOptions parallel;
    parallel.threads = 4;

    SimulationEngine engine1(serial);
    SimulationEngine engine4(parallel);
    const auto grid1 = engine1.runGrid(specs, workloads);
    const auto grid4 = engine4.runGrid(specs, workloads);

    ASSERT_EQ(grid1.size(), workloads.size());
    ASSERT_EQ(grid4.size(), workloads.size());
    for (std::size_t w = 0; w < grid1.size(); ++w) {
        ASSERT_EQ(grid1[w].size(), specs.size());
        for (std::size_t a = 0; a < grid1[w].size(); ++a)
            expectIdentical(grid1[w][a], grid4[w][a]);
    }
}

TEST(Engine, ResultOrderFollowsJobOrder)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    std::vector<SimulationJob> jobs;
    for (const char* name : {"a100", "eyeriss", "ptb"})
        jobs.push_back(SimulationJob{AcceleratorSpec{name}, w, {}});

    SimulationEngine engine;
    const auto results = engine.runBatch(jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].accelerator, "A100");
    EXPECT_EQ(results[1].accelerator, "Eyeriss");
    EXPECT_EQ(results[2].accelerator, "PTB");
    EXPECT_EQ(results[0].workload, "LeNet5/MNIST");
}

TEST(Engine, MemoizesAcrossAndWithinBatches)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    const SimulationJob job{AcceleratorSpec{"eyeriss"}, w, {}};

    SimulationEngine engine;
    const RunResult first = engine.run(job);
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().hits, 0u);

    const RunResult again = engine.run(job);
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().hits, 1u);
    expectIdentical(first, again);

    // Duplicates inside one batch simulate once and stay in order.
    const auto results = engine.runBatch({job, job, job});
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().hits, 4u);
    for (const RunResult& r : results)
        expectIdentical(first, r);
}

TEST(Engine, DifferentSeedsAreDistinctJobs)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    SimulationJob a{AcceleratorSpec{"ptb"}, w, {}};
    SimulationJob b = a;
    b.options.seed = a.options.seed + 1;

    SimulationEngine engine;
    const auto results = engine.runBatch({a, b});
    EXPECT_EQ(engine.stats().entries, 2u);
    EXPECT_NE(results[0].cycles, results[1].cycles);
}

TEST(Engine, UnknownAcceleratorFailsFast)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    SimulationEngine engine;
    EXPECT_THROW(engine.run(SimulationJob{AcceleratorSpec{"tpu"}, w, {}}),
                 std::invalid_argument);
}

TEST(Engine, FactoryErrorsPropagateFromWorkers)
{
    // Two distinct workloads -> two lineups on a 4-worker pool, and
    // the bad factory's exception must surface from runBatch.
    const Workload w1 = makeWorkload("LeNet5", "MNIST");
    const Workload w2 =
        makeWorkload("SpikingBERT", "SST-2");
    AcceleratorSpec bad("prosperity");
    bad.params.set("sparsity", "banana");
    std::vector<SimulationJob> jobs = {
        SimulationJob{AcceleratorSpec{"eyeriss"}, w1, {}},
        SimulationJob{bad, w2, {}},
    };
    EngineOptions options;
    options.threads = 4;
    SimulationEngine engine(options);
    EXPECT_THROW(engine.runBatch(jobs), std::invalid_argument);
}

TEST(Engine, JobKeyIsCaseInsensitiveLikeTheRegistry)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    SimulationEngine engine;
    const RunResult lower =
        engine.run(SimulationJob{AcceleratorSpec{"ptb"}, w, {}});
    EXPECT_EQ(engine.stats().entries, 1u);
    const RunResult upper =
        engine.run(SimulationJob{AcceleratorSpec{"PTB"}, w, {}});
    EXPECT_EQ(engine.stats().entries, 1u); // same design, same key
    EXPECT_EQ(engine.stats().hits, 1u);
    expectIdentical(lower, upper);
}

/** Job keys name ResultStore entries, make run ids and seed adaptive
 *  substreams, so their bytes must never move: doubles as "%.17g",
 *  integers in decimal, the bool as 0 or 1. */
TEST(Engine, JobKeyBytesArePinned)
{
    SimulationJob job{AcceleratorSpec{"eyeriss"},
                      makeWorkload("LeNet5", "MNIST"), {}};
    job.options.seed = 7;
    EXPECT_EQ(SimulationEngine::jobKey(job),
              "eyeriss{}|LeNet5/MNIST|0.22,0.78000000000000003,12,"
              "0.29999999999999999,0.34999999999999998,"
              "0.10000000000000001,0.0030000000000000001|7|0");

    // Signed zero, a subnormal, a large exponent, a repeating
    // fraction, both bank_size bounds and the largest JSON seed.
    job.accelerator = AcceleratorSpec{"prosperity"};
    ActivationProfile& p = job.workload.profile;
    p.bit_density = 1.0 / 3.0;
    p.cluster_fraction = -0.0;
    p.bank_size = 0;
    p.subset_drop_prob = 5e-324;
    p.temporal_repeat = 1e+20;
    p.union_prob = 0.5;
    p.noise_insert_prob = 1.0;
    job.options.seed = (std::uint64_t{1} << 53) - 1;
    job.options.keep_layer_records = true;
    EXPECT_EQ(SimulationEngine::jobKey(job),
              "prosperity{}|LeNet5/MNIST|0.33333333333333331,-0,0,"
              "4.9406564584124654e-324,1e+20,0.5,1|9007199254740991|1");
    p.bank_size = ActivationProfile::kMaxBankSize;
    EXPECT_EQ(SimulationEngine::jobKey(job),
              "prosperity{}|LeNet5/MNIST|0.33333333333333331,-0,256,"
              "4.9406564584124654e-324,1e+20,0.5,1|9007199254740991|1");
}

TEST(Engine, LineupMatchesSingleDesignRunsBitwise)
{
    // runGrid submits each workload's designs as one lineup sharing
    // its spike matrices; every result must equal that design run
    // alone on a fresh accelerator.
    const auto specs = fullLineup();
    const auto workloads = gridWorkloads();
    SimulationEngine engine;
    const auto grid = engine.runGrid(specs, workloads);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t a = 0; a < specs.size(); ++a) {
            const std::unique_ptr<Accelerator> alone =
                AcceleratorRegistry::instance().create(specs[a].name,
                                                       specs[a].params);
            expectIdentical(grid[w][a], runWorkload(*alone, workloads[w]));
        }
    }
}

TEST(Engine, ProsperityVariantLineupMatchesLoneRunsBitwise)
{
    // Prosperity variants in one lineup share each layer's tile
    // summaries wherever their tiling (tile_m, tile_k,
    // max_sampled_tiles) agrees; the other knobs only change how a
    // summary is costed. Every variant must still equal its lone run
    // on a fresh accelerator, whichever variant fills a summary first.
    const std::vector<AcceleratorParams> variants = {
        AcceleratorParams().set("sparsity", "bit"),
        AcceleratorParams().set("dispatch", "traversal"),
        AcceleratorParams{},
        AcceleratorParams().set("issue_width", "2"),
        AcceleratorParams().set("num_ppus", "2"),
        AcceleratorParams().set("tile_m", "128"),
        AcceleratorParams().set("max_sampled_tiles", "0"),
    };
    const auto create = [](const AcceleratorParams& params) {
        return AcceleratorRegistry::instance().create("prosperity", params);
    };
    for (const Workload& workload : gridWorkloads()) {
        std::vector<RunResult> alone;
        for (const AcceleratorParams& params : variants)
            alone.push_back(runWorkload(*create(params), workload));

        for (const bool reversed : {false, true}) {
            SCOPED_TRACE(workload.name() +
                         (reversed ? " reversed" : " forward"));
            std::vector<std::size_t> order(variants.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = reversed ? order.size() - 1 - i : i;
            std::vector<std::unique_ptr<Accelerator>> owned;
            std::vector<Accelerator*> lineup;
            for (const std::size_t v : order) {
                owned.push_back(create(variants[v]));
                lineup.push_back(owned.back().get());
            }
            const std::vector<RunResult> shared = runWorkloadOnAll(
                lineup,
                std::vector<const Workload*>(lineup.size(), &workload));
            for (std::size_t i = 0; i < order.size(); ++i)
                expectIdentical(shared[i], alone[order[i]]);
        }
    }
}

TEST(Engine, WideAndExactTilesArePinned)
{
    // Every golden runs 16-column tiles and samples them, so these pin
    // the wide-row prefix search (a 64-column row is one word, a
    // 128-column row two) and exact tiles end to end: Prosperity's
    // cycles and energy at seed 7, written as hex floats so that a
    // change in any bit fails. At tile_k 24 and 100 the tile origins
    // are not word-aligned, so tile rows straddle two words of the
    // layer matrix (a 100-column row also spans two words itself).
    struct Pin
    {
        const char* model;
        const char* dataset;
        AcceleratorParams params;
        double cycles;
        double energy_pj;
    };
    const auto exact = [](const char* tile_k) {
        return AcceleratorParams().set("tile_k", tile_k).set(
            "max_sampled_tiles", "0");
    };
    const AcceleratorParams k16 = exact("16");
    const AcceleratorParams k24 = exact("24");
    const AcceleratorParams k64 = exact("64");
    const AcceleratorParams k100 = exact("100");
    const AcceleratorParams k128 = exact("128");
    const AcceleratorParams walk128 =
        AcceleratorParams().set("tile_k", "128").set("dispatch", "traversal");
    const std::vector<Pin> pins = {
        {"LeNet5", "MNIST", k16, 0x1.6f3p+13, 0x1.9ef3c2774fbcbp+24},
        {"LeNet5", "MNIST", k24, 0x1.62b8p+13, 0x1.9724921508c82p+24},
        {"LeNet5", "MNIST", k64, 0x1.4d28p+13, 0x1.8cd567eecdb00p+24},
        {"LeNet5", "MNIST", k100, 0x1.4da8p+13, 0x1.8a8d4887a0a13p+24},
        {"LeNet5", "MNIST", k128, 0x1.4be0p+13, 0x1.8a9d158f31635p+24},
        {"LeNet5", "MNIST", walk128, 0x1.7e4p+13, 0x1.8aab2ff597c9ap+24},
        {"ResNet18", "CIFAR10", k16, 0x1.1c0ea8p+21, 0x1.97e5aff14ce0dp+32},
        {"ResNet18", "CIFAR10", k24, 0x1.082ef8p+21, 0x1.8ca037de9524cp+32},
        {"ResNet18", "CIFAR10", k64, 0x1.0dc8b8p+21, 0x1.81459d999a1ddp+32},
        {"ResNet18", "CIFAR10", k100, 0x1.07441p+21,
         0x1.7f36fe3555bf1p+32},
        {"ResNet18", "CIFAR10", k128, 0x1.059888p+21,
         0x1.7ebc42b98f9f9p+32},
        {"ResNet18", "CIFAR10", walk128, 0x1.06897p+21,
         0x1.7db13e978f9fap+32},
    };
    SimulationEngine engine;
    for (const Pin& pin : pins) {
        SimulationJob job{AcceleratorSpec{"prosperity", pin.params},
                          makeWorkload(pin.model, pin.dataset), {}};
        job.options.seed = 7;
        SCOPED_TRACE(SimulationEngine::jobKey(job));
        const RunResult result = engine.run(job);
        EXPECT_EQ(result.cycles, pin.cycles);
        EXPECT_EQ(result.energy.totalPj(), pin.energy_pj);
    }
}

/** Spans of one trace that show how often a lineup's work ran. */
struct SpanCounts
{
    std::size_t spikegen = 0;
    std::size_t frontend = 0;
    std::size_t simulate = 0;
};

SpanCounts
countSpans(std::uint64_t trace_id)
{
    SpanCounts counts;
    for (const obs::TraceSpan& span :
         obs::TraceRecorder::global().collect(trace_id)) {
        const std::string category = span.category;
        counts.spikegen += category == "spikegen";
        counts.frontend += category == "frontend";
        counts.simulate += category == "engine" && span.name == "simulate";
    }
    return counts;
}

/** `job`'s design run alone on a fresh accelerator. */
RunResult
loneRun(const SimulationJob& job)
{
    const std::unique_ptr<Accelerator> alone =
        AcceleratorRegistry::instance().create(job.accelerator.name,
                                               job.accelerator.params);
    return runWorkload(*alone, job.workload, job.options);
}

TEST(Engine, StreamSharingLineupMatchesLoneRuns)
{
    // SpikeBERT lowers to the same layers on SST-2, MR and SST-5, and
    // SpikingBERT on QQP and MNLI; only the classifier's n differs. So
    // each model's jobs draw one spike stream and run as one lineup
    // that generates and summarises each spiking layer once (85
    // SpikeBERT and 29 SpikingBERT GeMMs), while every cell keeps its
    // own workload and equals its design run alone.
    CampaignSpec spec;
    spec.name = "stream-sharing";
    AcceleratorSpec prosperity("prosperity");
    prosperity.params.set("max_sampled_tiles", std::size_t{24});
    spec.accelerators = {{"eyeriss", AcceleratorSpec("eyeriss")},
                         {"ptb", AcceleratorSpec("ptb")},
                         {"prosperity", prosperity}};
    spec.workloads = {makeWorkload("SpikeBERT", "SST-2"),
                      makeWorkload("SpikeBERT", "MR"),
                      makeWorkload("SpikeBERT", "SST-5"),
                      makeWorkload("SpikingBERT", "QQP"),
                      makeWorkload("SpikingBERT", "MNLI")};
    std::vector<RunResult> alone;
    for (const SimulationJob& job : spec.expand().jobs)
        alone.push_back(loneRun(job));

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.setEnabled(true);
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const std::uint64_t trace_id = recorder.mintTraceId();
        CampaignReport report;
        {
            obs::ScopedTraceContext scope(obs::TraceContext{trace_id, 0});
            EngineOptions options;
            options.threads = threads;
            SimulationEngine engine(options);
            report = CampaignRunner(engine).run(spec);
        }
        ASSERT_EQ(report.cells.size(), alone.size());
        for (std::size_t i = 0; i < alone.size(); ++i) {
            const CampaignCell& cell = report.cells[i];
            EXPECT_EQ(cell.result.workload, cell.job.workload.name());
            expectIdentical(cell.result, alone[i]);
        }
        const SpanCounts counts = countSpans(trace_id);
        EXPECT_EQ(counts.spikegen, 114u);
        EXPECT_EQ(counts.frontend, 114u);
        EXPECT_EQ(counts.simulate, 2u);
    }
    recorder.setEnabled(false);
    recorder.clear();
}

TEST(Engine, JobsOnDifferentSpikeStreamsRunInSeparateLineups)
{
    // Each pair differs in one generator input, so its two jobs draw
    // different spikes and must not share a lineup.
    const Workload lenet = makeWorkload("LeNet5", "MNIST");
    Workload denser = lenet;
    denser.profile.bit_density = 0.3;

    // Two registered models that differ only in one layer's
    // profile_override.
    const auto registerDesc = [](const std::string& name,
                                 std::optional<ActivationProfile> last) {
        ModelDesc desc;
        desc.name = name;
        LinearDesc hidden;
        hidden.name = "fc1";
        hidden.in_features = 256;
        hidden.out_features = 128;
        LinearDesc classifier;
        classifier.name = "fc2";
        classifier.in_features = 128;
        classifier.out_features = SymbolicSize(std::string("num_classes"));
        desc.layers.push_back(LayerDesc{hidden, std::nullopt});
        desc.layers.push_back(LayerDesc{classifier, last});
        EXPECT_TRUE(ModelRegistry::instance().addDesc(desc));
        return makeWorkload(name, "MNIST");
    };
    ActivationProfile pinned;
    pinned.bit_density = 0.35;
    const Workload plain = registerDesc("LineupPlainDesc", std::nullopt);
    const Workload overridden = registerDesc("LineupOverrideDesc", pinned);
    ASSERT_TRUE(overridden.buildModel().layers.back().isSpikingGemm());

    RunOptions seed8;
    seed8.seed = 8;
    const AcceleratorSpec ptb("ptb");
    AcceleratorSpec prosperity("prosperity");
    prosperity.params.set("max_sampled_tiles", std::size_t{24});
    struct Pair
    {
        std::string what;
        SimulationJob a;
        SimulationJob b;
    };
    const std::vector<Pair> pairs = {
        {"m 256 against 512",
         {prosperity, makeWorkload("SpikingBERT", "SST-2"), {}},
         {prosperity, makeWorkload("SpikingBERT", "QQP"), {}}},
        {"seeds 7 and 8", {ptb, lenet, {}}, {ptb, lenet, seed8}},
        {"bit_density", {ptb, lenet, {}}, {ptb, denser, {}}},
        {"profile_override", {ptb, plain, {}}, {ptb, overridden, {}}},
    };

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.setEnabled(true);
    for (const Pair& pair : pairs) {
        SCOPED_TRACE(pair.what);
        const std::uint64_t trace_id = recorder.mintTraceId();
        std::vector<RunResult> results;
        {
            obs::ScopedTraceContext scope(obs::TraceContext{trace_id, 0});
            EngineOptions options;
            options.threads = 1;
            SimulationEngine engine(options);
            for (std::future<RunResult>& future :
                 engine.submit(std::vector<SimulationJob>{pair.a, pair.b}))
                results.push_back(future.get());
        }
        EXPECT_EQ(countSpans(trace_id).simulate, 2u);
        expectIdentical(results[0], loneRun(pair.a));
        expectIdentical(results[1], loneRun(pair.b));
    }
    recorder.setEnabled(false);
    recorder.clear();
}

TEST(Engine, SubmitSharesTheMemoizationCacheWithRunBatch)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    const SimulationJob job{AcceleratorSpec{"eyeriss"}, w, {}};

    SimulationEngine engine;
    // Seed the cache through the synchronous path ...
    const RunResult batch_result = engine.run(job);
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().hits, 0u);

    // ... and the async path must hit it (ready future, counted hit).
    const RunResult async_result = engine.submit(job).get();
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().hits, 1u);
    expectIdentical(batch_result, async_result);

    // The reverse direction: a submit-computed result serves runBatch.
    SimulationJob other = job;
    other.options.seed = 99;
    const RunResult computed = engine.submit(other).get();
    EXPECT_EQ(engine.stats().entries, 2u);
    const RunResult again = engine.run(other);
    EXPECT_EQ(engine.stats().entries, 2u);
    EXPECT_EQ(engine.stats().hits, 2u);
    expectIdentical(computed, again);
}

TEST(Engine, ConcurrentDuplicateSubmitsSimulateOnce)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    const SimulationJob job{AcceleratorSpec{"ptb"}, w, {}};

    SimulationEngine engine;
    std::vector<std::future<RunResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(engine.submit(job));
    std::vector<RunResult> results;
    for (auto& f : futures)
        results.push_back(f.get());
    // However the submits raced (piggybacked in flight or served from
    // the cache), exactly one simulation ran and every future agrees.
    EXPECT_EQ(engine.stats().entries, 1u);
    EXPECT_EQ(engine.stats().misses, 1u);
    for (const RunResult& r : results)
        expectIdentical(results.front(), r);
}

TEST(Engine, SubmitErrorsSurfaceFromTheFuture)
{
    const Workload w = makeWorkload("LeNet5", "MNIST");
    SimulationEngine engine;

    auto unknown =
        engine.submit(SimulationJob{AcceleratorSpec{"tpu"}, w, {}});
    EXPECT_THROW(unknown.get(), std::invalid_argument);

    AcceleratorSpec bad("prosperity");
    bad.params.set("sparsity", "banana");
    auto bad_params = engine.submit(SimulationJob{bad, w, {}});
    EXPECT_THROW(bad_params.get(), std::invalid_argument);

    // A failed job is not cached; the engine stays usable.
    EXPECT_EQ(engine.stats().entries, 0u);
    const RunResult ok =
        engine.submit(SimulationJob{AcceleratorSpec{"eyeriss"}, w, {}})
            .get();
    EXPECT_GT(ok.cycles, 0.0);

    // One batch on one workload is one lineup: the bad factory fails
    // its own job only, and its lineup mate matches a lone run.
    SimulationEngine fresh;
    std::vector<std::future<RunResult>> batch =
        fresh.submit(std::vector<SimulationJob>{
            SimulationJob{bad, w, {}},
            SimulationJob{AcceleratorSpec{"eyeriss"}, w, {}}});
    EXPECT_THROW(batch[0].get(), std::invalid_argument);
    expectIdentical(batch[1].get(), ok);

    // A workload that cannot be lowered (an unregistered model or
    // dataset) fails its own job only: submit() returns every future,
    // and the valid batch mate still runs.
    const auto expectError = [](std::future<RunResult>& future,
                                const std::string& what) {
        try {
            future.get();
            ADD_FAILURE() << "expected \"" << what << "\"";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    SimulationEngine lowering;
    std::vector<std::future<RunResult>> unlowerable =
        lowering.submit(std::vector<SimulationJob>{
            SimulationJob{AcceleratorSpec{"eyeriss"},
                          Workload{"nosuch", "mnist", {}}, {}},
            SimulationJob{AcceleratorSpec{"eyeriss"},
                          Workload{"lenet5", "nosuchdata", {}}, {}},
            SimulationJob{AcceleratorSpec{"eyeriss"}, w, {}}});
    ASSERT_EQ(unlowerable.size(), 3u);
    expectError(unlowerable[0], "unknown model");
    expectError(unlowerable[1], "unknown dataset");
    expectIdentical(unlowerable[2].get(), ok);
}

TEST(Engine, ModelHintsReachTimeBatchingDesigns)
{
    // A directly constructed PTB with a deliberately wrong T must
    // match the engine's registry-built one: beginModel overwrites T
    // with the model's real T before any layer runs.
    const Workload w = makeWorkload("LeNet5", "MNIST");

    PtbAccelerator direct(/*time_steps=*/1);
    const RunResult legacy = runWorkload(direct, w);

    SimulationEngine engine;
    const RunResult engined =
        engine.run(SimulationJob{AcceleratorSpec{"ptb"}, w, {}});
    expectIdentical(legacy, engined);

    // And the hint really did change the simulation: with beginModel
    // bypassed, a wrong pinned T yields different spiking-layer cycles
    // than the model's true T on identical spike matrices.
    const ModelSpec model = w.buildModel();
    ASSERT_NE(model.time_steps, 1u);
    PtbAccelerator pinned_wrong(/*time_steps=*/1);
    PtbAccelerator pinned_right(model.time_steps);
    const SpikeGenerator gen(w.profile, RunOptions{}.seed);
    double wrong_cycles = 0.0, right_cycles = 0.0;
    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        if (!layer.isSpikingGemm())
            continue;
        const BitMatrix spikes = gen.generateLayer(layer, layer_index);
        const LayerRequest request =
            LayerRequest::spikingGemm(layer.gemm, spikes);
        wrong_cycles += pinned_wrong.runLayer(request).cycles;
        right_cycles += pinned_right.runLayer(request).cycles;
    }
    EXPECT_GT(wrong_cycles, 0.0);
    EXPECT_NE(wrong_cycles, right_cycles);
}

} // namespace
} // namespace prosperity
