/**
 * @file
 * Tests for the persistent ResultStore and its engine integration:
 * exact round trips through the on-disk JSON format, every failure
 * mode the store handles (truncated/corrupt entries skipped not fatal,
 * an entry that breaks the result schema counted corrupt, partial
 * writes never visible, schema-version mismatch recomputes), and a
 * disk-warm engine serving a repeated job without re-simulating.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/result_json.h"
#include "serve/result_store.h"

namespace prosperity::serve {
namespace {

namespace fs = std::filesystem;

/** Fresh store directory per test, removed on teardown. */
class ResultStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("prosperity_store_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** The cheapest real simulation in the repo. */
    static SimulationJob smokeJob()
    {
        SimulationJob job;
        job.accelerator = AcceleratorSpec("eyeriss");
        job.workload = makeWorkload("LeNet5", "MNIST");
        return job;
    }

    std::string dir_;
};

std::string
dumpOf(const RunResult& result)
{
    return runResultToJson(result).dump(2);
}

TEST_F(ResultStoreTest, RoundTripIsExact)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    const std::string key = SimulationEngine::jobKey(smokeJob());

    ResultStore store(dir_);
    store.publish(key, computed);
    EXPECT_EQ(store.stats().writes, 1u);
    EXPECT_EQ(store.entriesOnDisk(), 1u);

    RunResult loaded;
    ASSERT_TRUE(store.fetch(key, &loaded));
    // Serialized forms compare the whole result — doubles included —
    // bitwise, because formatDouble round-trips exactly.
    EXPECT_EQ(dumpOf(loaded), dumpOf(computed));
    EXPECT_EQ(loaded.cycles, computed.cycles);
    EXPECT_EQ(loaded.energy.totalPj(), computed.energy.totalPj());
    EXPECT_EQ(loaded.seconds(), computed.seconds());
    EXPECT_EQ(store.stats().hits, 1u);
}

TEST_F(ResultStoreTest, LayerRecordsSurviveTheRoundTrip)
{
    SimulationJob job = smokeJob();
    job.options.keep_layer_records = true;
    SimulationEngine engine;
    const RunResult computed = engine.run(job);
    ASSERT_FALSE(computed.layers.empty());

    ResultStore store(dir_);
    const std::string key = SimulationEngine::jobKey(job);
    store.publish(key, computed);
    RunResult loaded;
    ASSERT_TRUE(store.fetch(key, &loaded));
    ASSERT_EQ(loaded.layers.size(), computed.layers.size());
    EXPECT_EQ(loaded.layers.front().layer_name,
              computed.layers.front().layer_name);
    EXPECT_EQ(loaded.layers.front().cycles,
              computed.layers.front().cycles);
}

TEST_F(ResultStoreTest, MissingKeyIsAMiss)
{
    ResultStore store(dir_);
    RunResult out;
    EXPECT_FALSE(store.fetch("no-such-key", &out));
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().corrupt_skipped, 0u);
}

TEST_F(ResultStoreTest, CorruptEntryIsSkippedNotFatal)
{
    ResultStore store(dir_);
    const std::string key = "some|job|key";
    {
        std::ofstream os(store.pathFor(key));
        os << "this is not json {{{";
    }
    RunResult out;
    EXPECT_FALSE(store.fetch(key, &out));
    EXPECT_EQ(store.stats().corrupt_skipped, 1u);
    // The classification is structural: this garbage does not end in
    // '}' so it counts as cut-short rather than corrupt-in-place.
    EXPECT_EQ(store.stats().truncated, 1u);
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_EQ(store.stats().version_mismatch, 0u);

    // The next publish overwrites the bad entry and heals the store.
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    store.publish(key, computed);
    ASSERT_TRUE(store.fetch(key, &out));
    EXPECT_EQ(dumpOf(out), dumpOf(computed));
}

TEST_F(ResultStoreTest, TruncatedEntryIsSkippedNotFatal)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    const std::string key = SimulationEngine::jobKey(smokeJob());
    ResultStore store(dir_);
    store.publish(key, computed);

    // Chop the valid entry in half — a crash mid-copy, a full disk...
    const std::string path = store.pathFor(key);
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    is.close();
    {
        std::ofstream os(path, std::ios::trunc);
        os << text.str().substr(0, text.str().size() / 2);
    }

    RunResult out;
    EXPECT_FALSE(store.fetch(key, &out));
    EXPECT_EQ(store.stats().corrupt_skipped, 1u);
    EXPECT_EQ(store.stats().truncated, 1u);
    EXPECT_EQ(store.stats().corrupt, 0u);
}

TEST_F(ResultStoreTest, StructurallyCompleteGarbageCountsAsCorrupt)
{
    ResultStore store(dir_);
    const std::string key = "some|job|key";
    {
        // Parses as JSON and ends in '}', but is no store entry: this
        // is corruption-in-place, not a write cut short.
        std::ofstream os(store.pathFor(key));
        os << "{\"note\": \"not a result entry\"}\n";
    }
    RunResult out;
    EXPECT_FALSE(store.fetch(key, &out));
    EXPECT_EQ(store.stats().corrupt_skipped, 1u);
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().truncated, 0u);
    EXPECT_EQ(store.stats().version_mismatch, 0u);

    const ResultCacheHealth health = store.health();
    EXPECT_EQ(health.corrupt, 1u);
    EXPECT_EQ(health.truncated, 0u);
    EXPECT_EQ(health.version_mismatch, 0u);
}

TEST_F(ResultStoreTest, UnknownEnergyComponentCountsAsCorrupt)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    const std::string key = SimulationEngine::jobKey(smokeJob());
    ResultStore store(dir_);
    store.publish(key, computed);

    // Misspell one breakdown component: served, it would add a report
    // row no design charges.
    const std::string path = store.pathFor(key);
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    is.close();
    std::string edited = text.str();
    const std::string name = "\"processor\"";
    const std::size_t at = edited.find(name);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(edited.find(name, at + 1), std::string::npos);
    edited.replace(at, name.size(), "\"proccessor\"");
    {
        std::ofstream os(path, std::ios::trunc);
        os << edited;
    }

    RunResult out;
    EXPECT_FALSE(store.fetch(key, &out));
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().truncated, 0u);
}

TEST_F(ResultStoreTest, SchemaVersionMismatchTriggersRecompute)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    const std::string key = SimulationEngine::jobKey(smokeJob());
    ResultStore store(dir_);
    store.publish(key, computed);

    // Rewrite the entry as a future/older schema version.
    const std::string path = store.pathFor(key);
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    is.close();
    json::Value entry = json::Value::parse(text.str());
    entry.set("schema_version", 999);
    {
        std::ofstream os(path, std::ios::trunc);
        os << entry.dump(2);
    }

    RunResult out;
    EXPECT_FALSE(store.fetch(key, &out));
    // A version mismatch is a clean miss, not corruption — it gets
    // its own counter.
    EXPECT_EQ(store.stats().corrupt_skipped, 0u);
    EXPECT_EQ(store.stats().version_mismatch, 1u);
    EXPECT_EQ(store.health().version_mismatch, 1u);
}

TEST_F(ResultStoreTest, EngineStatsSurfaceStoreDefects)
{
    auto store = std::make_shared<ResultStore>(dir_);
    const std::string key = SimulationEngine::jobKey(smokeJob());
    {
        std::ofstream os(store->pathFor(key));
        os << "{\"cut\": "; // no closing brace: truncated
    }
    SimulationEngine engine;
    engine.setResultCache(store);
    (void)engine.run(smokeJob());

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.store_truncated, 1u);
    EXPECT_EQ(stats.store_corrupt, 0u);
    EXPECT_EQ(stats.store_version_mismatch, 0u);
}

TEST_F(ResultStoreTest, StoredKeyMismatchIsAMiss)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    ResultStore store(dir_);
    store.publish("key-a", computed);

    // Simulate a content-address collision: the file exists where
    // "key-a" hashes to, but claims a different key inside.
    const std::string path = store.pathFor("key-a");
    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    is.close();
    json::Value entry = json::Value::parse(text.str());
    entry.set("key", "key-b");
    {
        std::ofstream os(path, std::ios::trunc);
        os << entry.dump(2);
    }

    RunResult out;
    EXPECT_FALSE(store.fetch("key-a", &out));
}

TEST_F(ResultStoreTest, PublishLeavesNoPartialFilesVisible)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    ResultStore store(dir_);
    for (int i = 0; i < 3; ++i)
        store.publish("key-" + std::to_string(i), computed);

    // Write-then-rename: after publish only complete `<hash>.json`
    // entries exist — no temp files a reader could trip over.
    std::size_t entries = 0;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
        ++entries;
    }
    EXPECT_EQ(entries, 3u);
    EXPECT_EQ(store.entriesOnDisk(), 3u);
}

TEST_F(ResultStoreTest, PersistsAcrossInstances)
{
    SimulationEngine engine;
    const RunResult computed = engine.run(smokeJob());
    const std::string key = SimulationEngine::jobKey(smokeJob());
    {
        ResultStore store(dir_);
        store.publish(key, computed);
    }
    ResultStore reopened(dir_);
    RunResult out;
    ASSERT_TRUE(reopened.fetch(key, &out));
    EXPECT_EQ(dumpOf(out), dumpOf(computed));
}

TEST_F(ResultStoreTest, UnwritableDirectoryFailsAtConstruction)
{
    EXPECT_THROW(ResultStore("/proc/definitely/not/writable"),
                 std::runtime_error);
}

TEST_F(ResultStoreTest, EngineServesWarmTrafficFromDisk)
{
    const SimulationJob job = smokeJob();
    std::string cold_dump;
    {
        SimulationEngine cold;
        cold.setResultCache(std::make_shared<ResultStore>(dir_));
        cold_dump = dumpOf(cold.run(job));
        EXPECT_EQ(cold.stats().misses, 1u);
    }

    // A fresh engine (fresh memory cache, same directory) must serve
    // the same job from disk: zero simulations, identical bytes.
    auto store = std::make_shared<ResultStore>(dir_);
    SimulationEngine warm;
    warm.setResultCache(store);
    const RunResult warm_result = warm.run(job);
    EXPECT_EQ(dumpOf(warm_result), cold_dump);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(store->stats().hits, 1u);

    // The disk hit was promoted into the memory cache: a repeat does
    // not touch the store again.
    (void)warm.run(job);
    EXPECT_EQ(store->stats().hits, 1u);
    EXPECT_EQ(warm.stats().hits, 2u);

    // A batch mixing the stored job with a new one on the same
    // workload (one lineup): the stored job is a store hit, the other
    // is simulated, and both equal their cold runs.
    SimulationJob fresh_job = job;
    fresh_job.accelerator = AcceleratorSpec("ptb");
    const std::string fresh_cold_dump =
        dumpOf(SimulationEngine().run(fresh_job));
    SimulationEngine mixed;
    mixed.setResultCache(std::make_shared<ResultStore>(dir_));
    const std::vector<RunResult> batch = mixed.runBatch({job, fresh_job});
    EXPECT_EQ(dumpOf(batch[0]), cold_dump);
    EXPECT_EQ(dumpOf(batch[1]), fresh_cold_dump);
    EXPECT_EQ(mixed.stats().hits, 1u);
    EXPECT_EQ(mixed.stats().misses, 1u);
}

TEST_F(ResultStoreTest, SubmitPathAlsoHitsTheStore)
{
    const SimulationJob job = smokeJob();
    {
        SimulationEngine cold;
        cold.setResultCache(std::make_shared<ResultStore>(dir_));
        (void)cold.run(job);
    }
    auto store = std::make_shared<ResultStore>(dir_);
    SimulationEngine warm;
    warm.setResultCache(store);
    const RunResult result = warm.submit(job).get();
    EXPECT_GT(result.cycles, 0.0);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(store->stats().hits, 1u);
}

} // namespace
} // namespace prosperity::serve
