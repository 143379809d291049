#include "result_store.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/result_json.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_schema.h"

namespace prosperity::serve {

namespace fs = std::filesystem;

namespace {

/** Store instruments; accumulate-only, never read back (inert). */
struct StoreMetrics
{
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& writes;
    obs::Counter& defect_corrupt;
    obs::Counter& defect_truncated;
    obs::Counter& defect_version_mismatch;
    obs::Histogram& fetch_seconds;
    obs::Histogram& publish_seconds;
};

StoreMetrics&
storeMetrics()
{
    static constexpr const char* kDefectsName =
        "prosperity_store_defects_total";
    static constexpr const char* kDefectsHelp =
        "Store entries declined by failure class";
    static StoreMetrics metrics{
        obs::MetricsRegistry::global().counter(
            "prosperity_store_hits_total", "Result store fetch hits"),
        obs::MetricsRegistry::global().counter(
            "prosperity_store_misses_total", "Result store fetch misses"),
        obs::MetricsRegistry::global().counter(
            "prosperity_store_writes_total",
            "Result store entries published"),
        obs::MetricsRegistry::global().counter(
            kDefectsName, kDefectsHelp, {{"class", "corrupt"}}),
        obs::MetricsRegistry::global().counter(
            kDefectsName, kDefectsHelp, {{"class", "truncated"}}),
        obs::MetricsRegistry::global().counter(
            kDefectsName, kDefectsHelp, {{"class", "version_mismatch"}}),
        obs::MetricsRegistry::global().histogram(
            "prosperity_store_fetch_seconds",
            "Result store fetch (read + parse + validate), hit or miss",
            obs::latencyBuckets()),
        obs::MetricsRegistry::global().histogram(
            "prosperity_store_publish_seconds",
            "Result store publish (serialize + write + rename)",
            obs::latencyBuckets()),
    };
    return metrics;
}

/** FNV-1a 64-bit; `basis` varied to derive two independent halves. */
std::uint64_t
fnv1a64(const std::string& s, std::uint64_t basis)
{
    std::uint64_t hash = basis;
    for (const char c : s) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/**
 * Structural truncation check: every complete entry is written as a
 * pretty-printed object ending in '}' + newline, so raw text that is
 * empty or stops before the closing brace was cut short. Classifying
 * on the text instead of the parser's message keeps the split stable
 * across parser wording changes.
 */
bool
looksTruncated(const std::string& raw)
{
    const std::size_t end = raw.find_last_not_of(" \t\r\n");
    return end == std::string::npos || raw[end] != '}';
}

} // namespace

// Collisions are guarded against anyway — the entry stores the full
// key — so 128 bits only needs to make them irrelevant in practice.
std::string
contentAddress(const std::string& key)
{
    return hex64(fnv1a64(key, 0xcbf29ce484222325ull)) +
           hex64(fnv1a64(key, 0x9e3779b97f4a7c15ull));
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        throw std::runtime_error("result store: empty directory path");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw std::runtime_error("result store: cannot create \"" +
                                 dir_ + "\": " + ec.message());
    // Probe writability now: a daemon pointed at a read-only path must
    // fail at startup, not degrade into permanent cache misses.
    const fs::path probe = fs::path(dir_) / ".write-probe.tmp";
    {
        std::ofstream os(probe);
        if (!os)
            throw std::runtime_error("result store: \"" + dir_ +
                                     "\" is not writable");
    }
    fs::remove(probe, ec);
}

std::string
ResultStore::pathFor(const std::string& key) const
{
    return (fs::path(dir_) / (contentAddress(key) + ".json")).string();
}

bool
ResultStore::fetch(const std::string& key, RunResult* out)
{
    StoreMetrics& metrics = storeMetrics();
    obs::ScopedTimer timer(metrics.fetch_seconds);
    obs::ScopedSpan span("store", "store.fetch");
    const std::string path = pathFor(key);
    std::ifstream is(path);
    if (!is) {
        metrics.misses.add();
        util::MutexLock lock(mutex_);
        ++stats_.misses;
        return false;
    }
    std::ostringstream text;
    text << is.rdbuf();

    // Any defect — truncation, garbage, schema drift, a key mismatch
    // from a hash collision — is a miss, never an error: the engine
    // recomputes and the next publish overwrites the bad entry.
    try {
        const json::Value entry = json::Value::parse(text.str());
        const std::string context = "result store entry";
        json::requireObject(entry, context);
        const std::size_t version =
            json::requireSize(entry, "schema_version", context);
        if (version != static_cast<std::size_t>(kSchemaVersion)) {
            metrics.misses.add();
            metrics.defect_version_mismatch.add();
            util::MutexLock lock(mutex_);
            ++stats_.misses;
            ++stats_.version_mismatch;
            return false; // older/newer format: recompute
        }
        if (json::requireString(entry, "key", context) != key) {
            metrics.misses.add();
            util::MutexLock lock(mutex_);
            ++stats_.misses;
            return false; // hash collision: treat as absent
        }
        const json::Value* result = entry.find("result");
        if (!result)
            json::schemaError(context,
                              "missing required key \"result\"");
        *out = runResultFromJson(*result);
    } catch (const std::exception&) {
        const bool truncated = looksTruncated(text.str());
        metrics.misses.add();
        if (truncated)
            metrics.defect_truncated.add();
        else
            metrics.defect_corrupt.add();
        util::MutexLock lock(mutex_);
        ++stats_.misses;
        ++stats_.corrupt_skipped; // invariant: corrupt + truncated
        if (truncated)
            ++stats_.truncated;
        else
            ++stats_.corrupt;
        return false;
    }
    metrics.hits.add();
    util::MutexLock lock(mutex_);
    ++stats_.hits;
    return true;
}

void
ResultStore::publish(const std::string& key, const RunResult& result)
{
    obs::ScopedTimer timer(storeMetrics().publish_seconds);
    obs::ScopedSpan span("store", "store.publish");
    json::Value entry = json::Value::object();
    entry.set("schema_version", kSchemaVersion);
    entry.set("key", key);
    entry.set("result", runResultToJson(result));

    std::size_t token = 0;
    {
        util::MutexLock lock(mutex_);
        token = ++write_token_;
    }
    const std::string path = pathFor(key);
    const std::string tmp = path + ".tmp." + std::to_string(token);
    {
        std::ofstream os(tmp);
        if (!os)
            return; // store became unwritable; caching is best-effort
        os << entry.dump(2) << '\n';
        os.flush();
        if (!os) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    // rename() is atomic on POSIX: readers see the old entry or the
    // complete new one, never a partial write.
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return;
    }
    storeMetrics().writes.add();
    util::MutexLock lock(mutex_);
    ++stats_.writes;
}

std::size_t
ResultStore::entriesOnDisk() const
{
    std::size_t count = 0;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        // Exactly "<32 hex>.json": temp files and foreign files are
        // not entries.
        if (name.size() == 37 && name.compare(32, 5, ".json") == 0)
            ++count;
    }
    return count;
}

ResultStoreStats
ResultStore::stats() const
{
    util::MutexLock lock(mutex_);
    return stats_;
}

ResultCacheHealth
ResultStore::health() const
{
    util::MutexLock lock(mutex_);
    ResultCacheHealth health;
    health.corrupt = stats_.corrupt;
    health.truncated = stats_.truncated;
    health.version_mismatch = stats_.version_mismatch;
    return health;
}

} // namespace prosperity::serve
