/**
 * @file
 * Unit tests for the obs subsystem. Metrics: instrument semantics,
 * bucket boundaries, snapshot consistency under concurrent recorders,
 * registry identity rules, and the Prometheus exposition format.
 * Tracing: trace-id wire format, span activation rules, parent
 * nesting, flight-recorder wraparound, concurrent emission (the TSan
 * CI job runs this file), and the Chrome trace-event exporter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prosperity::obs {
namespace {

TEST(ObsCounter, AccumulatesRelaxed)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddSub)
{
    Gauge g;
    g.set(2.0);
    g.add(1.5);
    g.sub(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(ObsGaugeGuard, RestoresLevelOnException)
{
    Gauge g;
    try {
        GaugeGuard guard(g);
        EXPECT_DOUBLE_EQ(g.value(), 1.0);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpperEdges)
{
    Histogram h({1.0, 2.0, 5.0});
    h.observe(-1.0); // below range -> first bucket
    h.observe(0.0);  // zero -> first bucket
    h.observe(1.0);  // == bound -> that bucket (le semantics)
    h.observe(1.5);
    h.observe(2.0);
    h.observe(5.0);
    h.observe(5.0001); // above last bound -> overflow
    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.buckets.size(), 4u);
    EXPECT_EQ(snap.buckets[0], 3u);
    EXPECT_EQ(snap.buckets[1], 2u);
    EXPECT_EQ(snap.buckets[2], 1u);
    EXPECT_EQ(snap.buckets[3], 1u);
    EXPECT_EQ(snap.count, 7u);
    EXPECT_DOUBLE_EQ(snap.sum, 13.5001);
}

TEST(ObsHistogram, RejectsDegenerateBounds)
{
    EXPECT_THROW(Histogram({}), std::runtime_error);
    EXPECT_THROW(Histogram({1.0, 1.0}), std::runtime_error);
    EXPECT_THROW(Histogram({2.0, 1.0}), std::runtime_error);
}

TEST(ObsHistogram, SnapshotStaysConsistentUnderConcurrentRecorders)
{
    Histogram h(latencyBuckets());
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::atomic<bool> done{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.observe(1e-6 * static_cast<double>(i % 1000));
        });
    }
    std::thread reader([&h, &done] {
        std::uint64_t last = 0;
        while (!done.load()) {
            const Histogram::Snapshot snap = h.snapshot();
            std::uint64_t total = 0;
            for (std::uint64_t b : snap.buckets)
                total += b;
            // The struct invariant CI leans on: count is derived from
            // the bucket reads, so it can never disagree with them.
            EXPECT_EQ(snap.count, total);
            EXPECT_GE(snap.count, last);
            last = snap.count;
        }
    });
    for (auto& w : workers)
        w.join();
    done.store(true);
    reader.join();
    EXPECT_EQ(h.snapshot().count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsLatencyBuckets, OneTwoFivePerDecade)
{
    const std::vector<double> bounds = latencyBuckets();
    ASSERT_EQ(bounds.size(), 22u); // 7 decades x {1,2,5} + final 10^1
    EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
    EXPECT_DOUBLE_EQ(bounds.back(), 10.0);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
    EXPECT_THROW(latencyBuckets(1, 1), std::runtime_error);
    EXPECT_THROW(latencyBuckets(2, -2), std::runtime_error);
}

TEST(ObsScopedTimer, RecordsOneObservation)
{
    Histogram h(latencyBuckets());
    {
        ScopedTimer timer(h);
    }
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_GE(snap.sum, 0.0);
}

TEST(ObsClock, ElapsedSecondsIsClampedAndMonotone)
{
    EXPECT_DOUBLE_EQ(elapsedSeconds(10, 10), 0.0);
    EXPECT_DOUBLE_EQ(elapsedSeconds(20, 10), 0.0);
    EXPECT_DOUBLE_EQ(elapsedSeconds(0, 1500000000), 1.5);
    const std::uint64_t a = monotonicNanos();
    const std::uint64_t b = monotonicNanos();
    EXPECT_LE(a, b);
}

TEST(ObsRegistry, SameNameAndLabelsReturnsSameInstrument)
{
    MetricsRegistry reg;
    Counter& a = reg.counter("x_total", "X.", {{"k", "v"}});
    Counter& b = reg.counter("x_total", "X.", {{"k", "v"}});
    Counter& c = reg.counter("x_total", "X.", {{"k", "w"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    Histogram& h1 = reg.histogram("h_seconds", "H.", {1.0, 2.0});
    Histogram& h2 = reg.histogram("h_seconds", "H.", {1.0, 2.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(ObsRegistry, RejectsTypeAndBoundsConflicts)
{
    MetricsRegistry reg;
    reg.counter("x_total", "X.");
    EXPECT_THROW(reg.gauge("x_total", "X."), std::runtime_error);
    reg.histogram("h_seconds", "H.", {1.0, 2.0});
    EXPECT_THROW(reg.histogram("h_seconds", "H.", {1.0, 3.0}),
                 std::runtime_error);
    EXPECT_THROW(reg.counter("h_seconds", "H."), std::runtime_error);
}

TEST(ObsExposition, GoldenText)
{
    MetricsRegistry reg;
    reg.counter("test_events_total", "Events by kind.", {{"kind", "a"}})
        .add(3);
    reg.counter("test_events_total", "Events by kind.", {{"kind", "b"}})
        .add(1);
    reg.gauge("test_level", "Current level.").set(2.5);
    Histogram& h = reg.histogram("test_lat_seconds", "Latency.", {0.5, 2.0});
    h.observe(0.25);
    h.observe(1.0);
    h.observe(8.0);
    const std::string expected =
        "# HELP test_events_total Events by kind.\n"
        "# TYPE test_events_total counter\n"
        "test_events_total{kind=\"a\"} 3\n"
        "test_events_total{kind=\"b\"} 1\n"
        "# HELP test_lat_seconds Latency.\n"
        "# TYPE test_lat_seconds histogram\n"
        "test_lat_seconds_bucket{le=\"0.5\"} 1\n"
        "test_lat_seconds_bucket{le=\"2\"} 2\n"
        "test_lat_seconds_bucket{le=\"+Inf\"} 3\n"
        "test_lat_seconds_sum 9.25\n"
        "test_lat_seconds_count 3\n"
        "# HELP test_level Current level.\n"
        "# TYPE test_level gauge\n"
        "test_level 2.5\n";
    EXPECT_EQ(reg.renderPrometheus(), expected);
}

TEST(ObsExposition, EscapesLabelValues)
{
    MetricsRegistry reg;
    reg.counter("esc_total", "Escapes.",
                {{"path", "a\\b\"c\nd"}})
        .add(1);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
              std::string::npos);
}

TEST(ObsExposition, HistogramLabelsKeepLeLast)
{
    MetricsRegistry reg;
    Histogram& h = reg.histogram("route_seconds", "Per-route.", {1.0},
                                 {{"route", "/v1/stats"}});
    h.observe(0.5);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("route_seconds_bucket{route=\"/v1/stats\",le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(
        text.find("route_seconds_bucket{route=\"/v1/stats\",le=\"+Inf\"} 1"),
        std::string::npos);
    EXPECT_NE(text.find("route_seconds_count{route=\"/v1/stats\"} 1"),
              std::string::npos);
}

TEST(ObsTraceId, FormatIsSixteenLowercaseHexDigits)
{
    EXPECT_EQ(formatTraceId(0), "0000000000000000");
    EXPECT_EQ(formatTraceId(0x0123456789abcdefULL), "0123456789abcdef");
    EXPECT_EQ(formatTraceId(0xffffffffffffffffULL), "ffffffffffffffff");
}

TEST(ObsTraceId, ParseRoundTripsAndRejectsMalformedIds)
{
    for (const std::uint64_t id :
         {std::uint64_t{1}, std::uint64_t{0x42},
          std::uint64_t{0xdeadbeefcafef00d},
          std::uint64_t{0xffffffffffffffff}})
        EXPECT_EQ(parseTraceId(formatTraceId(id)), id);
    EXPECT_EQ(parseTraceId("f"), 0xfu);     // short ids are valid
    EXPECT_EQ(parseTraceId("ABC"), 0xabcu); // case-insensitive
    EXPECT_EQ(parseTraceId(""), 0u);
    EXPECT_EQ(parseTraceId("xyz"), 0u);
    EXPECT_EQ(parseTraceId("12 34"), 0u);
    EXPECT_EQ(parseTraceId("0123456789abcdef0"), 0u); // 17 digits
}

/**
 * Tracing tests share the process-wide flight recorder, so the
 * fixture resets it on both sides: enabled with a fresh ring going
 * in, disabled and empty going out (other tests in this binary must
 * see tracing off, exactly like production defaults).
 */
class ObsTraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceRecorder& recorder = TraceRecorder::global();
        recorder.setEnabled(true);
        recorder.clear();
    }

    void TearDown() override
    {
        TraceRecorder& recorder = TraceRecorder::global();
        recorder.setEnabled(false);
        recorder.clear();
    }
};

TEST_F(ObsTraceTest, SpanInactiveWithoutInstalledContext)
{
    EXPECT_FALSE(traceActive());
    const std::uint64_t before = TraceRecorder::global().recorded();
    {
        ScopedSpan span("test", "orphan");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(TraceRecorder::global().recorded(), before);
}

TEST_F(ObsTraceTest, SpanInactiveWhileRecorderDisabled)
{
    TraceRecorder::global().setEnabled(false);
    ScopedTraceContext scope(TraceContext{42, 0});
    EXPECT_FALSE(traceActive());
    ScopedSpan span("test", "dark");
    EXPECT_FALSE(span.active());
}

TEST_F(ObsTraceTest, NestedSpansRecordTheParentChain)
{
    TraceRecorder& recorder = TraceRecorder::global();
    const std::uint64_t id = recorder.mintTraceId();
    {
        ScopedTraceContext scope(TraceContext{id, 0});
        EXPECT_TRUE(traceActive());
        ScopedSpan outer("test", "outer");
        ASSERT_TRUE(outer.active());
        // The open span is the ambient parent: work dispatched from
        // here (engine submit) nests under it.
        EXPECT_NE(currentTraceContext().parent_span, 0u);
        {
            ScopedSpan inner("test", "inner");
            ASSERT_TRUE(inner.active());
        }
    }
    EXPECT_FALSE(traceActive()); // context restored on scope exit

    const std::vector<TraceSpan> spans = recorder.collect(id);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].parent_id, 0u);
    EXPECT_EQ(spans[1].name, "inner");
    EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST_F(ObsTraceTest, EmitSpanRecordsExplicitIntervals)
{
    TraceRecorder& recorder = TraceRecorder::global();
    const std::uint64_t id = recorder.mintTraceId();
    {
        ScopedTraceContext scope(TraceContext{id, 0});
        emitSpan("test", "wait", 100, 250);
        emitSpan("test", "clamped", 300, 200); // end < start clamps
    }
    const std::vector<TraceSpan> spans = recorder.collect(id);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "wait");
    EXPECT_EQ(spans[0].start_ns, 100u);
    EXPECT_EQ(spans[0].end_ns, 250u);
    EXPECT_EQ(spans[1].name, "clamped");
    EXPECT_EQ(spans[1].end_ns, 300u);
}

TEST_F(ObsTraceTest, RingWrapsAroundKeepingTheNewestSpans)
{
    TraceRecorder& recorder = TraceRecorder::global();
    const std::uint64_t id = recorder.mintTraceId();
    const std::uint64_t before = recorder.recorded();
    constexpr std::size_t kOverwritten = 12;
    constexpr std::size_t kTotal = TraceRecorder::kCapacity + kOverwritten;
    {
        ScopedTraceContext scope(TraceContext{id, 0});
        for (std::size_t i = 0; i < kTotal; ++i)
            ScopedSpan span("test",
                            std::string("s").append(std::to_string(i)));
    }
    // Every span was accepted; only the newest kCapacity survive in
    // the ring, so the first 12 are gone and each of the rest is there.
    EXPECT_EQ(recorder.recorded() - before, kTotal);
    const std::vector<TraceSpan> spans = recorder.collect(id);
    ASSERT_EQ(spans.size(), TraceRecorder::kCapacity);
    std::set<std::string> names;
    for (const TraceSpan& span : spans)
        names.insert(span.name);
    EXPECT_EQ(names.size(), TraceRecorder::kCapacity);
    for (std::size_t i = 0; i < kOverwritten; ++i)
        EXPECT_EQ(names.count(std::string("s").append(std::to_string(i))),
                  0u)
            << i;
}

TEST_F(ObsTraceTest, ConcurrentEmissionKeepsTracesSeparate)
{
    TraceRecorder& recorder = TraceRecorder::global();
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 200;
    std::vector<std::uint64_t> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(recorder.mintTraceId());
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([id = ids[static_cast<std::size_t>(t)]] {
            ScopedTraceContext scope(TraceContext{id, 0});
            for (int i = 0; i < kSpansPerThread; ++i) {
                ScopedSpan span("test", "work");
                emitSpan("test", "interval", 1, 2);
            }
        });
    }
    for (std::thread& worker : workers)
        worker.join();
    for (const std::uint64_t id : ids) {
        const std::vector<TraceSpan> spans = recorder.collect(id);
        EXPECT_EQ(spans.size(),
                  static_cast<std::size_t>(2 * kSpansPerThread));
        for (const TraceSpan& span : spans)
            EXPECT_EQ(span.trace_id, id);
    }
}

TEST_F(ObsTraceTest, MintedIdsAreNonZeroAndDistinct)
{
    TraceRecorder& recorder = TraceRecorder::global();
    std::set<std::uint64_t> ids;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t id = recorder.mintTraceId();
        EXPECT_NE(id, 0u);
        ids.insert(id);
    }
    EXPECT_EQ(ids.size(), 1000u);
}

TEST_F(ObsTraceTest, RecentTracesListsNewestFirstWithRootNames)
{
    TraceRecorder& recorder = TraceRecorder::global();
    const std::uint64_t first = recorder.mintTraceId();
    const std::uint64_t second = recorder.mintTraceId();
    {
        ScopedTraceContext scope(TraceContext{first, 0});
        ScopedSpan root("test", "first-root");
        ScopedSpan child("test", "child");
    }
    // Force the clock forward so the two traces cannot tie on start.
    const std::uint64_t mark = monotonicNanos();
    while (monotonicNanos() == mark) {
    }
    {
        ScopedTraceContext scope(TraceContext{second, 0});
        ScopedSpan root("test", "second-root");
    }
    const std::vector<TraceRecorder::TraceSummary> recent =
        recorder.recentTraces(8);
    ASSERT_EQ(recent.size(), 2u);
    EXPECT_EQ(recent[0].trace_id, second);
    EXPECT_EQ(recent[0].root, "second-root");
    EXPECT_EQ(recent[0].spans, 1u);
    EXPECT_EQ(recent[1].trace_id, first);
    EXPECT_EQ(recent[1].root, "first-root");
    EXPECT_EQ(recent[1].spans, 2u);
    EXPECT_LE(recent[1].start_ns, recent[1].end_ns);
    EXPECT_EQ(recorder.recentTraces(1).size(), 1u);
}

TEST(ObsChromeTrace, ExportsMetadataAndCompleteEvents)
{
    std::vector<TraceSpan> spans(2);
    spans[0].trace_id = 0xabc;
    spans[0].span_id = 1;
    spans[0].start_ns = 2000;
    spans[0].end_ns = 7000;
    spans[0].tid = 0;
    spans[0].category = "http";
    spans[0].name = "POST /v1/runs";
    spans[1].trace_id = 0xabc;
    spans[1].span_id = 2;
    spans[1].parent_id = 1;
    spans[1].start_ns = 3000;
    spans[1].end_ns = 4500;
    spans[1].tid = 3;
    spans[1].category = "engine";
    spans[1].name = "simulate";
    spans[1].detail = "prosperity / VGG16";

    const json::Value doc = chromeTraceJson(spans);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const json::Value::Array& events = doc.at("traceEvents").asArray();
    // process_name + two thread_name metadata rows + two X events.
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].at("ph").asString(), "M");
    EXPECT_EQ(events[0].at("name").asString(), "process_name");
    EXPECT_EQ(events[1].at("name").asString(), "thread_name");
    EXPECT_EQ(events[2].at("name").asString(), "thread_name");

    const json::Value& root = events[3];
    EXPECT_EQ(root.at("ph").asString(), "X");
    EXPECT_EQ(root.at("name").asString(), "POST /v1/runs");
    EXPECT_EQ(root.at("cat").asString(), "http");
    EXPECT_DOUBLE_EQ(root.at("ts").asNumber(), 0.0); // rebased
    EXPECT_DOUBLE_EQ(root.at("dur").asNumber(), 5.0); // 5000 ns = 5 µs
    EXPECT_DOUBLE_EQ(root.at("pid").asNumber(), 1.0);
    EXPECT_EQ(root.at("args").at("trace").asString(),
              formatTraceId(0xabc));
    EXPECT_EQ(root.at("args").find("detail"), nullptr);

    const json::Value& child = events[4];
    EXPECT_DOUBLE_EQ(child.at("ts").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(child.at("dur").asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(child.at("tid").asNumber(), 3.0);
    EXPECT_EQ(child.at("args").at("parent").asString(),
              formatTraceId(1));
    EXPECT_EQ(child.at("args").at("detail").asString(),
              "prosperity / VGG16");
}

TEST(ObsChromeTrace, EmptySpanListStillProducesValidDocument)
{
    const json::Value doc = chromeTraceJson({});
    ASSERT_TRUE(doc.at("traceEvents").isArray());
    // Just the process_name metadata row.
    EXPECT_EQ(doc.at("traceEvents").asArray().size(), 1u);
}

} // namespace
} // namespace prosperity::obs
