/**
 * @file
 * Tracing implementation: the thread-local record path, the bounded
 * flight-recorder ring, trace-id mint/parse, and the Chrome
 * trace-event exporter. See trace.h for the design contract.
 */

#include "obs/trace.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "obs/clock.h"

namespace prosperity::obs {

namespace {

/** Buffered spans per thread before draining into the ring. */
constexpr std::size_t kFlushBatch = 64;

/** splitmix64 finalizer: cheap, deterministic id whitening. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-thread ambient context plus the local completed-span buffer. */
struct ThreadTraceState
{
    TraceContext context;
    std::vector<TraceSpan> buffer;
    std::uint32_t tid = 0;
};

ThreadTraceState&
threadState()
{
    static std::atomic<std::uint32_t> next_tid{0};
    thread_local ThreadTraceState state = [] {
        ThreadTraceState fresh;
        fresh.tid = next_tid.fetch_add(1, std::memory_order_relaxed);
        return fresh;
    }();
    return state;
}

std::uint64_t
nextSpanId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
flushThreadBuffer(ThreadTraceState& state)
{
    if (state.buffer.empty())
        return;
    TraceRecorder::global().record(state.buffer);
    state.buffer.clear();
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
formatTraceId(std::uint64_t id)
{
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[id & 0xfu];
        id >>= 4;
    }
    return out;
}

std::uint64_t
parseTraceId(const std::string& text)
{
    if (text.empty() || text.size() > 16)
        return 0;
    std::uint64_t id = 0;
    for (char c : text) {
        int digit = hexDigit(c);
        if (digit < 0)
            return 0;
        id = (id << 4) | static_cast<std::uint64_t>(digit);
    }
    return id;
}

TraceContext
currentTraceContext()
{
    return threadState().context;
}

bool
traceActive()
{
    return TraceRecorder::global().enabled() &&
           threadState().context.trace_id != 0;
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
{
    ThreadTraceState& state = threadState();
    previous_ = state.context;
    state.context = context;
    installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext()
{
    if (!installed_)
        return;
    ThreadTraceState& state = threadState();
    state.context = previous_;
    // Drain now so the trace is collectible the moment the scope that
    // produced it ends (workers flush per task, not per process).
    flushThreadBuffer(state);
}

ScopedSpan::ScopedSpan(const char* category, const char* name)
{
    open(category);
    if (active_)
        name_ = name;
}

ScopedSpan::ScopedSpan(const char* category, const std::string& name)
{
    open(category);
    if (active_)
        name_ = name;
}

void
ScopedSpan::open(const char* category)
{
    ThreadTraceState& state = threadState();
    if (state.context.trace_id == 0 || !TraceRecorder::global().enabled())
        return;
    active_ = true;
    category_ = category;
    span_id_ = nextSpanId();
    parent_id_ = state.context.parent_span;
    state.context.parent_span = span_id_;
    start_ns_ = monotonicNanos();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    ThreadTraceState& state = threadState();
    state.context.parent_span = parent_id_;

    TraceSpan span;
    span.trace_id = state.context.trace_id;
    span.span_id = span_id_;
    span.parent_id = parent_id_;
    span.start_ns = start_ns_;
    span.end_ns = monotonicNanos();
    span.tid = state.tid;
    span.category = category_;
    span.name = std::move(name_);
    span.detail = std::move(detail_);
    state.buffer.push_back(std::move(span));
    if (state.buffer.size() >= kFlushBatch)
        flushThreadBuffer(state);
}

void
emitSpan(const char* category, const char* name, std::uint64_t start_ns,
         std::uint64_t end_ns)
{
    ThreadTraceState& state = threadState();
    if (state.context.trace_id == 0 || !TraceRecorder::global().enabled())
        return;

    TraceSpan span;
    span.trace_id = state.context.trace_id;
    span.span_id = nextSpanId();
    span.parent_id = state.context.parent_span;
    span.start_ns = start_ns;
    span.end_ns = end_ns < start_ns ? start_ns : end_ns;
    span.tid = state.tid;
    span.category = category;
    span.name = name;
    state.buffer.push_back(std::move(span));
    if (state.buffer.size() >= kFlushBatch)
        flushThreadBuffer(state);
}

TraceRecorder&
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

void
TraceRecorder::setEnabled(bool enabled)
{
    {
        util::MutexLock lock(mutex_);
        if (enabled)
            ring_.reserve(kCapacity);
    }
    enabled_.store(enabled, std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::mintTraceId()
{
    std::uint64_t base = mint_base_.load(std::memory_order_relaxed);
    if (base == 0) {
        std::uint64_t fresh = monotonicNanos() | 1;
        mint_base_.compare_exchange_strong(base, fresh,
                                           std::memory_order_relaxed);
        base = mint_base_.load(std::memory_order_relaxed);
    }
    std::uint64_t n = next_trace_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t id = mix64(base + n);
    return id == 0 ? 1 : id;
}

void
TraceRecorder::record(std::vector<TraceSpan>& spans)
{
    if (!enabled_.load(std::memory_order_relaxed)) {
        spans.clear();
        return;
    }
    util::MutexLock lock(mutex_);
    for (TraceSpan& span : spans) {
        if (ring_.size() < kCapacity) {
            ring_.push_back(std::move(span));
        } else {
            ring_[cursor_] = std::move(span);
        }
        cursor_ = (cursor_ + 1) % kCapacity;
        recorded_.fetch_add(1, std::memory_order_relaxed);
    }
    spans.clear();
}

std::vector<TraceSpan>
TraceRecorder::collect(std::uint64_t trace_id) const
{
    std::vector<TraceSpan> out;
    {
        util::MutexLock lock(mutex_);
        for (const TraceSpan& span : ring_) {
            if (span.trace_id == trace_id)
                out.push_back(span);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                  if (a.start_ns != b.start_ns)
                      return a.start_ns < b.start_ns;
                  return a.span_id < b.span_id;
              });
    return out;
}

std::vector<TraceRecorder::TraceSummary>
TraceRecorder::recentTraces(std::size_t limit) const
{
    std::map<std::uint64_t, TraceSummary> by_trace;
    {
        util::MutexLock lock(mutex_);
        for (const TraceSpan& span : ring_) {
            TraceSummary& summary = by_trace[span.trace_id];
            if (summary.spans == 0) {
                summary.trace_id = span.trace_id;
                summary.start_ns = span.start_ns;
                summary.end_ns = span.end_ns;
                summary.root = span.name;
            } else {
                if (span.start_ns < summary.start_ns)
                    summary.start_ns = span.start_ns;
                if (span.end_ns > summary.end_ns)
                    summary.end_ns = span.end_ns;
            }
            // Prefer a true root span's name as the trace label.
            if (span.parent_id == 0)
                summary.root = span.name;
            ++summary.spans;
        }
    }
    std::vector<TraceSummary> out;
    out.reserve(by_trace.size());
    for (auto& entry : by_trace)
        out.push_back(std::move(entry.second));
    std::sort(out.begin(), out.end(),
              [](const TraceSummary& a, const TraceSummary& b) {
                  if (a.start_ns != b.start_ns)
                      return a.start_ns > b.start_ns;
                  return a.trace_id < b.trace_id;
              });
    if (out.size() > limit)
        out.resize(limit);
    return out;
}

void
TraceRecorder::clear()
{
    util::MutexLock lock(mutex_);
    ring_.clear();
    cursor_ = 0;
}

json::Value
chromeTraceJson(const std::vector<TraceSpan>& spans)
{
    std::vector<const TraceSpan*> ordered;
    ordered.reserve(spans.size());
    for (const TraceSpan& span : spans)
        ordered.push_back(&span);
    std::sort(ordered.begin(), ordered.end(),
              [](const TraceSpan* a, const TraceSpan* b) {
                  if (a->start_ns != b->start_ns)
                      return a->start_ns < b->start_ns;
                  return a->span_id < b->span_id;
              });

    std::uint64_t base_ns = ordered.empty() ? 0 : ordered.front()->start_ns;

    json::Value events = json::Value::array();

    json::Value process = json::Value::object();
    process.set("name", "process_name");
    process.set("ph", "M");
    process.set("pid", 1);
    process.set("tid", 0);
    json::Value process_args = json::Value::object();
    process_args.set("name", "prosperity");
    process.set("args", std::move(process_args));
    events.push(std::move(process));

    std::vector<std::uint32_t> tids;
    for (const TraceSpan* span : ordered) {
        if (std::find(tids.begin(), tids.end(), span->tid) == tids.end())
            tids.push_back(span->tid);
    }
    std::sort(tids.begin(), tids.end());
    for (std::uint32_t tid : tids) {
        json::Value thread = json::Value::object();
        thread.set("name", "thread_name");
        thread.set("ph", "M");
        thread.set("pid", 1);
        thread.set("tid", static_cast<std::size_t>(tid));
        json::Value thread_args = json::Value::object();
        thread_args.set("name", "thread-" + std::to_string(tid));
        thread.set("args", std::move(thread_args));
        events.push(std::move(thread));
    }

    for (const TraceSpan* span : ordered) {
        json::Value event = json::Value::object();
        event.set("name", span->name);
        event.set("cat", std::string(span->category));
        event.set("ph", "X");
        event.set("ts",
                  static_cast<double>(span->start_ns - base_ns) / 1000.0);
        event.set("dur",
                  static_cast<double>(span->end_ns - span->start_ns) / 1000.0);
        event.set("pid", 1);
        event.set("tid", static_cast<std::size_t>(span->tid));
        json::Value args = json::Value::object();
        args.set("trace", formatTraceId(span->trace_id));
        args.set("span", formatTraceId(span->span_id));
        args.set("parent", formatTraceId(span->parent_id));
        if (!span->detail.empty())
            args.set("detail", span->detail);
        event.set("args", std::move(args));
        events.push(std::move(event));
    }

    json::Value doc = json::Value::object();
    doc.set("displayTimeUnit", "ms");
    doc.set("traceEvents", std::move(events));
    return doc;
}

} // namespace prosperity::obs
