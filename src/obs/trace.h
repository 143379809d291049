/**
 * @file
 * Per-job distributed tracing: span timelines from HTTP ingress down
 * to the accelerator stage kernels, exported as Chrome trace-event
 * JSON (loadable in Perfetto / chrome://tracing).
 *
 * The design mirrors the metrics layer's contract (see metrics.h) and
 * adds context propagation:
 *
 *  1. **Inert.** Tracing observes; it never feeds back. Spans carry
 *     timestamps but no simulation state flows through them, golden
 *     reports and the t1-vs-t4 determinism pins hold with tracing
 *     compiled in and enabled (CI pins this), and every clock read
 *     stays behind obs::monotonicNanos() so the wall-clock lint keeps
 *     the rest of src/ time-free.
 *  2. **Lock-cheap record path.** A finished span is appended to a
 *     thread-local buffer — no lock, no syscall. The buffer drains
 *     into the process-wide ring in batches (when it fills, or when
 *     the thread's trace context detaches), so the ring mutex is
 *     touched once per ~dozens of spans, never per span.
 *  3. **Off by default, and free when off.** Without an installed
 *     trace context (or with the recorder disabled) ScopedSpan does
 *     not read the clock, copy a name, or allocate. Only `serve
 *     --trace[-slow-ms]` and `campaign --trace` turn recording on.
 *
 * The recorder is a bounded flight recorder: a fixed-capacity ring of
 * completed spans where new batches overwrite the oldest entries.
 * `collect(trace_id)` reassembles one request's timeline from
 * whatever the ring still holds; an evicted trace simply comes back
 * empty, it never blocks or grows memory.
 *
 * Context propagation is cooperative: code that hops threads captures
 * `currentTraceContext()` on the submitting thread and installs it on
 * the executing thread with a ScopedTraceContext (the engine's worker
 * pool and the service's record workers both do this), so
 * child spans land in the right trace with the right parent regardless
 * of which worker ran them.
 */

#ifndef PROSPERITY_OBS_TRACE_H
#define PROSPERITY_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/thread_annotations.h"

namespace prosperity::obs {

/** One completed span, as stored in the flight recorder. */
struct TraceSpan
{
    /** Trace this span belongs to (0 never occurs in the ring). */
    std::uint64_t trace_id = 0;
    /** Process-unique span id (minted from an atomic counter). */
    std::uint64_t span_id = 0;
    /** Enclosing span at emission time; 0 for a trace's root span. */
    std::uint64_t parent_id = 0;
    /** obs::monotonicNanos() at span open / close. */
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    /** Small dense per-thread id (first-use order, not OS tid). */
    std::uint32_t tid = 0;
    /** Coarse subsystem: "http", "engine", "layer", "stage", ... */
    const char* category = "";
    /** Span name; layer spans use the layer's own name. */
    std::string name;
    /** Optional free-form annotation (accelerator name, byte counts). */
    std::string detail;
};

/**
 * The ambient trace identity of the current thread: which trace new
 * spans join and which span they parent to. A zero trace_id means
 * "not traced" and makes every span operation a no-op.
 */
struct TraceContext
{
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
};

/** 16-digit lowercase-hex rendering of a trace id (the wire format). */
std::string formatTraceId(std::uint64_t id);

/**
 * Parse a trace id as sent in `X-Prosperity-Trace` or a
 * `/v1/traces/<id>` path: 1-16 hex digits, case-insensitive.
 * Returns 0 (the "no trace" sentinel) for anything malformed.
 */
std::uint64_t parseTraceId(const std::string& text);

/**
 * The thread's current context with `parent_span` pointing at the
 * innermost open span — capture this before handing work to another
 * thread so its spans nest under the span that dispatched them.
 */
TraceContext currentTraceContext();

/** True iff the recorder is on AND this thread has a live context. */
bool traceActive();

/**
 * Installs `context` as the thread's ambient trace for the enclosing
 * scope and restores the previous context on destruction, flushing
 * this thread's span buffer into the ring so a trace is collectible
 * as soon as the scope that produced it ends.
 */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(TraceContext context);
    ~ScopedTraceContext();
    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  private:
    TraceContext previous_;
    bool installed_ = false;
};

/**
 * RAII span: opens on construction, records on destruction. When the
 * thread is not being traced, construction does no clock read, no
 * allocation, and no string copy — the name parameter is a
 * `const char*` precisely so inactive call sites pay nothing.
 */
class ScopedSpan
{
  public:
    /** Static-name span ("simulate", "store.fetch", ...). */
    ScopedSpan(const char* category, const char* name);
    /** Dynamic-name span (layer names); copies only when active. */
    ScopedSpan(const char* category, const std::string& name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** True when this span will actually be recorded. */
    bool active() const { return active_; }

    /** Attach a free-form annotation (only call when active()). */
    void setDetail(std::string detail) { detail_ = std::move(detail); }

  private:
    void open(const char* category);

    bool active_ = false;
    const char* category_ = "";
    std::string name_;
    std::string detail_;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_id_ = 0;
    std::uint64_t start_ns_ = 0;
};

/**
 * Record an externally-timed span (both endpoints already measured
 * with obs::monotonicNanos()). Used where the interval crosses
 * threads — e.g. the engine's queue wait runs from submit() on the
 * caller thread to dequeue on the worker. No-op when the thread is
 * not being traced.
 */
void emitSpan(const char* category, const char* name,
              std::uint64_t start_ns, std::uint64_t end_ns);

/**
 * The process-wide flight recorder: a bounded ring of completed spans
 * plus the trace-id mint. Disabled (and allocation-free) until
 * setEnabled(true); the serve daemon and the campaign CLI enable it
 * behind explicit flags.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /** The recorder every span in the process drains into. */
    static TraceRecorder& global();

    /** Turn recording on/off. Turning on allocates the ring once. */
    void setEnabled(bool enabled) EXCLUDES(mutex_);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Spans the ring holds; newer batches overwrite the oldest. */
    static constexpr std::size_t kCapacity = 65536;

    /**
     * Mint a fresh nonzero trace id. Ids mix the recorder's first-use
     * timestamp with a counter — unique within the process and across
     * quick restarts, with no entropy source (determinism lint).
     */
    std::uint64_t mintTraceId();

    /** Batch-append completed spans (moves them out of `spans`). */
    void record(std::vector<TraceSpan>& spans) EXCLUDES(mutex_);

    /**
     * Every ring-resident span of one trace, ordered by start time
     * (ties by span id). Empty when the trace was never recorded or
     * has been overwritten.
     */
    std::vector<TraceSpan> collect(std::uint64_t trace_id) const
        EXCLUDES(mutex_);

    /** Digest of one trace still (partially) in the ring. */
    struct TraceSummary
    {
        std::uint64_t trace_id = 0;
        /** Name of the earliest root span, or of the earliest span. */
        std::string root;
        std::size_t spans = 0;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };

    /** Most recent traces (by start), newest first, at most `limit`. */
    std::vector<TraceSummary> recentTraces(std::size_t limit = 32) const
        EXCLUDES(mutex_);

    /** Spans accepted into the ring since start (wrapped or not). */
    std::uint64_t recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    /** Drop all buffered spans (tests). */
    void clear() EXCLUDES(mutex_);

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> recorded_{0};
    std::atomic<std::uint64_t> next_trace_{0};
    std::atomic<std::uint64_t> mint_base_{0};

    mutable util::Mutex mutex_;
    /** Fixed-size once enabled; `cursor_` is the next overwrite slot. */
    std::vector<TraceSpan> ring_ GUARDED_BY(mutex_);
    std::size_t cursor_ GUARDED_BY(mutex_) = 0;
};

/**
 * Render spans as a Chrome trace-event document:
 * `{"traceEvents": [...]}` of complete ("ph":"X") events with
 * microsecond ts/dur rebased to the earliest span, pid 1, and the
 * recorder's dense thread ids — directly loadable in Perfetto.
 * Span/parent ids ride along in each event's "args".
 */
json::Value chromeTraceJson(const std::vector<TraceSpan>& spans);

} // namespace prosperity::obs

#endif // PROSPERITY_OBS_TRACE_H
