/**
 * @file
 * The benchmark's own span recorder. Spans are opened and closed on the
 * benchmark's calling thread around each call it makes into the
 * library, stay in memory, and are written out once at exit as Chrome
 * trace-event JSON. Nothing here touches the library's in-program
 * tracing (src/obs/trace.h), which stays off.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** One closed (or still open) interval. `layer` names the src/ module
 *  the timed call belongs to ("core", "gen", ...) or "bench" for the
 *  benchmark's own structure. */
struct Span
{
    std::string layer;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1; ///< index into the recorder, -1 = root
};

/** Per-layer totals over one subtree of spans. */
struct LayerTotals
{
    std::size_t calls = 0;
    double total_s = 0.0; ///< summed span durations
    double self_s = 0.0;  ///< durations minus time covered by children
};

/**
 * Single-threaded, append-only span store. Spans nest strictly: a
 * span's parent is whatever span was open when it opened.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string trace_id)
        : trace_id_(std::move(trace_id))
    {
    }

    std::size_t open(std::string layer, std::string name);
    void close(std::size_t index);

    /** Record an already finished interval as a child of the innermost
     *  open span (it must lie inside that span and after its other
     *  children). */
    void addClosed(std::string layer, std::string name,
                   std::uint64_t start_ns, std::uint64_t end_ns);

    const std::vector<Span>& spans() const { return spans_; }
    const std::string& traceId() const { return trace_id_; }

    double seconds(std::size_t index) const
    {
        return secondsBetween(spans_[index].start_ns, spans_[index].end_ns);
    }

    /** Layer -> totals over `root` and all its descendants. Self times
     *  sum exactly to the root's duration. */
    std::map<std::string, LayerTotals> layerTable(std::size_t root) const;

    /** Durations (ms) of every span in `root`'s subtree named `name`. */
    std::vector<double> durationsMs(std::size_t root,
                                    const std::string& name) const;

    /** Chrome trace-event JSON (`X` events, start-sorted, ts/dur in
     *  µs rebased to the first span). `extra` is a JSON object text
     *  appended as the document's "perfbench" member. */
    std::string chromeTraceJson(const std::string& extra) const;

  private:
    std::string trace_id_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** RAII span; a null recorder makes it inert (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* recorder, std::string layer, std::string name)
        : recorder_(recorder)
    {
        if (recorder_)
            index_ = recorder_->open(std::move(layer), std::move(name));
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
