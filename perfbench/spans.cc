#include "spans.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace perfbench {

std::size_t
SpanRecorder::open(std::string layer, std::string name)
{
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1
                                 : static_cast<std::int64_t>(stack_.back());
    span.start_ns = nowNs();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t index)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("perfbench: spans must close innermost first");
    spans_[index].end_ns = nowNs();
    stack_.pop_back();
}

void
SpanRecorder::addClosed(std::string layer, std::string name,
                        std::uint64_t start_ns, std::uint64_t end_ns)
{
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1
                                 : static_cast<std::int64_t>(stack_.back());
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(std::move(span));
}

std::map<std::string, LayerTotals>
SpanRecorder::layerTable(std::size_t root) const
{
    // Spans are appended in open order, so a subtree is a contiguous
    // run starting at `root` and every child follows its parent.
    std::vector<bool> inside(spans_.size(), false);
    std::vector<double> child_s(spans_.size(), 0.0);
    inside[root] = true;
    for (std::size_t i = root + 1; i < spans_.size(); ++i) {
        const std::int64_t p = spans_[i].parent;
        if (p < 0 || !inside[static_cast<std::size_t>(p)])
            break;
        inside[i] = true;
        child_s[static_cast<std::size_t>(p)] += seconds(i);
    }
    std::map<std::string, LayerTotals> table;
    for (std::size_t i = root; i < spans_.size() && inside[i]; ++i) {
        LayerTotals& t = table[spans_[i].layer];
        ++t.calls;
        t.total_s += seconds(i);
        t.self_s += seconds(i) - child_s[i];
    }
    return table;
}

std::vector<double>
SpanRecorder::durationsMs(std::size_t root, const std::string& name) const
{
    std::vector<bool> inside(spans_.size(), false);
    inside[root] = true;
    std::vector<double> out;
    for (std::size_t i = root + 1; i < spans_.size(); ++i) {
        const std::int64_t p = spans_[i].parent;
        if (p < 0 || !inside[static_cast<std::size_t>(p)])
            break;
        inside[i] = true;
        if (spans_[i].name == name)
            out.push_back(seconds(i) * 1e3);
    }
    return out;
}

std::string
SpanRecorder::chromeTraceJson(const std::string& extra) const
{
    using prosperity::json::escape;
    using prosperity::json::formatDouble;

    std::vector<std::size_t> order(spans_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return spans_[a].start_ns < spans_[b].start_ns;
                     });
    const std::uint64_t origin =
        spans_.empty() ? 0 : spans_[order.front()].start_ns;

    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
       << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":\"perfbench\"}},\n"
       << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"benchmark thread\"}}";
    for (std::size_t i : order) {
        const Span& s = spans_[i];
        os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\""
           << escape(s.layer) << "\",\"name\":\"" << escape(s.name)
           << "\",\"ts\":"
           << formatDouble(static_cast<double>(s.start_ns - origin) / 1e3)
           << ",\"dur\":"
           << formatDouble(static_cast<double>(s.end_ns - s.start_ns) /
                           1e3)
           << ",\"args\":{\"trace_id\":\"" << trace_id_
           << "\",\"span_id\":" << i + 1
           << ",\"parent_id\":" << s.parent + 1 << "}}";
    }
    os << "\n],\n\"perfbench\":" << extra << "}\n";
    return os.str();
}

} // namespace perfbench
