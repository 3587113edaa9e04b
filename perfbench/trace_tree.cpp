// Per-layer self time from a traced pass.
//
// Spans come from two sources: the benchmark's own spans around each call into
// a layer (category = the layer name) and the library's existing
// daemon.*/serve.*/store.* spans, which join the same request trees
// through the wire trace id. Nesting is derived from time containment
// within one trace id: a span's parent is the innermost open span that
// contains its start, and a child that outlives its parent (the
// dispatcher stamps serve.batch after it has already answered) is clipped
// to the parent's end. Children of one parent are therefore disjoint, and
// the self times of a tree sum exactly to its root's duration.
//
// The roots are the generator's own spans (gen.request from a read's due
// time to its checked reply; gen.probe, gen.op, gen.admit). A read's tree
// holds gen.lag (due time to send, the generator's queueing), the client
// and daemon layers, and the root's own self time: what no span covers
// (picking the target, checking the reply). obs.accounted_pct is the share
// of the reads' end-to-end time that the spans below the root cover.
#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace {

// Layer of a span: library spans by name, benchmark spans by category.
const char* module_of(const serpens::obs::Span& s)
{
    const auto starts = [&](const char* p) {
        return std::strncmp(s.name, p, std::strlen(p)) == 0;
    };
    if (starts("daemon.") || starts("client."))
        return "net";
    if (std::strcmp(s.name, "serve.device") == 0)
        return "core";  // the dispatcher's Accelerator::run_batch call
    if (starts("serve.") || starts("store.") || starts("registry."))
        return "serve";
    return s.category;
}

} // namespace

void report_self_times(const serpens::obs::TraceRecorder& rec,
                       const std::function<bool(const serpens::obs::Span&)>& keep,
                       Report& report)
{
    std::vector<serpens::obs::Span> spans = rec.snapshot();
    std::erase_if(spans, [&](const serpens::obs::Span& s) {
        return s.instant || !keep(s);
    });

    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_trace;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_trace[spans[i].trace_id].push_back(i);

    std::map<std::string, double> self_ns;
    for (const char* m :
         {"sparse", "encode", "sim", "core", "serve", "net", "gen"})
        self_ns[m] = 0.0;
    // Read-request trees: end-to-end time, and the part no span explains.
    double request_ns = 0.0, request_unexplained_ns = 0.0;
    const auto is_request = [](const serpens::obs::Span& s) {
        return std::strcmp(s.name, "gen.request") == 0;
    };

    struct Open {
        std::size_t idx;
        std::uint64_t end;       // clipped end
        std::uint64_t covered;   // child time inside this span
    };
    for (auto& [id, idx] : by_trace) {
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            const auto& x = spans[a];
            const auto& y = spans[b];
            return x.start_ns != y.start_ns ? x.start_ns < y.start_ns
                                            : x.dur_ns > y.dur_ns;
        });
        std::vector<Open> stack;
        const auto close = [&](const Open& o) {
            const auto& s = spans[o.idx];
            const double self = static_cast<double>(o.end - s.start_ns) -
                                static_cast<double>(o.covered);
            self_ns[module_of(s)] += self;
            if (stack.size() == 1 && is_request(s))
                request_unexplained_ns += self;
        };
        for (const std::size_t i : idx) {
            const auto& s = spans[i];
            while (!stack.empty() && s.start_ns >= stack.back().end) {
                close(stack.back());
                stack.pop_back();
            }
            std::uint64_t end = s.start_ns + s.dur_ns;
            if (stack.empty()) {
                if (is_request(s))
                    request_ns += static_cast<double>(s.dur_ns);
            } else {
                end = std::min(end, stack.back().end);
                stack.back().covered += end - s.start_ns;
            }
            stack.push_back(Open{i, end, 0});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }

    for (const auto& [m, ns] : self_ns)
        report.metric(m + ".self_ms", ns / 1e6, "ms", spans.size());
    report.metric("obs.spans", static_cast<double>(spans.size()), "count");
    report.metric("obs.dropped_spans", static_cast<double>(rec.dropped()),
                  "count");
    report.metric("obs.accounted_pct",
                  request_ns > 0.0 ? 100.0 * (1.0 - request_unexplained_ns / request_ns)
                                   : 0.0,
                  "%");
}

} // namespace perfbench
