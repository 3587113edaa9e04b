// Statistics, result printing, host fingerprint and span helpers.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "obs/clock.h"

namespace perfbench {

std::uint64_t now_ns()
{
    return serpens::obs::real_clock().now_ns();
}

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return serpens::obs::Clock::ms_between(start_ns, end_ns);
}

void sleep_until_ns(std::uint64_t t_ns)
{
    const std::uint64_t now = now_ns();
    if (t_ns > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

bool tail_supported(std::size_t n)
{
    return static_cast<double>(n) * 0.01 >= 10.0;
}

// ---------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples)
{
    metrics_[name] = Entry{value, unit, samples};
}

void Report::diagnostic(const std::string& name, double value,
                        const std::string& unit, std::uint64_t samples)
{
    diagnostics_[name] = Entry{value, unit, samples};
}

void Report::note(const std::string& key, const std::string& value)
{
    notes_[key] = value;
}

void Report::attempt(bool ok, std::uint64_t n)
{
    attempted_ += n;
    if (!ok)
        failed_ += n;
}

void Report::mismatch(const std::string& what)
{
    if (mismatches_ < 5)
        std::fprintf(stderr, "perfbench: result differs from oracle: %s\n",
                     what.c_str());
    ++mismatches_;
    ++failed_;
}

void Report::invalid(const std::string& what)
{
    std::fprintf(stderr, "perfbench: invalid measurement: %s\n", what.c_str());
    invalid_.push_back(what);
}

namespace {

std::string json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int Report::finish() const
{
    for (const auto& [name, e] : metrics_)
        std::printf("metric %-40s %22s %-10s n=%" PRIu64 "\n", name.c_str(),
                    number(e.value).c_str(), e.unit.c_str(), e.samples);
    for (const auto& [name, e] : diagnostics_)
        std::printf("diagnostic %-36s %22s %-10s n=%" PRIu64 "\n",
                    name.c_str(), number(e.value).c_str(), e.unit.c_str(),
                    e.samples);

    // Provenance line: notes plus every metric's sample count.
    std::ostringstream prov;
    prov << "{\"notes\": {";
    bool first = true;
    for (const auto& [k, v] : notes_) {
        prov << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
             << json_escape(v) << '"';
        first = false;
    }
    prov << "}, \"samples\": {";
    first = true;
    for (const auto& [name, e] : metrics_) {
        prov << (first ? "" : ", ") << '"' << json_escape(name)
             << "\": " << e.samples;
        first = false;
    }
    prov << "}}";
    std::printf("provenance %s\n", prov.str().c_str());

    if (!valid()) {
        std::fprintf(stderr, "perfbench: %zu invalid measurement(s); no result\n",
                     invalid_.size());
        std::fflush(stdout);
        return 2;
    }
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    first = true;
    for (const auto& [name, e] : metrics_) {
        out << (first ? "" : ", ") << '"' << json_escape(name)
            << "\": {\"value\": " << number(e.value) << ", \"unit\": \""
            << json_escape(e.unit) << "\"}";
        first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
    return correct() && attempted_ > 0 ? 0 : 1;
}

// ---------------------------------------------------------------------

namespace {

std::string cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

std::string kib(long bytes)
{
    return bytes > 0 ? std::to_string(bytes / 1024) + " KiB" : "unknown";
}

} // namespace

void add_fingerprint(Report& report)
{
    report.note("host.nproc",
                std::to_string(std::thread::hardware_concurrency()));
    report.note("host.cpu", cpu_model());
#if defined(_SC_LEVEL2_CACHE_SIZE)
    report.note("host.l2", kib(sysconf(_SC_LEVEL2_CACHE_SIZE)));
    report.note("host.l3", kib(sysconf(_SC_LEVEL3_CACHE_SIZE)));
#endif
    report.note("build.compiler", PERFBENCH_COMPILER);
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    report.note("build.type", build_type);
    if (build_type != "Release") {
        report.note("build.warning", "non-Release build: timings not comparable");
        std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                     build_type.c_str());
    }
}

double peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double proc_status_field(const char* key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t klen = std::strlen(key);
    while (std::getline(in, line))
        if (line.compare(0, klen, key) == 0 && line.size() > klen &&
            line[klen] == ':')
            return std::strtod(line.c_str() + klen + 1, nullptr);
    return 0.0;
}

// ---------------------------------------------------------------------

LayerSpan::LayerSpan(const char* name, const char* module,
                     std::uint64_t trace_id)
    : rec_(serpens::obs::trace_recorder()), name_(name), module_(module),
      trace_id_(trace_id), start_ns_(rec_ != nullptr ? rec_->now_ns() : 0)
{
}

LayerSpan::~LayerSpan()
{
    if (rec_ != nullptr)
        rec_->span(name_, module_, trace_id_, start_ns_, rec_->now_ns());
}

std::uint64_t new_trace_id()
{
    serpens::obs::TraceRecorder* rec = serpens::obs::trace_recorder();
    return rec != nullptr ? rec->next_trace_id() : 0;
}

void record_span(const char* name, const char* module, std::uint64_t trace_id,
                 std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (serpens::obs::TraceRecorder* rec = serpens::obs::trace_recorder())
        rec->span(name, module, trace_id, start_ns, end_ns);
}

IdlePollers::IdlePollers()
{
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this] {
            sched_param sp{};
            sched_setscheduler(0, SCHED_IDLE, &sp);
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
}

IdlePollers::~IdlePollers()
{
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_)
        t.join();
}

std::unique_ptr<serpens::obs::TraceRecorder> make_recorder()
{
    return std::make_unique<serpens::obs::TraceRecorder>(nullptr,
                                                         std::size_t{1} << 24);
}

TraceInstall::TraceInstall(serpens::obs::TraceRecorder* rec)
{
    serpens::obs::set_trace_recorder(rec);
}

TraceInstall::~TraceInstall()
{
    serpens::obs::set_trace_recorder(nullptr);
}

} // namespace perfbench
