// Shared pieces of the seeded benchmark program (serpens_perfbench).
//
// The benchmark links libserpens and measures it from outside: every layer
// figure comes from timing a call into that module's public API. Layer
// names follow src/ (sparse, encode, hbm, sim, core, serve, net, obs);
// the benchmark's own load generator is the layer `gen`.
//
// Inputs and every oracle result are generated from --seed before any
// timing starts. Each result the program returns is compared bit for bit
// (y plus the six CycleStats accounting fields) against the packed-walk
// oracle (sim::simulate_spmv); a mismatch is a failed attempt and makes
// the run exit non-zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "core/config.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sparse/coo.h"

namespace perfbench {

using serpens::sparse::nnz_t;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool capacity = false;      // closed-loop capacity instead of the run
    std::string workdir = ".";  // scratch space for WAL state dirs
};

// Monotonic nanoseconds on the clock the trace recorder also reads, so
// benchmark timestamps and library spans share one time base.
std::uint64_t now_ns();
double ms_between(std::uint64_t start_ns, std::uint64_t end_ns);
void sleep_until_ns(std::uint64_t t_ns);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
// A p99 is reported only when at least ten samples lie beyond it.
bool tail_supported(std::size_t n);

// ---------------------------------------------------------------------
// Results

class Report {
public:
    // Record one named metric with its unit and the number of samples it
    // summarizes. Later calls with the same name replace earlier ones.
    void metric(const std::string& name, double value,
                const std::string& unit, std::uint64_t samples = 1);
    // A figure printed with its unit and sample count but kept out of the
    // result JSON: it is too sensitive to host scheduling noise to gate on.
    void diagnostic(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples = 1);
    // Provenance / phase notes echoed into the report line.
    void note(const std::string& key, const std::string& value);
    // Count one attempted operation; `ok` false counts it failed.
    void attempt(bool ok, std::uint64_t n = 1);
    // A result that differs from the oracle: counted failed and fatal.
    void mismatch(const std::string& what);
    // A measurement that could not be made validly (backlog grew, too few
    // samples for a tail): the run reports nothing and exits non-zero.
    void invalid(const std::string& what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return mismatches_ == 0; }
    bool valid() const { return invalid_.empty(); }

    // Print every metric line, the provenance line and the final JSON
    // result line. Returns the process exit code.
    int finish() const;

private:
    struct Entry {
        double value = 0.0;
        std::string unit;
        std::uint64_t samples = 1;
    };
    std::map<std::string, Entry> metrics_;
    std::map<std::string, Entry> diagnostics_;
    std::map<std::string, std::string> notes_;
    std::vector<std::string> invalid_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t mismatches_ = 0;
};

// Host/build fingerprint notes: nproc, CPU model, cache sizes, compiler,
// build type, source revision (when known).
void add_fingerprint(Report& report);
// getrusage(RUSAGE_SELF) peak resident set, MiB.
double peak_rss_mib();
// A "Key:   value kB" (or plain count) field of /proc/self/status.
double proc_status_field(const char* key);

// ---------------------------------------------------------------------
// Tracing: spans the benchmark records around its calls into each layer.

// RAII span on the installed process-wide recorder (no-op when tracing is
// off). `name` and `module` must be string literals.
class LayerSpan {
public:
    LayerSpan(const char* name, const char* module, std::uint64_t trace_id);
    ~LayerSpan();
    LayerSpan(const LayerSpan&) = delete;
    LayerSpan& operator=(const LayerSpan&) = delete;

private:
    serpens::obs::TraceRecorder* rec_;
    const char* name_;
    const char* module_;
    std::uint64_t trace_id_;
    std::uint64_t start_ns_;
};

// A fresh request trace id from the installed recorder (0 = untraced).
std::uint64_t new_trace_id();

// Record an already-timed span (e.g. a request rooted at its due time).
void record_span(const char* name, const char* module, std::uint64_t trace_id,
                 std::uint64_t start_ns, std::uint64_t end_ns);

// A recorder sized so that no span is dropped at the benchmark's rates
// (the library default of 65,536 spans per thread would overflow). Create
// it before any server or daemon so it outlives every recording thread.
std::unique_ptr<serpens::obs::TraceRecorder> make_recorder();

// Installs `rec` as the process-wide recorder for the object's lifetime.
// Callers drain all traffic before the guard ends.
class TraceInstall {
public:
    explicit TraceInstall(serpens::obs::TraceRecorder* rec);
    ~TraceInstall();
    TraceInstall(const TraceInstall&) = delete;
    TraceInstall& operator=(const TraceInstall&) = delete;
};

// Per-module self time of a traced pass: each span's duration minus the
// part its children cover, children found by time containment within a
// trace id (clipped to the parent). Adds <module>.self_ms (total over the
// traced pass) for every layer that records spans, obs.spans, obs.dropped_spans and
// obs.accounted_pct: the share of the read requests' end-to-end time that
// the spans below each request's root cover (the generator's lag and every
// layer's spans); the rest is time no span explains. Only spans `keep`
// accepts are counted.
void report_self_times(const serpens::obs::TraceRecorder& rec,
                       const std::function<bool(const serpens::obs::Span&)>& keep,
                       Report& report);

// ---------------------------------------------------------------------
// Inputs and the oracle

// The benchmark's own plain SpMV, the fixed reference the library's
// throughput is expressed against: one flat loop over the triplets,
// y[row] += value * x[col], with no per-row branching, so its speed
// depends on the memory footprint and access pattern rather than on the
// row-length distribution of one seed's matrix. It is timed interleaved
// with the library calls on the same matrix and vectors, so a host that
// runs slower for a while slows both alike: the ratio stays put while
// absolute nnz/s on a shared host drifts by tens of percent over minutes.
struct RefSpmv {
    std::vector<std::uint32_t> row;
    std::vector<std::uint32_t> col;
    std::vector<float> val;

    explicit RefSpmv(const serpens::sparse::CooMatrix& m);
    // y = alpha * A * x + beta * y_in (FP32, triplet order).
    void spmv(const std::vector<float>& x, const std::vector<float>& y_in,
              std::vector<float>& y) const;
};

// One generated matrix with its .mtx text, a pool of right-hand sides, the
// packed-walk oracle result for each, and the reference SpMV.
struct Input {
    std::string kind;  // generator family
    serpens::sparse::CooMatrix coo;
    std::string mtx;
    std::vector<std::vector<float>> xs;
    std::vector<std::vector<float>> ys;
    std::vector<serpens::sim::SimResult> oracle;
    std::unique_ptr<RefSpmv> ref;
    nnz_t nnz() const { return coo.nnz(); }
};

// Alpha/beta of every request: y = kAlpha * A * x + kBeta * y_in.
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 0.5f;

// Matrix families. R-MAT needs a power-of-two `n` and takes edge factor
// round(nnz / n); banded takes nnz / n non-zeros per row.
enum class Family { kUniform, kRmat, kBanded };

// Generate a matrix plus `vectors` right-hand sides, its .mtx text and
// oracle results (computed on one thread).
Input make_input(Family family, serpens::sparse::index_t n, nnz_t nnz,
                 std::uint64_t seed, unsigned vectors,
                 const serpens::core::SerpensConfig& config);

// True when y and all six CycleStats accounting fields equal the oracle.
bool same_result(const serpens::sim::SimResult& oracle,
                 const std::vector<float>& y,
                 const serpens::sim::CycleStats& cycles);

// ---------------------------------------------------------------------
// Layer probes: time each layer's public entry point on a matrix set and
// report the per-layer metrics (ns/nnz, deterministic counts).
// `seconds` is the budget for the timed walks.
void probe_layers(const std::vector<const Input*>& set,
                  const serpens::core::SerpensConfig& config, double seconds,
                  Report& report);

// Steady-state library throughput on a prepared set: Accelerator::run at
// B=1 and run_batch at B=8 in alternating chunks, every result checked.
struct LibraryFigures {
    double spmv_nnz_per_s = 0.0;   // set nnz over the sum of median B=1 times
    double spmm8_nnz_per_s = 0.0;  // 8 x set nnz over median B=8 times
    // The same throughputs over the reference SpMV's, timed alongside.
    double spmv_vs_ref = 0.0;
    double spmm8_vs_ref = 0.0;
    double device_gflops = 0.0;    // geomean modeled device GFLOP/s
    std::size_t b1_calls = 0;
    std::size_t b8_calls = 0;
};
LibraryFigures measure_library(
    const std::vector<const Input*>& set,
    const std::vector<std::shared_ptr<const serpens::core::PreparedMatrix>>&
        prepared,
    const serpens::core::SerpensConfig& config, double seconds,
    Report& report);

// Serving-side per-layer figures; workloads without a server report the
// zero defaults (the layer is not exercised).
struct ServeLayerFigures {
    double queue_p50_ms = 0.0, queue_p99_ms = 0.0;
    double service_p50_ms = 0.0, service_p99_ms = 0.0;
    double mean_batch_width = 0.0;
    double ping_rtt_p50_ms = 0.0;
    double unattributed_p50_ms = 0.0, unattributed_p99_ms = 0.0;
    double connect_p50_ms = 0.0;
    double daemon_threads = 0.0, vmsize_mib = 0.0, open_connections = 0.0;
    double registry_admissions = 0.0, registry_evictions = 0.0;
    double shed = 0.0, rejected = 0.0;
    double wal_append_p50_ms = 0.0;
    double gen_attempted = 0.0, gen_failed = 0.0, gen_lag_p99_ms = 0.0;
    double invalid_phases = 0.0;
    std::size_t requests = 0, pings = 0, connects = 0, wal_appends = 0;
};
void report_serve_layers(const ServeLayerFigures& f, Report& report);

// Keeps every CPU out of the idle state while alive: one SCHED_IDLE
// thread per CPU polls with a pause instruction. Any runnable thread
// preempts them at once; what they remove is the virtual machine's
// halt/wake path, whose latency (tens of microseconds to milliseconds,
// varying with the load of other tenants on the host) otherwise dominates
// the latency of sub-millisecond requests and makes it irreproducible.
class IdlePollers {
public:
    IdlePollers();
    ~IdlePollers();
    IdlePollers(const IdlePollers&) = delete;
    IdlePollers& operator=(const IdlePollers&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

// Derive an independent sub-seed for one input or phase.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

// Workload entry points.
void run_serve_small_tcp(const Args& args, Report& report);
void run_serve_churn(const Args& args, Report& report);

} // namespace perfbench
