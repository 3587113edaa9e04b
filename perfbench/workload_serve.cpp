// serve_small_tcp and serve_churn: an in-process net::Daemon over
// serve::Server, driven over loopback TCP by the open-loop generator.
//
// serve_small_tcp: two 2048^2 / ~20k-nnz residents, the serpens_served
//   default policy (max_batch 8, no hold, one serve thread per core), four
//   reader connections at one fixed rate.
// serve_churn: four ~250k-nnz residents (uniform and R-MAT) with the SLO
//   width controller on and a RegistryStore WAL in a fresh directory. Three
//   reader connections plus one writer connection that periodically admits
//   a fresh matrix under a new name and evicts the oldest resident once its
//   last in-flight read has returned; a share of reads open a new
//   connection and close it afterwards. At most four connections are open.
//
// Each fixed rate is half of the lowest closed-loop capacity measured for
// the workload on the library this benchmark was introduced with, with the
// host busy (`--capacity 1` measures it; the figures are in the README), so
// that the backlog stays flat when the host is loaded. It is a constant, so
// a change that moves capacity moves latency, not the offered load.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "bench.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/daemon.h"
#include "serve/server.h"
#include "serve/store.h"
#include "sparse/matrix_market.h"

namespace perfbench {

namespace {

namespace net = serpens::net;
namespace serve = serpens::serve;

struct ServeSpec {
    serpens::core::SerpensConfig config;
    std::vector<Input> pool;      // the first `residents` are admitted at setup
    std::size_t residents = 0;
    int epochs = 4;               // fresh daemons per run; figures are medians
    // Set-ups timed per epoch (the last one serves it): a short set-up is
    // noisy next to the phases, so it gets more samples.
    int setup_reps = 1;
    unsigned readers = 4;
    bool durable = false;         // RegistryStore WAL in a fresh directory
    double ref_rate_rps = 0.0;
    double churn_share = 0.0;
    double write_period_s = 0.0;  // 0 = no writer
};

// One daemon instance; members torn down in dependency order.
struct Serving {
    std::string state_dir;
    std::unique_ptr<serve::RegistryStore> store;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<net::Daemon> daemon;

    ~Serving()
    {
        daemon.reset();
        server.reset();
        store.reset();
        if (!state_dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(state_dir, ec);
        }
    }
};

std::string resident_name(std::size_t i)
{
    return "r" + std::to_string(i);
}

// Daemon start + admissions until the first read is served.
std::unique_ptr<Serving> start_serving(const ServeSpec& spec, const Args& args,
                                       int rep, std::vector<double>& setup_s,
                                       std::vector<double>& admit_ms,
                                       Report& report)
{
    const std::uint64_t t0 = now_ns();
    auto s = std::make_unique<Serving>();
    if (spec.durable) {
        s->state_dir = args.workdir + "/wal-" + std::to_string(getpid()) +
                       "-" + std::to_string(rep);
        std::filesystem::remove_all(s->state_dir);
        s->store = std::make_unique<serve::RegistryStore>(s->state_dir);
    }
    s->server = std::make_unique<serve::Server>(spec.config);
    s->daemon = std::make_unique<net::Daemon>(*s->server, 0, s->store.get());
    net::Client client(kHost, s->daemon->port(), kTimeoutMs);
    for (std::size_t i = 0; i < spec.residents; ++i) {
        const Input& in = spec.pool[i];
        const serpens::sparse::CooMatrix coo =
            serpens::sparse::read_matrix_market_fast(in.mtx);
        const std::uint64_t a0 = now_ns();
        client.admit(resident_name(i), coo);
        admit_ms.push_back(ms_between(a0, now_ns()));
    }
    const net::SpmvReply r = client.spmv(resident_name(0), spec.pool[0].xs[0],
                                         spec.pool[0].ys[0], kAlpha, kBeta);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    const bool ok = reply_matches(spec.pool[0].oracle[0], r);
    report.attempt(ok);
    if (!ok)
        report.mismatch("first read after set-up");
    return s;
}

// Connections still counted by the daemon once every client has closed
// (the daemon notices EOF asynchronously; give it a moment).
double settled_open_connections(net::Daemon& daemon)
{
    const std::uint64_t deadline = now_ns() + 200'000'000;
    while (daemon.open_connections() > 0 && now_ns() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return static_cast<double>(daemon.open_connections());
}

void fill_request_figures(const PhaseResult& p, ServeLayerFigures& f)
{
    const auto q = p.field(&Sample::queue_ms);
    const auto sv = p.field(&Sample::service_ms);
    const auto un = p.field(&Sample::unattributed_ms);
    f.requests = p.samples.size();
    f.queue_p50_ms = quantile(q, 0.5);
    f.queue_p99_ms = quantile(q, 0.99);
    f.service_p50_ms = quantile(sv, 0.5);
    f.service_p99_ms = quantile(sv, 0.99);
    f.unattributed_p50_ms = quantile(un, 0.5);
    f.unattributed_p99_ms = quantile(un, 0.99);
    f.gen_attempted = static_cast<double>(p.attempted);
    f.gen_failed = static_cast<double>(p.failed);
    f.gen_lag_p99_ms = quantile(p.field(&Sample::lag_ms), 0.99);
}

// A fixed-rate phase whose backlog grew is marked invalid and left out of
// every figure drawn from the served phases; the run as a whole is invalid
// only if that leaves fewer than half of its phases, or (traced runs) no
// traced or no untraced phase to compare.
void check_phases(int epochs, int invalid, bool traced_run,
                  std::size_t plain_valid, std::size_t traced_valid,
                  Report& report)
{
    if (2 * invalid > epochs)
        report.invalid(std::to_string(invalid) + " of " +
                       std::to_string(epochs) +
                       " fixed-rate phases: backlog grew");
    else if (traced_run && (plain_valid == 0 || traced_valid == 0))
        report.invalid("no valid traced or untraced fixed-rate phase");
}

void run_serving(const ServeSpec& spec, const Args& args, Report& report)
{
    // The recorder outlives every server/daemon thread that may record.
    const auto rec = make_recorder();
    std::unique_ptr<Serving> serving;
    std::vector<double> setup_s, setup_admit_ms, write_admit_ms;
    std::vector<double> p50, spmv, spmm8, spmv_ratio, spmm8_ratio, gflops,
        resident, e2e_all;
    std::vector<double> plain_p50, traced_p50;
    std::size_t b1_calls = 0, b8_calls = 0;
    int invalid_phases = 0;
    // Time windows of the traced epochs whose phase was invalid.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> excluded;
    PhaseResult traced_pool;
    ServeLayerFigures f;
    double traced_requests = 0.0, traced_batches = 0.0;

    std::vector<Target> initial;
    std::vector<const Input*> initial_inputs;
    double initial_nnz = 0.0;
    for (std::size_t i = 0; i < spec.residents; ++i) {
        initial.push_back(Target{resident_name(i), i});
        initial_inputs.push_back(&spec.pool[i]);
        initial_nnz += static_cast<double>(spec.pool[i].nnz());
    }
    const double epoch_s = args.seconds / spec.epochs;

    for (int epoch = 0; epoch < spec.epochs; ++epoch) {
        // Fresh daemons per epoch, each set-up timed; the last one serves
        // the epoch. Pollers run while requests are served and are off
        // during the single-threaded library measurement.
        std::optional<IdlePollers> pollers;
        pollers.emplace();
        for (int rep = 0; rep < spec.setup_reps; ++rep) {
            serving.reset();
            serving = start_serving(spec, args, epoch * spec.setup_reps + rep,
                                    setup_s, setup_admit_ms, report);
        }
        serve::Server& server = *serving->server;

        if (!args.trace) {
            // Library figures on the initial residents as the registry
            // holds them, before any write replaces them: the same matrix
            // set on every run, however many admissions the phase fits.
            pollers.reset();
            std::vector<std::shared_ptr<const serpens::core::PreparedMatrix>>
                prepared;
            for (const Target& t : initial)
                prepared.push_back(server.registry().get(t.name));
            resident.push_back(
                static_cast<double>(server.registry().bytes_resident()) /
                initial_nnz);
            const LibraryFigures lib = measure_library(
                initial_inputs, prepared, spec.config, 0.2 * epoch_s, report);
            spmv.push_back(lib.spmv_nnz_per_s);
            spmm8.push_back(lib.spmm8_nnz_per_s);
            spmv_ratio.push_back(lib.spmv_vs_ref);
            spmm8_ratio.push_back(lib.spmm8_vs_ref);
            gflops.push_back(lib.device_gflops);
            b1_calls += lib.b1_calls;
            b8_calls += lib.b8_calls;
            pollers.emplace();
        }

        LiveSet live(initial);
        const LoadTarget target{serving->daemon->port(), spec.readers,
                                &spec.pool, &live};

        // With --trace 1, odd epochs run traced and even ones plain.
        const bool traced = args.trace && epoch % 2 == 1;
        const serve::ServerStats s0 = server.stats();
        const serve::RegistryStats g0 = server.registry().stats();
        std::optional<TraceInstall> install;
        if (traced)
            install.emplace(rec.get());
        const std::uint64_t epoch_start = now_ns();
        PhaseResult fixed;
        std::vector<double> admissions;
        {
            std::optional<Writer> writer;
            if (spec.write_period_s > 0.0)
                writer.emplace(target, spec.write_period_s, spec.residents,
                               report);
            Plan plan;
            plan.rate_rps = spec.ref_rate_rps;
            plan.churn_share = spec.churn_share;
            plan.seconds = 0.25;
            plan.seed = mix(args.seed, 100 + epoch);
            run_phase(target, plan, report);  // warm-up, not reported

            plan.seconds = 0.75 * epoch_s;
            plan.seed = mix(args.seed, 200 + epoch);
            fixed = run_phase(target, plan, report);

            if (writer)
                admissions = writer->stop();
        }
        server.drain();
        install.reset();
        const std::uint64_t epoch_end = now_ns();
        pollers.reset();

        if (!fixed.backlog_ok) {
            std::fprintf(stderr,
                         "perfbench: epoch %d: fixed-rate phase invalid "
                         "(backlog grew); left out\n",
                         epoch);
            ++invalid_phases;
            if (traced)
                excluded.emplace_back(epoch_start, epoch_end);
            continue;
        }
        write_admit_ms.insert(write_admit_ms.end(), admissions.begin(),
                              admissions.end());
        const auto e2e = fixed.field(&Sample::e2e_ms);
        p50.push_back(quantile(e2e, 0.5));
        e2e_all.insert(e2e_all.end(), e2e.begin(), e2e.end());
        if (traced) {
            traced_p50.push_back(p50.back());
            traced_pool.samples.insert(traced_pool.samples.end(),
                                       fixed.samples.begin(), fixed.samples.end());
            traced_pool.connect_ms.insert(traced_pool.connect_ms.end(),
                                          fixed.connect_ms.begin(),
                                          fixed.connect_ms.end());
            traced_pool.attempted += fixed.attempted;
            traced_pool.failed += fixed.failed;
            const serve::ServerStats s1 = server.stats();
            const serve::RegistryStats g1 = server.registry().stats();
            traced_requests += static_cast<double>(s1.requests - s0.requests);
            traced_batches += static_cast<double>(s1.batches - s0.batches);
            f.registry_admissions +=
                static_cast<double>(g1.admissions - g0.admissions);
            f.registry_evictions +=
                static_cast<double>(g1.evictions - g0.evictions);
            f.shed += static_cast<double>(s1.shed - s0.shed);
            f.rejected += static_cast<double>(s1.rejected - s0.rejected);
        } else {
            plain_p50.push_back(p50.back());
        }
    }

    check_phases(spec.epochs, invalid_phases, args.trace, plain_p50.size(),
                 traced_p50.size(), report);
    if (!args.trace) {
        // With a writer, admission latency is the wire admissions made
        // under read load; otherwise the set-up admissions.
        const std::vector<double>& admit_ms =
            spec.write_period_s > 0.0 ? write_admit_ms : setup_admit_ms;
        report.metric("setup_s", median(setup_s), "s", setup_s.size());
        report.metric("spmv_vs_ref", median(spmv_ratio), "x", b1_calls);
        report.metric("spmm8_vs_ref", median(spmm8_ratio), "x", b8_calls);
        report.metric("device_gflops", median(gflops), "GFLOP/s",
                      spec.residents);
        report.metric("resident_bytes_per_nnz", median(resident), "B/nnz");
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        report.diagnostic("e2e_p50_ms", median(p50), "ms", e2e_all.size());
        report.diagnostic("spmv_nnz_per_s", median(spmv), "nnz/s", b1_calls);
        report.diagnostic("spmm8_nnz_per_s", median(spmm8), "nnz/s", b8_calls);
        report.diagnostic("admit_p50_ms", median(admit_ms), "ms",
                          admit_ms.size());
        if (tail_supported(e2e_all.size()))
            report.diagnostic("e2e_p99_ms", quantile(e2e_all, 0.99), "ms",
                              e2e_all.size());
        report.diagnostic("failed_ratio",
                          static_cast<double>(report.failed()) /
                              static_cast<double>(report.attempted()),
                          "ratio", report.attempted());
        report.diagnostic("invalid_phases", invalid_phases, "count",
                          spec.epochs);
        report.note("ref_rate_rps", std::to_string(spec.ref_rate_rps));
        return;
    }

    // Traced run: per-layer figures from the traced epochs' reads, plus
    // idle-connection probes and the layer probes on the last daemon.
    fill_request_figures(traced_pool, f);
    f.mean_batch_width =
        traced_batches > 0.0 ? traced_requests / traced_batches : 0.0;
    f.invalid_phases = invalid_phases;
    report.metric("obs.trace_overhead_pct",
                  100.0 * (median(traced_p50) / median(plain_p50) - 1.0), "%",
                  traced_pool.samples.size());
    net::Daemon& daemon = *serving->daemon;
    {
        const TraceInstall install(rec.get());
        std::optional<IdlePollers> pollers;
        pollers.emplace();
        std::vector<double> connects = traced_pool.connect_ms;
        std::vector<double> pings;
        {
            net::Client client(kHost, daemon.port(), kTimeoutMs);
            for (int i = 0; i < 500; ++i) {
                const std::uint64_t id = new_trace_id();
                const std::uint64_t t0 = now_ns();
                {
                    LayerSpan sp("net.ping", "net", id);
                    client.ping();
                }
                pings.push_back(ms_between(t0, now_ns()));
                record_span("gen.probe", "gen", id, t0, now_ns());
            }
            for (int i = 0; connects.size() < 100 && i < 100; ++i) {
                const std::uint64_t id = new_trace_id();
                const std::uint64_t t0 = now_ns();
                {
                    LayerSpan sp("net.connect", "net", id);
                    net::Client c(kHost, daemon.port(), kTimeoutMs);
                }
                connects.push_back(ms_between(t0, now_ns()));
                record_span("gen.probe", "gen", id, t0, now_ns());
            }
        }
        f.ping_rtt_p50_ms = median(pings);
        f.pings = pings.size();
        f.connect_p50_ms = median(connects);
        f.connects = connects.size();
        pollers.reset();
        probe_layers(initial_inputs, spec.config,
                     std::min(2.0, args.seconds / 4), report);
    }

    const auto kept = [&](const serpens::obs::Span& sp) {
        for (const auto& [lo, hi] : excluded)
            if (sp.start_ns >= lo && sp.start_ns <= hi)
                return false;
        return true;
    };
    std::vector<double> wal;
    for (const serpens::obs::Span& sp : rec->snapshot())
        if (std::string_view(sp.name) == "store.wal_append" && kept(sp))
            wal.push_back(static_cast<double>(sp.dur_ns) / 1e6);
    f.wal_append_p50_ms = median(wal);
    f.wal_appends = wal.size();
    f.open_connections = settled_open_connections(daemon);
    f.daemon_threads = proc_status_field("Threads");
    f.vmsize_mib = proc_status_field("VmSize") / 1024.0;
    report_self_times(*rec, kept, report);
    report_serve_layers(f, report);
}

// Closed-loop capacity of the workload's configuration: one daemon, its
// writer (if any), every reader sending back to back for `seconds`.
void measure_capacity(const ServeSpec& spec, const Args& args, Report& report)
{
    std::vector<double> setup_s, admit_ms;
    const std::unique_ptr<Serving> serving =
        start_serving(spec, args, 0, setup_s, admit_ms, report);
    std::vector<Target> initial;
    for (std::size_t i = 0; i < spec.residents; ++i)
        initial.push_back(Target{resident_name(i), i});
    LiveSet live(initial);
    const LoadTarget target{serving->daemon->port(), spec.readers, &spec.pool,
                            &live};
    const IdlePollers pollers;
    std::optional<Writer> writer;
    if (spec.write_period_s > 0.0)
        writer.emplace(target, spec.write_period_s, spec.residents, report);
    Plan plan;
    plan.closed_loop = true;
    plan.rate_rps = 50'000.0;  // cap on the reads drawn
    plan.churn_share = spec.churn_share;
    plan.seconds = 0.5;
    plan.seed = mix(args.seed, 400);
    run_phase(target, plan, report);  // warm-up, not reported

    const serve::ServerStats s0 = serving->server->stats();
    plan.seconds = args.seconds;
    plan.seed = mix(args.seed, 401);
    const PhaseResult p = run_phase(target, plan, report);
    const serve::ServerStats s1 = serving->server->stats();
    if (writer)
        writer->stop();
    const auto e2e = p.field(&Sample::e2e_ms);
    report.metric("capacity_rps",
                  static_cast<double>(p.samples.size()) / args.seconds, "req/s",
                  p.samples.size());
    report.metric("e2e_p50_ms", quantile(e2e, 0.5), "ms", e2e.size());
    report.metric("serve.mean_batch_width",
                  static_cast<double>(s1.requests - s0.requests) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, s1.batches - s0.batches)),
                  "requests", p.samples.size());
}

void run_workload(const ServeSpec& spec, const Args& args, Report& report)
{
    if (args.capacity)
        measure_capacity(spec, args, report);
    else
        run_serving(spec, args, report);
}

} // namespace

void run_serve_small_tcp(const Args& args, Report& report)
{
    ServeSpec spec;
    spec.config = serpens::core::SerpensConfig::a16();
    spec.config.serve_threads = 0;  // serpens_served default
    spec.config.max_batch = 8;
    spec.pool.push_back(make_input(Family::kUniform, 2048, 20'000,
                                   mix(args.seed, 11), 8, spec.config));
    spec.pool.push_back(make_input(Family::kRmat, 2048, 20'000,
                                   mix(args.seed, 12), 8, spec.config));
    spec.residents = 2;
    spec.readers = 4;
    spec.epochs = 8;
    spec.setup_reps = 5;
    spec.ref_rate_rps = 6500.0;  // capacity: 12.9k-21.8k req/s
    run_workload(spec, args, report);
}

void run_serve_churn(const Args& args, Report& report)
{
    ServeSpec spec;
    spec.config = serpens::core::SerpensConfig::a16();
    spec.config.serve_threads = 0;
    spec.config.max_batch = 8;
    spec.config.slo_queue_ms = 5.0;
    // Four initial residents plus four more the writer cycles through.
    for (std::uint64_t i = 0; i < 8; ++i) {
        const bool rmat = i % 2 == 1;
        spec.pool.push_back(make_input(
            rmat ? Family::kRmat : Family::kUniform, rmat ? 16384 : 15625,
            250'000, mix(args.seed, 20 + i), 8, spec.config));
    }
    spec.residents = 4;
    spec.readers = 3;
    spec.durable = true;
    spec.epochs = 6;
    spec.setup_reps = 2;
    spec.ref_rate_rps = 900.0;  // capacity: 1.83k-3.89k req/s
    spec.churn_share = 0.1;
    spec.write_period_s = 0.5;
    run_workload(spec, args, report);
}

} // namespace perfbench
