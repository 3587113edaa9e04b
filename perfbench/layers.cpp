// Inputs, the packed-walk oracle, per-layer probes and the library
// throughput measurement shared by every workload.
#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <span>
#include <sstream>

#include "bench.h"
#include "core/accelerator.h"
#include "encode/serialize.h"
#include "sim/decoded_image.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"
#include "util/rng.h"

namespace perfbench {

using serpens::core::Accelerator;
using serpens::core::PreparedMatrix;
using serpens::core::SerpensConfig;
namespace sparse = serpens::sparse;
namespace sim = serpens::sim;
namespace encode = serpens::encode;

namespace {

const char* family_name(Family family)
{
    switch (family) {
    case Family::kUniform:
        return "uniform";
    case Family::kRmat:
        return "rmat";
    case Family::kBanded:
        return "banded";
    }
    return "?";
}

sparse::CooMatrix generate(Family family, sparse::index_t n, nnz_t nnz,
                           std::uint64_t seed)
{
    switch (family) {
    case Family::kUniform:
        return sparse::make_uniform_random(n, n, nnz, seed);
    case Family::kRmat: {
        unsigned scale = 0;
        while ((sparse::index_t{1} << scale) < n)
            ++scale;
        const double ef = std::round(static_cast<double>(nnz) / n);
        return sparse::make_rmat(scale, std::max<nnz_t>(1, static_cast<nnz_t>(ef)),
                                 seed);
    }
    case Family::kBanded:
        return sparse::make_banded(
            n, static_cast<sparse::index_t>(std::max<nnz_t>(1, nnz / n)), seed);
    }
    return {};
}

// Options the Accelerator derives from its config for its simulator runs
// (the oracle must use the same ones for CycleStats to agree).
sim::SimOptions sim_options_of(const SerpensConfig& c)
{
    sim::SimOptions options;
    options.fill_per_segment = c.fill_per_segment;
    options.fill_y_phase = c.fill_y_phase;
    options.double_buffer_x = c.double_buffer_x;
    options.threads = c.sim_threads;
    options.batch_columns = c.batch_columns;
    return options;
}

} // namespace

RefSpmv::RefSpmv(const sparse::CooMatrix& m)
{
    row.reserve(m.nnz());
    col.reserve(m.nnz());
    val.reserve(m.nnz());
    for (const sparse::Triplet& t : m.elements()) {
        row.push_back(t.row);
        col.push_back(t.col);
        val.push_back(t.val);
    }
}

void RefSpmv::spmv(const std::vector<float>& x, const std::vector<float>& y_in,
                   std::vector<float>& y) const
{
    y.assign(y_in.size(), 0.0f);
    for (std::size_t j = 0; j < val.size(); ++j)
        y[row[j]] += val[j] * x[col[j]];
    for (std::size_t r = 0; r < y.size(); ++r)
        y[r] = kAlpha * y[r] + kBeta * y_in[r];
}

Input make_input(Family family, sparse::index_t n, nnz_t nnz,
                 std::uint64_t seed, unsigned vectors,
                 const SerpensConfig& config)
{
    Input in;
    in.kind = family_name(family);
    in.coo = generate(family, n, nnz, seed);
    std::ostringstream mtx;
    sparse::write_matrix_market(mtx, in.coo);
    in.mtx = std::move(mtx).str();

    serpens::Rng rng(seed ^ 0x5eed0f7e57ULL);
    for (unsigned k = 0; k < vectors; ++k) {
        std::vector<float> x(in.coo.cols()), y(in.coo.rows());
        for (float& v : x)
            v = rng.next_float(-1.0f, 1.0f);
        for (float& v : y)
            v = rng.next_float(-1.0f, 1.0f);
        in.xs.push_back(std::move(x));
        in.ys.push_back(std::move(y));
    }

    // The oracle: an independent encode and the packed reference walk, on
    // one thread. Worker threads here would leave malloc arenas behind
    // whose size varies from run to run and would show in peak_rss_mib.
    encode::EncodeOptions eo;
    eo.threads = 1;
    const encode::SerpensImage img =
        encode::encode_matrix(in.coo, config.arch, eo);
    sim::SimOptions so = sim_options_of(config);
    so.threads = 1;
    for (unsigned k = 0; k < vectors; ++k)
        in.oracle.push_back(
            sim::simulate_spmv(img, in.xs[k], in.ys[k], kAlpha, kBeta, so));
    in.ref = std::make_unique<RefSpmv>(in.coo);
    return in;
}

bool same_result(const sim::SimResult& oracle, const std::vector<float>& y,
                 const sim::CycleStats& c)
{
    const sim::CycleStats& o = oracle.cycles;
    if (o.x_load_cycles != c.x_load_cycles ||
        o.compute_cycles != c.compute_cycles ||
        o.y_phase_cycles != c.y_phase_cycles ||
        o.fill_cycles != c.fill_cycles || o.total_slots != c.total_slots ||
        o.padding_slots != c.padding_slots || y.size() != oracle.y.size())
        return false;
    // Bitwise: -0.0 vs +0.0 and NaN payloads count as differences.
    return std::equal(y.begin(), y.end(), oracle.y.begin(),
                      [](float a, float b) {
                          return std::bit_cast<std::uint32_t>(a) ==
                                 std::bit_cast<std::uint32_t>(b);
                      });
}

namespace {

// Median of per-matrix medians, aggregated work-weighted: sum of median
// call times over sum of work.
double ns_per_unit(const std::vector<std::vector<double>>& ns,
                   const std::vector<double>& work)
{
    double t = 0.0, w = 0.0;
    for (std::size_t m = 0; m < ns.size(); ++m) {
        t += median(ns[m]);
        w += work[m];
    }
    return w > 0.0 ? t / w : 0.0;
}

std::size_t total(const std::vector<std::vector<double>>& v)
{
    std::size_t n = 0;
    for (const auto& s : v)
        n += s.size();
    return n;
}

template <typename F>
double time_ns(F&& f)
{
    const std::uint64_t t0 = now_ns();
    f();
    return static_cast<double>(now_ns() - t0);
}

} // namespace

void probe_layers(const std::vector<const Input*>& set,
                  const SerpensConfig& config, double seconds, Report& report)
{
    const Accelerator acc(config);
    const sim::SimOptions so = sim_options_of(config);
    const std::size_t n = set.size();
    constexpr unsigned kReps = 2;  // one-time stages: median of two
    constexpr std::size_t kB = 8;

    std::vector<double> nnz(n);
    std::vector<std::vector<double>> parse(n), enc(n), save(n), dec(n);
    std::vector<PreparedMatrix> prepared;
    double padding = 0.0, slots = 0.0, balance = 0.0, image_bytes = 0.0,
           cache_bytes = 0.0, traffic = 0.0;

    for (std::size_t m = 0; m < n; ++m) {
        const Input& in = *set[m];
        nnz[m] = static_cast<double>(in.nnz());
        std::optional<encode::SerpensImage> img;
        for (unsigned r = 0; r < kReps; ++r) {
            const std::uint64_t id = new_trace_id();
            const std::uint64_t t0 = now_ns();
            sparse::CooMatrix coo;
            parse[m].push_back(time_ns([&] {
                LayerSpan s("sparse.parse", "sparse", id);
                coo = sparse::read_matrix_market_fast(in.mtx);
            }));
            if (coo.elements() != in.coo.elements())
                report.mismatch("parsed triplets differ from the generated " +
                                in.kind + " matrix");
            encode::EncodeOptions eo;
            eo.threads = config.encode_threads;
            enc[m].push_back(time_ns([&] {
                LayerSpan s("encode.encode", "encode", id);
                img.emplace(encode::encode_matrix(coo, config.arch, eo));
            }));
            save[m].push_back(time_ns([&] {
                LayerSpan s("encode.image_save", "encode", id);
                std::ostringstream out;
                encode::save_image(out, *img);
            }));
            std::optional<sim::DecodedImage> d;
            dec[m].push_back(time_ns([&] {
                LayerSpan s("sim.decode", "sim", id);
                d.emplace(sim::DecodedImage::decode(*img));
            }));
            record_span("gen.probe", "gen", id, t0, now_ns());
            cache_bytes += r == 0 ? static_cast<double>(d->memory_bytes()) : 0.0;
        }
        const encode::EncodeStats& st = img->stats();
        padding += static_cast<double>(st.padding_slots);
        slots += static_cast<double>(st.total_slots);
        image_bytes += static_cast<double>(img->memory_bytes());
        // Channel balance: mean over max of the A channels' line counts.
        double sum = 0.0, mx = 0.0;
        for (unsigned c = 0; c < img->channels(); ++c) {
            const double lines = static_cast<double>(img->channel(c).size());
            sum += lines;
            mx = std::max(mx, lines);
        }
        balance += mx > 0.0 ? sum / img->channels() / mx : 0.0;
        traffic += static_cast<double>(in.oracle[0].cycles.traffic.total());
        prepared.push_back(PreparedMatrix::from_image(std::move(*img)));
        prepared.back().warm_decode();
    }

    // Timed walks, interleaved per matrix so every engine sees the same
    // machine conditions; every result is checked against the oracle.
    std::vector<std::vector<double>> packed(n), decoded(n), batch(n), run(n),
        run_batch(n);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t round = 0; round < 3 || now_ns() < deadline; ++round) {
        for (std::size_t m = 0; m < n; ++m) {
            const Input& in = *set[m];
            const std::size_t k = round % in.xs.size();
            const auto check = [&](std::size_t kk, const std::vector<float>& y,
                                   const sim::CycleStats& c) {
                const bool ok = same_result(in.oracle[kk], y, c);
                report.attempt(ok);
                if (!ok)
                    report.mismatch(in.kind + " probe result");
            };
            const std::uint64_t id = new_trace_id();
            const std::uint64_t t0 = now_ns();
            sim::SimResult r;
            packed[m].push_back(time_ns([&] {
                LayerSpan s("sim.packed", "sim", id);
                r = sim::simulate_spmv(prepared[m].image(), in.xs[k], in.ys[k], kAlpha,
                                       kBeta, so);
            }));
            check(k, r.y, r.cycles);
            const sim::DecodedImage& d = prepared[m].decoded();
            decoded[m].push_back(time_ns([&] {
                LayerSpan s("sim.decoded", "sim", id);
                r = sim::simulate_spmv_decoded(d, in.xs[k], in.ys[k], kAlpha,
                                               kBeta, so);
            }));
            check(k, r.y, r.cycles);
            const std::span<const std::vector<float>> xs(in.xs.data(), kB);
            const std::span<const std::vector<float>> ys(in.ys.data(), kB);
            sim::SimBatchResult br;
            batch[m].push_back(time_ns([&] {
                LayerSpan s("sim.batch8", "sim", id);
                br = sim::simulate_spmv_batch(d, xs, ys, kAlpha, kBeta, so);
            }));
            for (std::size_t b = 0; b < kB; ++b)
                check(b, br.y[b], br.cycles);
            serpens::core::RunResult rr;
            run[m].push_back(time_ns([&] {
                LayerSpan s("core.run", "core", id);
                rr = acc.run(prepared[m], in.xs[k], in.ys[k], kAlpha, kBeta);
            }));
            check(k, rr.y, rr.cycles);
            serpens::core::BatchRunResult brr;
            run_batch[m].push_back(time_ns([&] {
                LayerSpan s("core.run_batch", "core", id);
                brr = acc.run_batch(prepared[m], xs, ys, kAlpha, kBeta);
            }));
            for (std::size_t b = 0; b < kB; ++b)
                check(b, brr[b].y, brr[b].cycles);
            record_span("gen.probe", "gen", id, t0, now_ns());
        }
    }

    double total_nnz = 0.0;
    std::vector<double> nnz8(n);
    for (std::size_t m = 0; m < n; ++m) {
        total_nnz += nnz[m];
        nnz8[m] = nnz[m] * kB;
    }
    const double decoded_ns = ns_per_unit(decoded, nnz);
    const double batch_ns = ns_per_unit(batch, nnz8);
    report.metric("sparse.parse_ns_per_nnz", ns_per_unit(parse, nnz), "ns/nnz",
                  total(parse));
    report.metric("encode.encode_ns_per_nnz", ns_per_unit(enc, nnz), "ns/nnz",
                  total(enc));
    report.metric("encode.image_save_ns_per_nnz", ns_per_unit(save, nnz),
                  "ns/nnz", total(save));
    report.metric("sim.decode_ns_per_nnz", ns_per_unit(dec, nnz), "ns/nnz",
                  total(dec));
    report.metric("sim.packed_ns_per_nnz", ns_per_unit(packed, nnz), "ns/nnz",
                  total(packed));
    report.metric("sim.decoded_ns_per_nnz", decoded_ns, "ns/nnz",
                  total(decoded));
    report.metric("sim.batch8_ns_per_nnz", batch_ns, "ns/nnz",
                  total(batch));
    report.metric("core.run_overhead_ns_per_nnz",
                  ns_per_unit(run, nnz) - decoded_ns, "ns/nnz", total(run));
    report.metric("core.run_batch_overhead_ns_per_nnz",
                  ns_per_unit(run_batch, nnz8) - batch_ns, "ns/nnz",
                  total(run_batch));
    report.metric("sim.computed_bytes_per_nnz", traffic / total_nnz, "B/nnz");
    report.metric("sim.computed_gbps",
                  decoded_ns > 0.0 ? traffic / (decoded_ns * total_nnz) : 0.0,
                  "GB/s", total(decoded));
    report.metric("encode.padding_ratio", slots > 0.0 ? padding / slots : 0.0,
                  "ratio");
    report.metric("hbm.channel_balance", balance / static_cast<double>(n),
                  "ratio");
    report.metric("encode.image_bytes_per_nnz", image_bytes / total_nnz,
                  "B/nnz");
    report.metric("core.decode_cache_bytes_per_nnz", cache_bytes / total_nnz,
                  "B/nnz");
}

LibraryFigures measure_library(
    const std::vector<const Input*>& set,
    const std::vector<std::shared_ptr<const PreparedMatrix>>& prepared,
    const SerpensConfig& config, double seconds, Report& report)
{
    const Accelerator acc(config);
    const std::size_t n = set.size();
    constexpr std::size_t kB = 8;
    std::vector<std::vector<double>> b1(n), b8(n), ref1(n), ref8(n);
    std::vector<float> ref_y;
    LibraryFigures f;
    std::vector<double> gflops(n, 0.0);

    // Alternate B=1 and B=8 phases so slow drift on the host hits both.
    constexpr int kChunks = 4;
    const double chunk_ns = seconds * 1e9 / (2.0 * kChunks);
    std::size_t call = 0;
    for (int chunk = 0; chunk < 2 * kChunks; ++chunk) {
        const bool batched = chunk % 2 == 1;
        const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(chunk_ns);
        while (now_ns() < end) {
            for (std::size_t m = 0; m < n; ++m, ++call) {
                const Input& in = *set[m];
                const std::size_t kr = call % in.xs.size();
                const std::uint64_t r0 = now_ns();
                in.ref->spmv(in.xs[kr], in.ys[kr], ref_y);
                (batched ? ref8 : ref1)[m].push_back(
                    static_cast<double>(now_ns() - r0));
                const std::uint64_t id = new_trace_id();
                const std::uint64_t t0 = now_ns();
                if (!batched) {
                    const std::size_t k = call % in.xs.size();
                    serpens::core::RunResult r;
                    {
                        LayerSpan s("core.run", "core", id);
                        r = acc.run(*prepared[m], in.xs[k], in.ys[k], kAlpha,
                                    kBeta);
                    }
                    b1[m].push_back(static_cast<double>(now_ns() - t0));
                    gflops[m] = r.metrics.gflops;
                    const bool ok = same_result(in.oracle[k], r.y, r.cycles);
                    report.attempt(ok);
                    if (!ok)
                        report.mismatch(in.kind + " run()");
                    record_span("gen.op", "gen", id, t0, now_ns());
                } else {
                    const std::span<const std::vector<float>> xs(in.xs.data(), kB);
                    const std::span<const std::vector<float>> ys(in.ys.data(), kB);
                    serpens::core::BatchRunResult r;
                    {
                        LayerSpan s("core.run_batch", "core", id);
                        r = acc.run_batch(*prepared[m], xs, ys, kAlpha, kBeta);
                    }
                    b8[m].push_back(static_cast<double>(now_ns() - t0));
                    for (std::size_t b = 0; b < kB; ++b) {
                        const bool ok =
                            same_result(in.oracle[b], r[b].y, r[b].cycles);
                        report.attempt(ok);
                        if (!ok)
                            report.mismatch(in.kind + " run_batch()");
                    }
                    record_span("gen.op", "gen", id, t0, now_ns());
                }
            }
        }
    }

    double nnz = 0.0, t1 = 0.0, t8 = 0.0, c1 = 0.0, c8 = 0.0, log_gflops = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
        nnz += static_cast<double>(set[m]->nnz());
        t1 += median(b1[m]);
        t8 += median(b8[m]);
        c1 += median(ref1[m]);
        c8 += median(ref8[m]);
        log_gflops += std::log(gflops[m]);
    }
    f.spmv_nnz_per_s = nnz / (t1 * 1e-9);
    f.spmm8_nnz_per_s = kB * nnz / (t8 * 1e-9);
    f.spmv_vs_ref = c1 / t1;
    f.spmm8_vs_ref = kB * c8 / t8;
    f.device_gflops = std::exp(log_gflops / static_cast<double>(n));
    f.b1_calls = total(b1);
    f.b8_calls = total(b8);
    return f;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag)
{
    return serpens::SplitMix64(seed ^ (tag * 0x9e3779b97f4a7c15ULL)).next();
}

void report_serve_layers(const ServeLayerFigures& f, Report& report)
{
    const std::size_t n = f.requests;
    report.metric("serve.queue_p50_ms", f.queue_p50_ms, "ms", n);
    report.metric("serve.queue_p99_ms", f.queue_p99_ms, "ms", n);
    report.metric("serve.service_p50_ms", f.service_p50_ms, "ms", n);
    report.metric("serve.service_p99_ms", f.service_p99_ms, "ms", n);
    report.metric("serve.mean_batch_width", f.mean_batch_width, "requests", n);
    report.metric("serve.wal_append_p50_ms", f.wal_append_p50_ms, "ms",
                  f.wal_appends);
    report.metric("serve.registry_admissions", f.registry_admissions, "count");
    report.metric("serve.registry_evictions", f.registry_evictions, "count");
    report.metric("serve.shed", f.shed, "count");
    report.metric("serve.rejected", f.rejected, "count");
    report.metric("net.ping_rtt_p50_ms", f.ping_rtt_p50_ms, "ms", f.pings);
    report.metric("net.unattributed_p50_ms", f.unattributed_p50_ms, "ms", n);
    report.metric("net.unattributed_p99_ms", f.unattributed_p99_ms, "ms", n);
    report.metric("net.connect_p50_ms", f.connect_p50_ms, "ms", f.connects);
    report.metric("net.daemon_threads", f.daemon_threads, "count");
    report.metric("net.vmsize_mib", f.vmsize_mib, "MiB");
    report.metric("net.open_connections", f.open_connections, "count");
    report.metric("gen.attempted", f.gen_attempted, "count");
    report.metric("gen.failed", f.gen_failed, "count");
    report.metric("gen.lag_p99_ms", f.gen_lag_p99_ms, "ms", n);
    report.metric("gen.invalid_phases", f.invalid_phases, "count");
}

} // namespace perfbench
