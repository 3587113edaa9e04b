// serpens_cli — command-line driver for the Serpens toolchain.
//
//   serpens_cli info [--a24]
//       print the configuration, bandwidth, capacity, and resource model
//   serpens_cli encode --mtx FILE --out IMG [--a24]
//       preprocess a Matrix Market file into an accelerator image
//   serpens_cli run (--mtx FILE | --img IMG | --gen KIND,N,NNZ) [--a24]
//                   [--alpha A] [--beta B] [--iters N]
//       run SpMV on the simulated accelerator and report cycles + metrics
//
// Generator kinds for --gen: uniform, rmat, banded, clustered.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/cpu_spmv.h"
#include "core/accelerator.h"
#include "core/analytic.h"
#include "core/resource_model.h"
#include "encode/serialize.h"
#include "serve/server.h"
#include "sparse/convert.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace {

using namespace serpens;

struct CliArgs {
    std::string command;
    std::string mtx_path;
    std::string img_path;
    std::string out_path;
    std::string save_image_path;
    std::string gen_spec;
    bool a24 = false;
    float alpha = 1.0f;
    float beta = 0.0f;
    int iters = 1;
    unsigned batch = 0;  // 0 = unset: run treats it as 1, serve-bench
                         // keeps the config default max_batch
    unsigned threads = 1;
    unsigned parse_threads = 0;  // fast parser: one worker per core
    unsigned sim_threads = 1;
    unsigned clients = 4;        // serve-bench client threads
    unsigned requests = 8;       // serve-bench requests per client
    unsigned serve_threads = 1;
};

core::SerpensConfig make_config(const CliArgs& args)
{
    auto cfg = args.a24 ? core::SerpensConfig::a24()
                        : core::SerpensConfig::a16();
    cfg.encode_threads = args.threads;
    cfg.sim_threads = args.sim_threads;
    cfg.serve_threads = args.serve_threads;
    if (args.batch != 0)
        cfg.max_batch = args.batch;  // --batch 1 disables coalescing
    return cfg;
}

sparse::CooMatrix load_mtx(const CliArgs& args)
{
    sparse::ParseOptions opt;
    opt.threads = args.parse_threads;
    return sparse::read_matrix_market_fast_file(args.mtx_path, opt);
}

CliArgs parse(int argc, char** argv)
{
    CliArgs args;
    if (argc >= 2)
        args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s requires a value\n",
                             flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--mtx")
            args.mtx_path = next();
        else if (flag == "--img" || flag == "--load-image")
            args.img_path = next();
        else if (flag == "--out")
            args.out_path = next();
        else if (flag == "--save-image")
            args.save_image_path = next();
        else if (flag == "--gen")
            args.gen_spec = next();
        else if (flag == "--a24")
            args.a24 = true;
        else if (flag == "--alpha")
            args.alpha = std::stof(next());
        else if (flag == "--beta")
            args.beta = std::stof(next());
        else if (flag == "--iters")
            args.iters = std::stoi(next());
        else if (flag == "--batch")
            args.batch = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--threads")
            args.threads = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--parse-threads")
            args.parse_threads = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--sim-threads")
            args.sim_threads = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--clients")
            args.clients = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--requests")
            args.requests = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--serve-threads")
            args.serve_threads = static_cast<unsigned>(std::stoul(next()));
        else if (flag == "--help" || flag == "-h")
            args.command = "help";
        else {
            std::fprintf(stderr, "error: unknown flag: %s\n", flag.c_str());
            std::exit(2);
        }
    }
    return args;
}

sparse::CooMatrix generate(const std::string& spec)
{
    // KIND,N,NNZ
    const auto c1 = spec.find(',');
    const auto c2 = spec.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
        throw std::invalid_argument("--gen expects KIND,N,NNZ");
    const std::string kind = spec.substr(0, c1);
    const auto n = static_cast<sparse::index_t>(std::stoul(spec.substr(c1 + 1)));
    const auto nnz = static_cast<sparse::nnz_t>(std::stoull(spec.substr(c2 + 1)));
    if (kind == "uniform")
        return sparse::make_uniform_random(n, n, nnz, 1);
    if (kind == "rmat") {
        unsigned scale = 1;
        while ((sparse::index_t{1} << scale) < n)
            ++scale;
        return sparse::make_rmat(scale, std::max<sparse::nnz_t>(1, nnz >> scale), 1);
    }
    if (kind == "banded")
        return sparse::make_banded(n, std::max<sparse::index_t>(1, nnz / n), 1);
    if (kind == "clustered")
        return sparse::make_clustered(n, nnz, 8, 64, 0.3, 1);
    throw std::invalid_argument("unknown generator kind: " + kind);
}

int cmd_info(const CliArgs& args)
{
    const auto cfg = make_config(args);
    std::printf("Serpens-%s\n", args.a24 ? "A24" : "A16");
    std::printf("  HBM channels: %u sparse + %u vector = %u total\n",
                cfg.arch.ha_channels, cfg.vector_channels,
                cfg.total_hbm_channels());
    std::printf("  bandwidth:    %.0f GB/s utilized\n",
                cfg.utilized_bandwidth_gbps());
    std::printf("  frequency:    %.0f MHz, power %.0f W\n", cfg.frequency_mhz,
                cfg.power_w);
    std::printf("  PEs:          %u (8 per channel)\n", cfg.arch.total_pes());
    std::printf("  row capacity: %llu (coalescing %s)\n",
                static_cast<unsigned long long>(cfg.arch.row_capacity()),
                cfg.arch.coalescing ? "on" : "off");
    const auto r = core::estimate_resources(cfg);
    std::printf("  resources:    LUT %lluK (%.0f%%), FF %lluK (%.0f%%), "
                "DSP %llu (%.0f%%), BRAM %llu (%.0f%%), URAM %llu (%.0f%%)\n",
                static_cast<unsigned long long>(r.luts / 1000), r.lut_pct,
                static_cast<unsigned long long>(r.ffs / 1000), r.ff_pct,
                static_cast<unsigned long long>(r.dsps), r.dsp_pct,
                static_cast<unsigned long long>(r.brams), r.bram_pct,
                static_cast<unsigned long long>(r.urams), r.uram_pct);
    return 0;
}

int cmd_encode(const CliArgs& args)
{
    if (args.mtx_path.empty() || args.out_path.empty()) {
        std::fprintf(stderr, "encode requires --mtx FILE and --out IMG\n");
        return 2;
    }
    const auto cfg = make_config(args);
    const auto m = load_mtx(args);
    encode::EncodeOptions encode_options;
    encode_options.threads = cfg.encode_threads;
    const auto img = encode::encode_matrix(m, cfg.arch, encode_options);
    encode::save_image_file(args.out_path, img);
    std::printf("encoded %u x %u, %llu nnz -> %s (%llu lines, padding %.4f)\n",
                m.rows(), m.cols(), static_cast<unsigned long long>(m.nnz()),
                args.out_path.c_str(),
                static_cast<unsigned long long>(img.stats().total_lines),
                img.stats().padding_ratio());
    return 0;
}

int cmd_run(const CliArgs& args)
{
    const auto cfg = make_config(args);
    const core::Accelerator acc(cfg);

    std::unique_ptr<core::PreparedMatrix> prepared;
    sparse::CooMatrix matrix_for_check(1, 1);
    bool have_matrix = false;

    if (!args.img_path.empty()) {
        const auto img = encode::load_image_file(args.img_path);
        SERPENS_CHECK(img.params().ha_channels == cfg.arch.ha_channels,
                      "image was encoded for a different channel count");
        // Decoded once here, like the encode path and the serving
        // registry's admission, so the timed runs below pay no setup.
        prepared = std::make_unique<core::PreparedMatrix>(
            core::PreparedMatrix::from_image(img, cfg.sim_threads));
    } else {
        sparse::CooMatrix m =
            !args.mtx_path.empty()
                ? load_mtx(args)
                : generate(args.gen_spec.empty() ? "uniform,10000,200000"
                                                 : args.gen_spec);
        matrix_for_check = m;
        have_matrix = true;
        prepared = std::make_unique<core::PreparedMatrix>(acc.prepare(m));
    }

    if (!args.save_image_path.empty()) {
        encode::save_image_file(args.save_image_path, prepared->image());
        std::printf("image:   saved to %s (reuse with --load-image)\n",
                    args.save_image_path.c_str());
    }

    const auto rows = prepared->rows();
    const auto cols = prepared->cols();
    const unsigned batch = std::max(1u, args.batch);
    Rng rng(7);
    std::vector<std::vector<float>> xs(batch, std::vector<float>(cols));
    const std::vector<std::vector<float>> ys(batch,
                                             std::vector<float>(rows, 0.0f));
    for (auto& x : xs)
        for (float& v : x)
            v = rng.next_float(-1.0f, 1.0f);

    std::vector<core::RunResult> results;
    sim::BatchCycleStats batch_cycles;
    double device_batch_ms = 0.0;
    double device_amortized_ms = 0.0;
    double total_ms = 0.0;
    const auto run_once = [&] {
        if (batch == 1) {
            results.assign(
                1, acc.run(*prepared, xs[0], ys[0], args.alpha, args.beta));
        } else {
            core::BatchRunResult round =
                acc.run_batch(*prepared, xs, ys, args.alpha, args.beta);
            batch_cycles = round.batch_cycles;
            device_batch_ms = round.batch_time_ms;
            device_amortized_ms = round.amortized_time_ms;
            results = std::move(round.per_vector);
        }
    };
    const auto ms_since = [](std::chrono::steady_clock::time_point start) {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // The first call pays one-time costs (cold caches, first-touch
    // allocations); it is reported on its own line so host: covers only
    // the timed iterations.
    auto host_start = std::chrono::steady_clock::now();
    run_once();
    const double first_ms = ms_since(host_start);
    host_start = std::chrono::steady_clock::now();
    for (int it = 0; it < std::max(1, args.iters); ++it) {
        run_once();
        total_ms += results[0].time_ms;
    }
    const double host_ms = ms_since(host_start);
    const core::RunResult& result = results[0];

    std::printf("matrix:  %u x %u, %llu nnz (padding %.4f)\n", rows, cols,
                static_cast<unsigned long long>(prepared->nnz()),
                prepared->encode_stats().padding_ratio());
    std::printf("memory:  %.2f MiB resident (decoded stream; padded HBM "
                "image %.2f MiB, rebuilt on demand)\n",
                static_cast<double>(prepared->memory_footprint_bytes()) /
                    (1 << 20),
                static_cast<double>(prepared->encode_stats().total_lines *
                                    hbm::kLineBytes) /
                    (1 << 20));
    std::printf("cycles:  %llu total = %llu compute + %llu x-load + "
                "%llu y-phase + %llu fill\n",
                static_cast<unsigned long long>(result.cycles.total_cycles()),
                static_cast<unsigned long long>(result.cycles.compute_cycles),
                static_cast<unsigned long long>(result.cycles.x_load_cycles),
                static_cast<unsigned long long>(result.cycles.y_phase_cycles),
                static_cast<unsigned long long>(result.cycles.fill_cycles));
    std::printf("time:    %.4f ms/run (%d run%s)\n", total_ms / args.iters,
                args.iters, args.iters == 1 ? "" : "s");
    if (batch > 1) {
        // SpMM device mode: one invocation streams A once per
        // batch_columns-wide column block instead of once per vector.
        std::printf("device:  %.4f ms/batch SpMM mode (%u pass%s over the "
                    "A stream), %.4f ms/SpMV amortized\n",
                    device_batch_ms, batch_cycles.passes,
                    batch_cycles.passes == 1 ? "" : "es",
                    device_amortized_ms);
    }
    std::printf("first:   %.3f ms/SpMV (%u vector%s, warm-up call, not in host:)\n",
                first_ms / batch, batch, batch == 1 ? "" : "s");
    std::printf("host:    %.3f ms/SpMV (%u vector%s x %d iteration%s)\n",
                host_ms / (static_cast<double>(batch) *
                           std::max(1, args.iters)),
                batch, batch == 1 ? "" : "s", std::max(1, args.iters),
                args.iters == 1 ? "" : "s");
    std::printf("metrics: %.2f GFLOP/s, %.0f MTEPS, %.1f MTEPS/(GB/s), "
                "%.0f MTEPS/W\n",
                result.metrics.gflops, result.metrics.mteps,
                result.metrics.bw_eff, result.metrics.energy_eff);

    if (have_matrix) {
        const sparse::CsrMatrix csr = sparse::to_csr(matrix_for_check);
        double max_err = 0.0;
        for (unsigned b = 0; b < batch; ++b) {
            std::vector<float> expect(ys[b]);
            baselines::spmv_csr(csr, xs[b], expect, args.alpha, args.beta);
            for (std::size_t i = 0; i < expect.size(); ++i)
                max_err = std::max(max_err,
                                   static_cast<double>(std::abs(
                                       results[b].y[i] - expect[i])));
        }
        std::printf("check:   max |serpens - cpu| = %.3g over %u vector%s %s\n",
                    max_err, batch, batch == 1 ? "" : "s",
                    max_err < 1e-2 ? "(OK)" : "(MISMATCH)");
        return max_err < 1e-2 ? 0 : 1;
    }
    return 0;
}

int cmd_serve_bench(const CliArgs& args)
{
    // Smoke path for the serving layer: admit two matrices into a
    // serve::Server, hammer it from --clients closed-loop threads, then
    // verify every response bit-identical to a direct Accelerator::run on
    // the same inputs (the full differential suite lives in
    // tools/serpens_serve and tests/test_serve_*).
    const auto cfg = make_config(args);
    const sparse::CooMatrix primary = !args.mtx_path.empty()
                                          ? load_mtx(args)
                                          : generate(args.gen_spec.empty()
                                                         ? "uniform,10000,200000"
                                                         : args.gen_spec);
    const sparse::CooMatrix companion = sparse::make_banded(4096, 9, 5);

    serve::Server server(cfg);
    server.registry().admit("primary", primary);
    server.registry().admit("companion", companion);
    std::printf("registry: %zu residents, %.2f MiB\n",
                server.registry().size(),
                static_cast<double>(server.registry().bytes_resident()) /
                    (1 << 20));

    struct Record {
        const sparse::CooMatrix* m;
        const char* name;
        std::uint64_t seed;
        float alpha, beta;
        std::vector<float> y_out;
    };
    const unsigned total = args.clients * args.requests;
    std::vector<Record> records(total);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    std::atomic<bool> failed{false};
    for (unsigned c = 0; c < args.clients; ++c) {
        clients.emplace_back([&, c] {
            try {
                for (unsigned r = 0; r < args.requests; ++r) {
                    Record& rec = records[c * args.requests + r];
                    rec.seed = 101 + c * args.requests + r;
                    const bool use_primary = rec.seed % 3 != 0;
                    rec.m = use_primary ? &primary : &companion;
                    rec.name = use_primary ? "primary" : "companion";
                    rec.alpha = rec.seed % 2 ? 1.0f : 1.5f;
                    rec.beta = rec.seed % 4 == 0 ? 0.5f : 0.0f;
                    Rng rng(rec.seed);
                    std::vector<float> x(rec.m->cols()), y(rec.m->rows());
                    for (float& v : x)
                        v = rng.next_float(-1.0f, 1.0f);
                    for (float& v : y)
                        v = rng.next_float(-1.0f, 1.0f);
                    rec.y_out = server
                                    .spmv(rec.name, std::move(x), std::move(y),
                                          rec.alpha, rec.beta)
                                    .run.y;
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "client %u failed: %s\n", c, e.what());
                failed.store(true);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (failed.load())
        return 1;
    server.drain();  // let the dispatcher retire its stats bookkeeping

    const auto stats = server.stats();
    std::printf("served:  %u requests from %u clients in %.3f s "
                "(%.1f req/s)\n",
                total, args.clients, wall_s, total / wall_s);
    std::printf("batched: %.2f mean width, %llu of %llu coalesced, "
                "%llu batches in %llu rounds\n",
                stats.mean_batch_width(),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.rounds));

    // Sequential differential replay through a direct Accelerator.
    const core::Accelerator acc(cfg);
    const auto prep_primary = acc.prepare(primary);
    const auto prep_companion = acc.prepare(companion);
    for (const Record& rec : records) {
        Rng rng(rec.seed);
        std::vector<float> x(rec.m->cols()), y(rec.m->rows());
        for (float& v : x)
            v = rng.next_float(-1.0f, 1.0f);
        for (float& v : y)
            v = rng.next_float(-1.0f, 1.0f);
        const auto direct =
            acc.run(rec.m == &primary ? prep_primary : prep_companion, x, y,
                    rec.alpha, rec.beta);
        bool ok = direct.y.size() == rec.y_out.size();
        for (std::size_t i = 0; ok && i < direct.y.size(); ++i)
            ok = float_bits(direct.y[i]) == float_bits(rec.y_out[i]);
        if (!ok) {
            std::fprintf(stderr,
                         "check:   FAIL — a served response diverges from "
                         "the sequential replay\n");
            return 1;
        }
    }
    std::printf("check:   all %u responses bit-identical to sequential "
                "replay (OK)\n",
                total);
    return 0;
}

int cmd_help(std::FILE* out)
{
    std::fprintf(
        out,
        "serpens_cli — drive the Serpens (DAC'22) SpMV accelerator model\n"
        "\n"
        "usage: serpens_cli <command> [flags]\n"
        "\n"
        "commands:\n"
        "  info    print the configuration: HBM channel split, utilized\n"
        "          bandwidth, frequency/power, PE count, on-chip row capacity\n"
        "          (paper Eq. 3), and the analytic FPGA resource estimate\n"
        "  encode  preprocess a Matrix Market file into an accelerator image\n"
        "          (segmentation, PE distribution, index coalescing,\n"
        "          hazard-aware reordering) and save it to disk\n"
        "  run     execute y = alpha*A*x + beta*y on the cycle-level\n"
        "          simulator and report cycles, modeled time, and the\n"
        "          paper's Table 4 metrics; results are checked against the\n"
        "          CPU reference when the matrix is available\n"
        "  serve-bench\n"
        "          smoke the serving layer: admit two matrices into a\n"
        "          serve::Server, issue --clients x --requests concurrent\n"
        "          SpMV requests (coalesced into batches of --batch), and\n"
        "          verify every response bit-identical to a sequential\n"
        "          replay; tools/serpens_serve is the full benchmark\n"
        "  help    print this message\n"
        "\n"
        "flags:\n"
        "  --a24            use the Serpens-A24 preset (24 sparse channels,\n"
        "                   270 MHz) instead of the default A16\n"
        "  --mtx FILE       input matrix in Matrix Market (.mtx) format,\n"
        "                   read through the fast mmap + parallel parser\n"
        "  --img IMG        input: a previously encoded image (run only)\n"
        "  --load-image IMG alias for --img\n"
        "  --save-image IMG also save the encoded image (run only); repeat\n"
        "                   runs with --load-image skip parse+encode entirely\n"
        "  --out IMG        output path for the encoded image (encode only)\n"
        "  --gen KIND,N,NNZ generate an N x N synthetic matrix with ~NNZ\n"
        "                   non-zeros; KIND is uniform, rmat, banded, or\n"
        "                   clustered (run only; default uniform,10000,200000)\n"
        "  --alpha A        scalar alpha (default 1.0)\n"
        "  --beta B         scalar beta  (default 0.0)\n"
        "  --iters N        repeat the run N times after one warm-up call,\n"
        "                   report mean time\n"
        "  --batch B        run B right-hand-side vectors through one\n"
        "                   decoded pass per iteration (Sextans-style SpMM\n"
        "                   amortization; per-vector results are bit-\n"
        "                   identical to B separate runs)\n"
        "  --threads N      worker threads for the encode stage (encode/run;\n"
        "                   default 1, 0 = one per hardware thread; the\n"
        "                   produced image is identical for every N)\n"
        "  --parse-threads N worker threads for .mtx parsing (default 0 =\n"
        "                   one per hardware thread; identical triplets for\n"
        "                   every N)\n"
        "  --sim-threads N  worker threads for the simulator's per-channel\n"
        "                   loop (run; default 1, 0 = one per hardware\n"
        "                   thread; bit-identical results for every N)\n"
        "  --clients N      serve-bench: concurrent client threads\n"
        "                   (default 4)\n"
        "  --requests N     serve-bench: requests per client (default 8)\n"
        "  --serve-threads N serve-bench: concurrent batches per dispatch\n"
        "                   round (default 1, 0 = one per hardware thread)\n"
        "\n"
        "examples:\n"
        "  serpens_cli info --a24\n"
        "  serpens_cli run --gen rmat,16384,500000 --iters 3\n"
        "  serpens_cli encode --mtx m.mtx --out m.img\n"
        "  serpens_cli run --mtx m.mtx --save-image m.img\n"
        "  serpens_cli run --load-image m.img --alpha 2 --beta 0.5\n"
        "  serpens_cli serve-bench --gen uniform,20000,400000 --clients 8\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        // Inside the try block: flag-value parsing (std::stof/stoul) throws
        // on malformed input and must hit the error path, not std::terminate.
        const CliArgs args = parse(argc, argv);
        if (args.command == "info")
            return cmd_info(args);
        if (args.command == "encode")
            return cmd_encode(args);
        if (args.command == "run")
            return cmd_run(args);
        if (args.command == "serve-bench")
            return cmd_serve_bench(args);
        if (args.command == "help" || args.command == "--help" ||
            args.command == "-h")
            return cmd_help(stdout);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return cmd_help(stderr);
}
