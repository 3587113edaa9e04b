// sim_smoke — Release/ASan-mode simulator smoke test for CI.
//
// Generates a ~1M-entry matrix, encodes it, then runs the same SpMV through
// every engine: the packed reference walk, the decode-once engine (serial
// and threaded), and the batched engine at several widths. y and every
// CycleStats term must be bit-identical across all of them. Prints per-
// engine timings so CI logs double as a coarse perf trend (the decoded
// engine's per-iteration advantage over the packed walk is the number the
// decode-once PR exists for). The padded image rebuilt from the decoded
// stream (DecodedImage::to_image, what a prepared matrix hands the WAL and
// --save-image) must also serialize byte-identically to the encoded one.
// It names the B=1 kernel the decoded engines ran (sim/walk.h); where
// that is the AVX-512 kernel, the scalar kernel runs too and must match.
//
//   sim_smoke [--entries N] [--batch B] [--iters K] [--window W]
//
// --window sets the x-segment length (default 8192); at 16384 the decoded
// index word splits 18 + 14 bits instead of 19 + 13.
//
// Exit code 0 on success, 1 on any mismatch or error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "encode/image.h"
#include "encode/serialize.h"
#include "sim/simulator.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace {

using namespace serpens;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool identical(const sim::SimResult& a, const sim::SimResult& b,
               const char* label)
{
    bool ok = a.y.size() == b.y.size();
    for (std::size_t i = 0; ok && i < a.y.size(); ++i)
        ok = float_bits(a.y[i]) == float_bits(b.y[i]);
    ok = ok && a.cycles.x_load_cycles == b.cycles.x_load_cycles &&
         a.cycles.compute_cycles == b.cycles.compute_cycles &&
         a.cycles.y_phase_cycles == b.cycles.y_phase_cycles &&
         a.cycles.fill_cycles == b.cycles.fill_cycles &&
         a.cycles.total_slots == b.cycles.total_slots &&
         a.cycles.padding_slots == b.cycles.padding_slots &&
         a.cycles.traffic.bytes_read == b.cycles.traffic.bytes_read &&
         a.cycles.traffic.bytes_written == b.cycles.traffic.bytes_written;
    if (!ok)
        std::fprintf(stderr, "FAIL: %s diverges from its reference\n",
                     label);
    return ok;
}

} // namespace

int main(int argc, char** argv)
{
    std::uint64_t entries = 1'000'000;
    unsigned batch = 3;
    int iters = 8;
    encode::EncodeParams params;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--entries") == 0 && i + 1 < argc)
            entries = std::strtoull(argv[++i], nullptr, 10);
        else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc)
            batch = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc)
            iters = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc)
            params.window = static_cast<sparse::index_t>(
                std::strtoul(argv[++i], nullptr, 10));
        else {
            std::fprintf(
                stderr,
                "usage: sim_smoke [--entries N] [--batch B] [--iters K] "
                "[--window W]\n");
            return 1;
        }
    }

    try {
        const auto n = static_cast<sparse::index_t>(
            std::max<std::uint64_t>(65'536, entries / 16));
        std::printf("encoding %llu-entry uniform matrix (%u x %u, window "
                    "%u)...\n",
                    static_cast<unsigned long long>(entries), n, n,
                    params.window);
        const auto m = sparse::make_uniform_random(
            n, n, static_cast<sparse::nnz_t>(entries), 1);
        const auto img = encode::encode_matrix(m, params, {.threads = 0});

        Rng rng(11);
        std::vector<std::vector<float>> xs(batch, std::vector<float>(n));
        std::vector<std::vector<float>> ys(batch, std::vector<float>(n));
        for (auto& x : xs)
            for (float& v : x)
                v = rng.next_float(-1.0f, 1.0f);
        for (auto& y : ys)
            for (float& v : y)
                v = rng.next_float(-1.0f, 1.0f);

        sim::SimOptions options;
        options.verify_hazards = false;
        const float alpha = 1.25f, beta = -0.5f;

        // Packed reference: once per column.
        auto t0 = Clock::now();
        std::vector<sim::SimResult> packed;
        for (unsigned b = 0; b < batch; ++b)
            packed.push_back(
                sim::simulate_spmv(img, xs[b], ys[b], alpha, beta, options));
        const double packed_s = seconds_since(t0) / batch;

        t0 = Clock::now();
        const auto decoded = sim::DecodedImage::decode(img, {.threads = 0});
        const double decode_s = seconds_since(t0);

        // Decode-once engine: `iters` repetitions to show the amortized
        // per-iteration cost next to the packed walk's.
        t0 = Clock::now();
        sim::SimResult dec;
        for (int it = 0; it < std::max(1, iters); ++it)
            dec = sim::simulate_spmv_decoded(decoded, xs[0], ys[0], alpha,
                                             beta, options);
        const double decoded_s = seconds_since(t0) / std::max(1, iters);

        const sim::WalkKernel kernel = sim::host_walk_kernel();
        std::printf("packed:  %.4f s/SpMV\n", packed_s);
        std::printf("decode:  %.4f s once\n", decode_s);
        std::printf("decoded: %.4f s/SpMV (%.1fx vs packed, %d iterations, "
                    "%s B=1 kernel)\n",
                    decoded_s, packed_s / decoded_s, std::max(1, iters),
                    sim::walk_kernel_name(kernel));

        bool ok = identical(dec, packed[0], "decoded engine");
        if (kernel != sim::WalkKernel::scalar) {
            t0 = Clock::now();
            const sim::SimResult scalar = sim::simulate_spmv_decoded(
                decoded, xs[0], ys[0], alpha, beta, options,
                sim::WalkKernel::scalar);
            std::printf("scalar:  %.4f s/SpMV (B=1 fallback kernel, once)\n",
                        seconds_since(t0));
            ok = identical(scalar, dec, "scalar B=1 kernel") && ok;
        }

        t0 = Clock::now();
        std::ostringstream rebuilt, encoded;
        encode::save_image(rebuilt, decoded.to_image());
        std::printf("rebuild: %.4f s once (padded image, serialized)\n",
                    seconds_since(t0));
        encode::save_image(encoded, img);
        if (rebuilt.str() != encoded.str()) {
            std::fprintf(stderr, "FAIL: rebuilt image differs from the "
                                 "encoded one\n");
            ok = false;
        }

        // Threaded decoded run and per-column batch, all against packed.
        sim::SimOptions threaded = options;
        threaded.threads = 0;
        ok = ok && identical(sim::simulate_spmv_decoded(
                                 decoded, xs[0], ys[0], alpha, beta, threaded),
                             packed[0], "decoded engine (threads=auto)");

        t0 = Clock::now();
        const auto batched =
            sim::simulate_spmv_batch(decoded, xs, ys, alpha, beta, options);
        const double batch_s = seconds_since(t0) / batch;
        std::printf("batch:   %.4f s/SpMV at B=%u (%.1fx vs packed)\n",
                    batch_s, batch, packed_s / batch_s);
        for (unsigned b = 0; ok && b < batch; ++b) {
            sim::SimResult col;
            col.y = batched.y[b];
            col.cycles = batched.cycles;
            ok = identical(col, packed[b], "batched engine column");
        }

        if (!ok)
            return 1;
        std::printf("OK: y + CycleStats bit-identical across packed, "
                    "decoded (%s%s), and batched engines (B=%u); rebuilt "
                    "image byte-identical\n",
                    sim::walk_kernel_name(kernel),
                    kernel != sim::WalkKernel::scalar ? " + scalar" : "",
                    batch);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "FAIL: %s\n", e.what());
        return 1;
    }
}
