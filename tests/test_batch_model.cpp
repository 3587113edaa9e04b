// Lockdown of the batched device model (sim::BatchCycleStats).
//
// Three contracts pin SpMM mode to the established engines:
//   1. B = 1 degenerates bit-identically to the single-SpMV CycleStats —
//      same ceils, same double-buffer overlap arithmetic, same traffic.
//   2. Functional results never depend on the device model: the batched
//      engine's y columns stay bit-identical to the packed reference for
//      every batch width and thread count.
//   3. Amortized per-SpMV time is monotone non-increasing in B over the
//      power-of-two widths and saturates at batch_columns — the same
//      shape as the Sextans SpMM model it mirrors.
#include <gtest/gtest.h>

#include "baselines/sextans.h"
#include "core/accelerator.h"
#include "core/analytic.h"
#include "sim/decoded_image.h"
#include "sim/simulator.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace serpens {
namespace {

// The generator suite: one matrix per structural family the encoder
// handles differently (uniform scatter, power-law clusters, diagonal
// band, heavy rows, block structure).
std::vector<std::pair<std::string, sparse::CooMatrix>> generator_suite()
{
    std::vector<std::pair<std::string, sparse::CooMatrix>> suite;
    suite.emplace_back("uniform",
                       sparse::make_uniform_random(2048, 3000, 50'000, 11));
    suite.emplace_back("clustered",
                       sparse::make_clustered(1500, 40'000, 8, 64, 0.3, 13));
    suite.emplace_back("banded", sparse::make_banded(2000, 9, 17));
    suite.emplace_back("dense_rows",
                       sparse::make_dense_rows(1024, 2048, 12, 1500, 19));
    suite.emplace_back("block",
                       sparse::make_block_random(1536, 64, 35'000, 23));
    return suite;
}

std::vector<float> random_vector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float& f : v)
        f = rng.next_float(-1.0f, 1.0f);
    return v;
}

void expect_batch_equals_single(const sim::BatchCycleStats& b,
                                const sim::CycleStats& s,
                                const std::string& label)
{
    EXPECT_EQ(b.batch, 1u) << label;
    EXPECT_EQ(b.passes, 1u) << label;
    EXPECT_EQ(b.x_load_cycles, s.x_load_cycles) << label;
    EXPECT_EQ(b.compute_cycles, s.compute_cycles) << label;
    EXPECT_EQ(b.y_phase_cycles, s.y_phase_cycles) << label;
    EXPECT_EQ(b.fill_cycles, s.fill_cycles) << label;
    EXPECT_EQ(b.total_slots, s.total_slots) << label;
    EXPECT_EQ(b.padding_slots, s.padding_slots) << label;
    EXPECT_EQ(b.total_cycles(), s.total_cycles()) << label;
    EXPECT_EQ(b.traffic.bytes_read, s.traffic.bytes_read) << label;
    EXPECT_EQ(b.traffic.bytes_written, s.traffic.bytes_written) << label;
}

// --- Contract 1: B = 1 identity, packed and decoded, both buffer modes ---

TEST(BatchModel, BatchOfOneIsFieldForFieldIdenticalToCycleStats)
{
    for (const auto& [name, m] : generator_suite()) {
        encode::EncodeParams params;
        params.window = 1024;
        const auto img = encode::encode_matrix(m, params);
        const auto decoded = sim::DecodedImage::decode(img);

        for (const bool double_buffer : {false, true}) {
            sim::SimOptions options;
            options.double_buffer_x = double_buffer;
            const std::string label =
                name + (double_buffer ? " (double-buffered x)" : "");

            const std::vector<float> x = random_vector(m.cols(), 101);
            const std::vector<float> y = random_vector(m.rows(), 102);
            const sim::SimResult single =
                sim::simulate_spmv(img, x, y, 1.0f, 0.5f, options);

            expect_batch_equals_single(
                sim::batch_cycle_stats(img, 1, options), single.cycles,
                label + " packed");
            expect_batch_equals_single(
                sim::batch_cycle_stats(decoded, 1, options), single.cycles,
                label + " decoded");
        }
    }
}

TEST(BatchModel, PackedAndDecodedOverloadsAgreeAtEveryWidth)
{
    for (const auto& [name, m] : generator_suite()) {
        encode::EncodeParams params;
        params.window = 512;
        const auto img = encode::encode_matrix(m, params);
        const auto decoded = sim::DecodedImage::decode(img);
        for (const unsigned b : {1u, 2u, 3u, 8u, 11u, 16u, 33u}) {
            const sim::SimOptions options;
            const auto packed = sim::batch_cycle_stats(img, b, options);
            const auto cached = sim::batch_cycle_stats(decoded, b, options);
            const std::string label = name + " B=" + std::to_string(b);
            EXPECT_EQ(packed.batch, b) << label;
            EXPECT_EQ(packed.passes,
                      (b + options.batch_columns - 1) / options.batch_columns)
                << label;
            EXPECT_EQ(packed.passes, cached.passes) << label;
            EXPECT_EQ(packed.x_load_cycles, cached.x_load_cycles) << label;
            EXPECT_EQ(packed.compute_cycles, cached.compute_cycles) << label;
            EXPECT_EQ(packed.y_phase_cycles, cached.y_phase_cycles) << label;
            EXPECT_EQ(packed.fill_cycles, cached.fill_cycles) << label;
            EXPECT_EQ(packed.traffic.bytes_read, cached.traffic.bytes_read)
                << label;
            EXPECT_EQ(packed.traffic.bytes_written,
                      cached.traffic.bytes_written)
                << label;
        }
    }
}

TEST(BatchModel, RunBatchOfOneReportsSingleRunTime)
{
    const auto m = sparse::make_uniform_random(1200, 1400, 30'000, 29);
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);
    const std::vector<std::vector<float>> xs{random_vector(m.cols(), 1)};
    const std::vector<std::vector<float>> ys{random_vector(m.rows(), 2)};

    const core::BatchRunResult batch = acc.run_batch(prepared, xs, ys);
    const core::RunResult single = acc.run(prepared, xs[0], ys[0]);
    EXPECT_EQ(batch.batch_time_ms, single.time_ms);
    EXPECT_EQ(batch.amortized_time_ms, single.time_ms);
    EXPECT_EQ(batch.batch_time_ms, batch.front().time_ms);
}

// --- Contract 2: y bits never depend on the batch width or threads ---

TEST(BatchModel, BatchYBitIdenticalToPackedReferencePerColumn)
{
    const auto suite = generator_suite();
    for (const auto& [name, m] : suite) {
        encode::EncodeParams params;
        params.window = 1024;
        const auto img = encode::encode_matrix(m, params);
        const auto decoded = sim::DecodedImage::decode(img);

        for (const unsigned b : {1u, 3u, 8u, 11u}) {
            std::vector<std::vector<float>> xs, ys;
            for (unsigned k = 0; k < b; ++k) {
                xs.push_back(random_vector(m.cols(), 500 + k));
                ys.push_back(random_vector(m.rows(), 900 + k));
            }
            for (const unsigned threads : {1u, 2u, 8u, 0u}) {
                sim::SimOptions options;
                options.threads = threads;
                const sim::SimBatchResult batch = sim::simulate_spmv_batch(
                    decoded, xs, ys, 1.25f, -0.75f, options);
                ASSERT_EQ(batch.y.size(), b);
                EXPECT_EQ(batch.batch_cycles.batch, b);
                for (unsigned k = 0; k < b; ++k) {
                    const sim::SimResult ref = sim::simulate_spmv(
                        img, xs[k], ys[k], 1.25f, -0.75f, options);
                    ASSERT_EQ(batch.y[k].size(), ref.y.size());
                    for (std::size_t r = 0; r < ref.y.size(); ++r)
                        ASSERT_EQ(float_bits(batch.y[k][r]),
                                  float_bits(ref.y[r]))
                            << name << " B=" << b << " threads=" << threads
                            << " column " << k << " row " << r;
                }
            }
        }
    }
}

// --- Contract 3: amortization shape ---

TEST(BatchModel, AmortizedTimeMonotoneNonIncreasingOverPowerOfTwoWidths)
{
    for (const auto& [name, m] : generator_suite()) {
        const core::Accelerator acc(core::SerpensConfig::a16());
        const auto prepared = acc.prepare(m);
        double prev = 0.0;
        for (const unsigned b : {1u, 2u, 4u, 8u, 16u}) {
            std::vector<std::vector<float>> xs, ys;
            for (unsigned k = 0; k < b; ++k) {
                xs.push_back(random_vector(m.cols(), 40 + k));
                ys.push_back(random_vector(m.rows(), 70 + k));
            }
            const core::BatchRunResult run = acc.run_batch(prepared, xs, ys);
            EXPECT_GT(run.amortized_time_ms, 0.0) << name;
            if (b > 1) {
                EXPECT_LE(run.amortized_time_ms, prev)
                    << name << " B=" << b;
            }
            prev = run.amortized_time_ms;
        }
    }
}

TEST(BatchModel, AnalyticBatchEstimateDegeneratesToSingleEstimate)
{
    const core::SerpensConfig cfg = core::SerpensConfig::a16();
    for (const double padding : {0.0, 0.15}) {
        const double single =
            core::estimate_time_ms(cfg, 100'000, 80'000, 2'000'000, padding);
        const double batch1 = core::estimate_batch_time_ms(
            cfg, 100'000, 80'000, 2'000'000, 1, padding);
        EXPECT_DOUBLE_EQ(single, batch1);
    }
}

TEST(BatchModel, AnalyticAmortizationSharesTheSextansKnee)
{
    // Closed-form cross-check at 1M nnz: both SpMM models stream the
    // sparse image once per 8-column block, so (a) B=8 amortizes strictly
    // better than B=1, and (b) past the knee a doubling of B buys almost
    // nothing (< 10% in both models) — only kickoff overhead and schedule
    // rounding keep amortizing.
    const core::SerpensConfig cfg = core::SerpensConfig::a16();
    const std::uint64_t rows = 65'536, cols = 65'536, nnz = 1'000'000;
    const baselines::SextansModel sextans;

    const auto serpens_amortized = [&](unsigned b) {
        return core::estimate_batch_time_ms(cfg, rows, cols, nnz, b) / b;
    };
    const auto sextans_amortized = [&](unsigned b) {
        const auto ms =
            sextans.estimate_amortized_spmv_ms(rows, cols, nnz, b);
        return ms.value();
    };

    EXPECT_LT(serpens_amortized(8), serpens_amortized(1));
    EXPECT_LT(sextans_amortized(8), sextans_amortized(1));

    const double serpens_sat =
        serpens_amortized(8) / serpens_amortized(16);
    const double sextans_sat =
        sextans_amortized(8) / sextans_amortized(16);
    EXPECT_GE(serpens_sat, 1.0);
    EXPECT_LT(serpens_sat, 1.10);
    EXPECT_GE(sextans_sat, 1.0);
    EXPECT_LT(sextans_sat, 1.10);

    // The pre-knee gains land in a common band: one pass for 8 columns
    // cannot buy more than 8x in either model.
    const double serpens_gain = serpens_amortized(1) / serpens_amortized(8);
    const double sextans_gain = sextans_amortized(1) / sextans_amortized(8);
    EXPECT_GT(serpens_gain, 1.5);
    EXPECT_LE(serpens_gain, 8.0);
    EXPECT_GT(sextans_gain, 1.0);
    EXPECT_LE(sextans_gain, 8.0);
}

TEST(BatchModel, RunBatchLeavesFootprintUnchanged)
{
    // The B-wide accumulator banks of SpMM mode are per-call transients:
    // they must never leak into the bytes the serving registry charges
    // against its resident budget.
    const auto m = sparse::make_uniform_random(1500, 1500, 40'000, 31);
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);
    const std::uint64_t before = prepared.memory_footprint_bytes();

    std::vector<std::vector<float>> xs, ys;
    for (unsigned k = 0; k < 8; ++k) {
        xs.push_back(random_vector(m.cols(), 60 + k));
        ys.push_back(random_vector(m.rows(), 80 + k));
    }
    const core::BatchRunResult run = acc.run_batch(prepared, xs, ys);
    ASSERT_EQ(run.size(), 8u);
    EXPECT_EQ(prepared.memory_footprint_bytes(), before);
}

} // namespace
} // namespace serpens
