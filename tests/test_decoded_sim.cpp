// Lockdown of the decode-once / batched execution engines.
//
// The packed simulate_spmv walk is the differential reference (the same
// discipline as schedule_reference and read_matrix_market_reference). The
// contract pinned here: for every structure, thread count, and batch
// width, the DecodedImage engines produce *bit-identical* y and CycleStats
// — the decoded SoA expansion is the same machine, minus the per-walk bit
// unpacking.
#include <gtest/gtest.h>

#include "core/accelerator.h"
#include "encode/image.h"
#include "sim/decoded_image.h"
#include "sim/simulator.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace serpens {
namespace {

void expect_stats_equal(const sim::CycleStats& a, const sim::CycleStats& b,
                        const std::string& label)
{
    EXPECT_EQ(a.compute_cycles, b.compute_cycles) << label;
    EXPECT_EQ(a.x_load_cycles, b.x_load_cycles) << label;
    EXPECT_EQ(a.y_phase_cycles, b.y_phase_cycles) << label;
    EXPECT_EQ(a.fill_cycles, b.fill_cycles) << label;
    EXPECT_EQ(a.total_slots, b.total_slots) << label;
    EXPECT_EQ(a.padding_slots, b.padding_slots) << label;
    EXPECT_EQ(a.traffic.bytes_read, b.traffic.bytes_read) << label;
    EXPECT_EQ(a.traffic.bytes_written, b.traffic.bytes_written) << label;
}

void expect_y_equal(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(float_bits(a[i]), float_bits(b[i]))
            << label << " row " << i;
}

struct Vectors {
    std::vector<float> x, y;
};

Vectors random_vectors(const sparse::CooMatrix& m, std::uint64_t seed)
{
    Rng rng(seed);
    Vectors v;
    v.x.resize(m.cols());
    v.y.resize(m.rows());
    for (float& f : v.x)
        f = rng.next_float(-1.0f, 1.0f);
    for (float& f : v.y)
        f = rng.next_float(-1.0f, 1.0f);
    return v;
}

// --- DecodedImage structure ---

TEST(DecodedSim, DecodeElidesPaddingAndKeepsExtents)
{
    const auto m = sparse::make_uniform_random(4096, 8192, 120'000, 17);
    encode::EncodeParams params;
    params.window = 1024;
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);

    EXPECT_EQ(d.rows(), img.rows());
    EXPECT_EQ(d.cols(), img.cols());
    EXPECT_EQ(d.num_segments(), img.num_segments());
    EXPECT_EQ(d.channels(), img.channels());

    // Padding slots are gone from the SoA arrays but still accounted.
    EXPECT_EQ(d.nnz(), img.stats().nnz);
    EXPECT_EQ(d.stats().total_slots, img.stats().total_slots);
    EXPECT_EQ(d.stats().padding_slots, img.stats().padding_slots);
    EXPECT_EQ(d.stats().total_lines, img.stats().total_lines);

    std::uint64_t elems = 0;
    for (unsigned ch = 0; ch < d.channels(); ++ch) {
        const auto& c = d.channel(ch);
        ASSERT_EQ(c.seg_begin.size(), d.num_segments() + 1u);
        ASSERT_EQ(c.seg_begin.front(), 0u);
        ASSERT_EQ(c.seg_begin.back(), c.value.size());
        ASSERT_EQ(c.acc_off.size(), c.value.size());
        ASSERT_EQ(c.col.size(), c.value.size());
        elems += c.value.size();
        // Per-segment line counts match the packed image's.
        for (unsigned s = 0; s < d.num_segments(); ++s)
            EXPECT_EQ(c.seg_lines[s], img.segment_lines(ch, s));
    }
    EXPECT_EQ(elems, d.nnz());

    // used_addrs covers the rows and no more than the architecture.
    const encode::RowMapping mapping(params);
    EXPECT_EQ(d.used_addrs(), mapping.locate(img.rows() - 1).addr + 1);
    EXPECT_LE(d.used_addrs(), params.addrs_per_pe());
}

TEST(DecodedSim, DecodeThreadCountsProduceIdenticalArrays)
{
    const auto m = sparse::make_clustered(2048, 60'000, 8, 64, 0.3, 19);
    encode::EncodeParams params;
    params.window = 512;
    const auto img = encode::encode_matrix(m, params);
    const auto serial = sim::DecodedImage::decode(img, {.threads = 1});
    for (const unsigned threads : {2u, 8u, 0u}) {
        const auto parallel =
            sim::DecodedImage::decode(img, {.threads = threads});
        for (unsigned ch = 0; ch < serial.channels(); ++ch) {
            EXPECT_EQ(parallel.channel(ch).acc_off, serial.channel(ch).acc_off);
            EXPECT_EQ(parallel.channel(ch).col, serial.channel(ch).col);
            ASSERT_EQ(parallel.channel(ch).value.size(),
                      serial.channel(ch).value.size());
            for (std::size_t i = 0; i < serial.channel(ch).value.size(); ++i)
                EXPECT_EQ(float_bits(parallel.channel(ch).value[i]),
                          float_bits(serial.channel(ch).value[i]));
        }
    }
}

// --- decoded engine vs packed reference ---

TEST(DecodedSim, BitIdenticalAcrossThreadCounts)
{
    const auto m = sparse::make_uniform_random(4096, 8192, 150'000, 41);
    encode::EncodeParams params;
    params.window = 1024;
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);
    const Vectors v = random_vectors(m, 3);

    const auto packed = sim::simulate_spmv(img, v.x, v.y, 1.25f, -0.75f, {});
    for (const unsigned threads : {1u, 2u, 8u, 0u}) {
        sim::SimOptions options;
        options.threads = threads;
        const auto decoded =
            sim::simulate_spmv_decoded(d, v.x, v.y, 1.25f, -0.75f, options);
        const std::string label = "threads=" + std::to_string(threads);
        expect_y_equal(decoded.y, packed.y, label);
        expect_stats_equal(decoded.cycles, packed.cycles, label);
    }
}

TEST(DecodedSim, BitIdenticalAcrossStructures)
{
    std::vector<sparse::CooMatrix> matrices;
    matrices.push_back(sparse::make_banded(2048, 9, 51));
    matrices.push_back(sparse::make_clustered(2048, 50'000, 8, 64, 0.3, 53));
    matrices.push_back(sparse::make_dense_rows(1024, 4096, 6, 512, 57));
    for (const auto& m : matrices) {
        encode::EncodeParams params;
        params.window = 512;
        const auto img = encode::encode_matrix(m, params);
        const auto d = sim::DecodedImage::decode(img);
        std::vector<float> x(m.cols(), 0.5f), y(m.rows(), 1.0f);
        const auto packed = sim::simulate_spmv(img, x, y, 2.0f, 0.5f, {});
        const auto decoded = sim::simulate_spmv_decoded(d, x, y, 2.0f, 0.5f, {});
        expect_y_equal(decoded.y, packed.y, "structure case");
        expect_stats_equal(decoded.cycles, packed.cycles, "structure case");
    }
}

TEST(DecodedSim, DoubleBufferAndFillOptionsMatch)
{
    // The decoded engine recomputes phase stats from preserved extents;
    // every SimOptions knob that shapes them must agree with the packed
    // walk, including the double-buffer overlap arithmetic.
    const auto m = sparse::make_uniform_random(2048, 16384, 80'000, 23);
    encode::EncodeParams params;
    params.window = 2048;  // 8 segments
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);
    const Vectors v = random_vectors(m, 29);

    for (const bool double_buffer : {false, true}) {
        sim::SimOptions options;
        options.double_buffer_x = double_buffer;
        options.fill_per_segment = 7;
        options.fill_y_phase = 13;
        const auto packed =
            sim::simulate_spmv(img, v.x, v.y, 1.0f, 1.0f, options);
        const auto decoded =
            sim::simulate_spmv_decoded(d, v.x, v.y, 1.0f, 1.0f, options);
        const std::string label =
            double_buffer ? "double-buffer" : "single-buffer";
        expect_y_equal(decoded.y, packed.y, label);
        expect_stats_equal(decoded.cycles, packed.cycles, label);
    }
}

TEST(DecodedSim, SingleChannelConfig)
{
    const auto m = sparse::make_banded(512, 5, 71);
    encode::EncodeParams params;
    params.ha_channels = 1;
    params.window = 256;
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);
    std::vector<float> x(m.cols(), 1.0f), y(m.rows(), 0.0f);
    const auto packed = sim::simulate_spmv(img, x, y, 1.0f, 0.0f, {});
    const auto decoded = sim::simulate_spmv_decoded(d, x, y, 1.0f, 0.0f, {});
    expect_y_equal(decoded.y, packed.y, "single channel");
    expect_stats_equal(decoded.cycles, packed.cycles, "single channel");
}

TEST(DecodedSim, NoCoalescingConfig)
{
    const auto m = sparse::make_uniform_random(1024, 1024, 30'000, 83);
    encode::EncodeParams params;
    params.coalescing = false;
    params.window = 512;
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);
    const Vectors v = random_vectors(m, 31);
    const auto packed = sim::simulate_spmv(img, v.x, v.y, 0.5f, 2.0f, {});
    const auto decoded = sim::simulate_spmv_decoded(d, v.x, v.y, 0.5f, 2.0f, {});
    expect_y_equal(decoded.y, packed.y, "no coalescing");
    expect_stats_equal(decoded.cycles, packed.cycles, "no coalescing");
}

// --- batched engine ---

TEST(DecodedSim, BatchColumnsBitIdenticalToPackedRuns)
{
    const auto m = sparse::make_uniform_random(4096, 8192, 120'000, 59);
    encode::EncodeParams params;
    params.window = 1024;
    const auto img = encode::encode_matrix(m, params);
    const auto d = sim::DecodedImage::decode(img);

    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{11}}) {
        std::vector<std::vector<float>> xs, ys;
        for (std::size_t b = 0; b < batch; ++b) {
            const Vectors v = random_vectors(m, 100 + b);
            xs.push_back(v.x);
            ys.push_back(v.y);
        }
        for (const unsigned threads : {1u, 2u, 8u, 0u}) {
            sim::SimOptions options;
            options.threads = threads;
            const auto batched =
                sim::simulate_spmv_batch(d, xs, ys, 1.5f, -0.25f, options);
            ASSERT_EQ(batched.y.size(), batch);
            for (std::size_t b = 0; b < batch; ++b) {
                const auto packed =
                    sim::simulate_spmv(img, xs[b], ys[b], 1.5f, -0.25f, {});
                const std::string label = "batch=" + std::to_string(batch) +
                                          " threads=" +
                                          std::to_string(threads) + " col " +
                                          std::to_string(b);
                expect_y_equal(batched.y[b], packed.y, label);
                expect_stats_equal(batched.cycles, packed.cycles, label);
            }
        }
    }
}

TEST(DecodedSim, BatchRejectsMalformedInput)
{
    const auto m = sparse::make_banded(256, 3, 5);
    const auto img = encode::encode_matrix(m, {});
    const auto d = sim::DecodedImage::decode(img);
    const std::vector<std::vector<float>> good_x(2,
                                                 std::vector<float>(m.cols()));
    const std::vector<std::vector<float>> good_y(2,
                                                 std::vector<float>(m.rows()));
    EXPECT_THROW(sim::simulate_spmv_batch(d, {}, {}, 1.0f, 0.0f, {}),
                 std::invalid_argument);
    const std::vector<std::vector<float>> one_y(1,
                                                std::vector<float>(m.rows()));
    EXPECT_THROW(sim::simulate_spmv_batch(d, good_x, one_y, 1.0f, 0.0f, {}),
                 std::invalid_argument);
    const std::vector<std::vector<float>> short_x(
        2, std::vector<float>(m.cols() - 1));
    EXPECT_THROW(sim::simulate_spmv_batch(d, short_x, good_y, 1.0f, 0.0f, {}),
                 std::invalid_argument);
}

// --- through the Accelerator facade ---

TEST(DecodedSim, AcceleratorRunMatchesPackedOracle)
{
    const auto m = sparse::make_uniform_random(3000, 3000, 90'000, 61);
    const Vectors v = random_vectors(m, 8);

    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);

    const auto ra = acc.run(prepared, v.x, v.y, 0.5f, 2.0f);
    const auto rb =
        sim::simulate_spmv(prepared.image(), v.x, v.y, 0.5f, 2.0f, {});
    expect_y_equal(ra.y, rb.y, "run vs packed oracle");
    expect_stats_equal(ra.cycles, rb.cycles, "run vs packed oracle");

    // A second run off the same resident stream stays identical, and so
    // does a matrix prepared from the rebuilt image.
    const auto rc = acc.run(prepared, v.x, v.y, 0.5f, 2.0f);
    expect_y_equal(rc.y, rb.y, "second run");
    const auto reloaded = core::PreparedMatrix::from_image(prepared.image());
    const auto rd = acc.run(reloaded, v.x, v.y, 0.5f, 2.0f);
    expect_y_equal(rd.y, rb.y, "prepared from the rebuilt image");
    expect_stats_equal(rd.cycles, rb.cycles, "prepared from the rebuilt image");
    EXPECT_DOUBLE_EQ(rd.time_ms, ra.time_ms);
    EXPECT_DOUBLE_EQ(rd.metrics.gflops, ra.metrics.gflops);
}

TEST(DecodedSim, AcceleratorRunBatchMatchesRun)
{
    const auto m = sparse::make_clustered(2000, 40'000, 8, 64, 0.3, 67);
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);

    std::vector<std::vector<float>> xs, ys;
    for (std::size_t b = 0; b < 5; ++b) {
        const Vectors v = random_vectors(m, 200 + b);
        xs.push_back(v.x);
        ys.push_back(v.y);
    }
    const auto batch = acc.run_batch(prepared, xs, ys, 1.1f, 0.9f);
    ASSERT_EQ(batch.size(), xs.size());
    for (std::size_t b = 0; b < xs.size(); ++b) {
        const auto single = acc.run(prepared, xs[b], ys[b], 1.1f, 0.9f);
        const std::string label = "column " + std::to_string(b);
        expect_y_equal(batch[b].y, single.y, label);
        expect_stats_equal(batch[b].cycles, single.cycles, label);
        EXPECT_DOUBLE_EQ(batch[b].time_ms, single.time_ms) << label;
        EXPECT_DOUBLE_EQ(batch[b].metrics.gflops, single.metrics.gflops)
            << label;
    }
}

TEST(DecodedSim, RunBatchMatchesPackedOracle)
{
    // Every column of run_batch must equal the packed walk over the
    // rebuilt padded image bit for bit, and the batched device accounting
    // must equal the packed image's.
    const auto m = sparse::make_uniform_random(1500, 1500, 40'000, 71);
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);

    std::vector<std::vector<float>> xs, ys;
    for (std::size_t b = 0; b < 3; ++b) {
        const Vectors v = random_vectors(m, 300 + b);
        xs.push_back(v.x);
        ys.push_back(v.y);
    }
    const auto batch = acc.run_batch(prepared, xs, ys, 2.0f, -1.0f);
    const encode::SerpensImage img = prepared.image();
    ASSERT_EQ(batch.size(), xs.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
        const std::string label = "column " + std::to_string(b);
        const auto packed =
            sim::simulate_spmv(img, xs[b], ys[b], 2.0f, -1.0f, {});
        expect_y_equal(batch[b].y, packed.y, label);
        expect_stats_equal(batch[b].cycles, packed.cycles, label);
    }
    const auto packed_batch = sim::batch_cycle_stats(img, xs.size(), {});
    EXPECT_EQ(batch.batch_cycles.passes, packed_batch.passes);
    EXPECT_EQ(batch.batch_cycles.total_cycles(), packed_batch.total_cycles());
    EXPECT_EQ(batch.batch_cycles.traffic.total(),
              packed_batch.traffic.total());
}

TEST(DecodedSim, RunProgramUsesDecodedEngine)
{
    // The instruction path compiles and validates against the rebuilt
    // padded image, then funnels into run() over the decoded stream.
    const auto m = sparse::make_banded(1024, 7, 73);
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(m);
    const Vectors v = random_vectors(m, 77);
    const auto program = acc.compile_program(prepared, 1.5f, 0.5f);
    const auto r = acc.run_program(prepared, program, v.x, v.y);
    const auto expect = acc.run(prepared, v.x, v.y, 1.5f, 0.5f);
    expect_y_equal(r.y, expect.y, "program path");
    const auto packed =
        sim::simulate_spmv(prepared.image(), v.x, v.y, 1.5f, 0.5f, {});
    expect_y_equal(r.y, packed.y, "program path vs packed oracle");
}

} // namespace
} // namespace serpens
