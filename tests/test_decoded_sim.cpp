// Lockdown of the decode-once / batched execution engines.
//
// The packed simulate_spmv walk is the differential reference (the same
// discipline as schedule_reference and read_matrix_market_reference). The
// contract pinned here: for every structure, thread count, and batch
// width, the DecodedImage engines produce *bit-identical* y and CycleStats
// — the decoded SoA expansion is the same machine, minus the per-walk bit
// unpacking.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <utility>

#include "core/accelerator.h"
#include "encode/image.h"
#include "encode/serialize.h"
#include "sim/decoded_image.h"
#include "sim/simulator.h"
#include "sim/walk.h"
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
        ASSERT_EQ(c.idx.size(), c.value.size());
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
            EXPECT_EQ(parallel.channel(ch).idx, serial.channel(ch).idx);
            ASSERT_EQ(parallel.channel(ch).value.size(),
                      serial.channel(ch).value.size());
            for (std::size_t i = 0; i < serial.channel(ch).value.size(); ++i)
                EXPECT_EQ(float_bits(parallel.channel(ch).value[i]),
                          float_bits(serial.channel(ch).value[i]));
        }
    }
}

// --- the packed index word's bit budget ---
//
// idx = (acc_off << col_bits) | col_off must fit 32 bits. With one channel
// (8 PEs) and coalescing, row r lands on acc_off (r / 16 * 8 + r / 2 % 8)
// * 2 + r % 2, so the last row of a full U*D URAM takes the largest
// accumulator offset, 16 * used_addrs - 1.

encode::EncodeParams one_channel(unsigned urams_per_pe, sparse::index_t window)
{
    encode::EncodeParams p;
    p.ha_channels = 1;
    p.urams_per_pe = urams_per_pe;
    p.uram_depth = 4096;
    p.window = window;
    return p;
}

TEST(DecodedSim, DecodeRefusesIndexWordOverBudget)
{
    // W = 16384 (14 column bits) with a 32k-address URAM: a row at or
    // beyond 262144 reaches URAM address 16384, whose accumulator offset
    // needs 19 bits.
    const encode::EncodeParams p = one_channel(8, 16384);
    sparse::CooMatrix over(262'145, 64);
    over.add(262'144, 63, 1.0f);
    const auto img = encode::encode_matrix(over, p);
    try {
        (void)sim::DecodedImage::decode(img);
        FAIL() << "decode accepted a 19 + 14-bit index word";
    } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("32-bit decoded index word"),
                  std::string::npos)
            << e.what();
    }

    // One row fewer stays inside 18 + 14 bits.
    sparse::CooMatrix fits(262'144, 64);
    fits.add(262'143, 63, 1.0f);
    const auto d = sim::DecodedImage::decode(encode::encode_matrix(fits, p));
    EXPECT_EQ(d.used_addrs(), 16'384u);
    EXPECT_EQ(d.col_bits(), 14u);
}

std::string image_bytes(const encode::SerpensImage& img)
{
    std::ostringstream out;
    encode::save_image(out, img);
    return out.str();
}

// A matrix filling every row of a full URAM, plus elements at the largest
// accumulator offset and the largest column offset of every segment:
// decode must take it, the largest word must use all 32 bits, and every
// engine must match the packed walk bit for bit.
void expect_exact_budget_shape(const encode::EncodeParams& p)
{
    const sparse::index_t rows =
        static_cast<sparse::index_t>(p.row_capacity());
    const sparse::index_t cols = 2 * p.window + 100;
    std::set<std::pair<sparse::index_t, sparse::index_t>> edge;
    for (sparse::index_t c = p.window - 1; c < cols; c += p.window)
        edge.insert({rows - 1, c});
    edge.insert({rows - 1, cols - 1});
    edge.insert({rows - 2, 0});
    edge.insert({0, p.window - 1});
    const sparse::CooMatrix fill =
        sparse::make_uniform_random(rows, cols, 30'000, 97);
    sparse::CooMatrix m(rows, cols);
    for (const sparse::Triplet& t : fill.elements())
        if (edge.count({t.row, t.col}) == 0)
            m.add(t.row, t.col, t.val);
    for (const auto& [r, c] : edge)
        m.add(r, c, 0.5f + static_cast<float>(c % 7));

    const auto img = encode::encode_matrix(m, p);
    const auto d = sim::DecodedImage::decode(img);
    ASSERT_EQ(d.used_addrs(), p.addrs_per_pe());
    std::uint32_t widest = 0;
    for (unsigned ch = 0; ch < d.channels(); ++ch)
        for (const std::uint32_t w : d.channel(ch).idx)
            widest = std::max(widest, w);
    const std::uint32_t max_acc = 16 * d.used_addrs() - 1;
    EXPECT_EQ(widest, (max_acc << d.col_bits()) | (p.window - 1));
    EXPECT_EQ(std::bit_width(widest), 32);

    EXPECT_EQ(image_bytes(d.to_image()), image_bytes(img));

    constexpr std::size_t kMaxBatch = 8;
    std::vector<std::vector<float>> xs, ys;
    std::vector<sim::SimResult> packed;
    for (std::size_t b = 0; b < kMaxBatch; ++b) {
        const Vectors v = random_vectors(m, 500 + b);
        xs.push_back(v.x);
        ys.push_back(v.y);
        packed.push_back(
            sim::simulate_spmv(img, v.x, v.y, 1.25f, -0.5f, {}));
    }
    for (const sim::WalkKernel k : {sim::WalkKernel::scalar,
                                    sim::WalkKernel::avx512}) {
        if (!sim::walk_kernel_supported(k))
            continue;
        const auto r = sim::simulate_spmv_decoded(d, xs[0], ys[0], 1.25f,
                                                  -0.5f, {}, k);
        expect_y_equal(r.y, packed[0].y, sim::walk_kernel_name(k));
        expect_stats_equal(r.cycles, packed[0].cycles,
                           sim::walk_kernel_name(k));
    }
    for (const std::size_t batch : {std::size_t{3}, kMaxBatch}) {
        const auto r = sim::simulate_spmv_batch(
            d, std::span(xs.data(), batch), std::span(ys.data(), batch),
            1.25f, -0.5f, {});
        for (std::size_t b = 0; b < batch; ++b)
            expect_y_equal(r.y[b], packed[b].y,
                           "B=" + std::to_string(batch) + " column " +
                               std::to_string(b));
    }
}

TEST(DecodedSim, IndexWordFits18Plus14Bits)
{
    // W = 16384 with the default U * D = 12288.
    expect_exact_budget_shape(one_channel(3, 16384));
}

TEST(DecodedSim, IndexWordFits19Plus13Bits)
{
    // W = 8192 with a full 32k-address URAM.
    expect_exact_budget_shape(one_channel(8, 8192));
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
    // Widths 2-8 run the compile-time-unrolled walk, 9/12/16 the runtime
    // width; together they cover every batch % 4 remainder of the 4-wide
    // vector body, with and without whole vector steps. The R-MAT matrix
    // adds power-law rows, the coalescing = false image the stride-2
    // bank.
    struct Case {
        std::string name;
        sparse::CooMatrix m;
        encode::EncodeParams params;
        std::vector<unsigned> threads;
    };
    const std::vector<Case> cases = {
        {"uniform", sparse::make_uniform_random(4096, 8192, 120'000, 59),
         {.window = 1024}, {1u, 2u, 8u, 0u}},
        {"rmat", sparse::make_rmat(12, 16, 67), {.window = 1024}, {1u, 8u}},
        {"no-coalescing", sparse::make_uniform_random(1024, 1024, 30'000, 73),
         {.window = 512, .coalescing = false}, {1u, 8u}},
    };

    const std::vector<std::size_t> widths = {1, 2, 3, 4, 5, 6,
                                             7, 8, 9, 12, 16};
    const std::size_t max_width = widths.back();
    for (const Case& c : cases) {
        const auto img = encode::encode_matrix(c.m, c.params);
        const auto d = sim::DecodedImage::decode(img);

        // Column b is the same right-hand side at every width.
        std::vector<std::vector<float>> xs, ys;
        std::vector<sim::SimResult> packed;
        for (std::size_t b = 0; b < max_width; ++b) {
            const Vectors v = random_vectors(c.m, 100 + b);
            xs.push_back(v.x);
            ys.push_back(v.y);
            packed.push_back(
                sim::simulate_spmv(img, v.x, v.y, 1.5f, -0.25f, {}));
        }
        for (const std::size_t batch : widths) {
            const std::span<const std::vector<float>> bx(xs.data(), batch);
            const std::span<const std::vector<float>> by(ys.data(), batch);
            for (const unsigned threads : c.threads) {
                sim::SimOptions options;
                options.threads = threads;
                const auto batched = sim::simulate_spmv_batch(
                    d, bx, by, 1.5f, -0.25f, options);
                ASSERT_EQ(batched.y.size(), batch);
                for (std::size_t b = 0; b < batch; ++b) {
                    const std::string label =
                        c.name + " batch=" + std::to_string(batch) +
                        " threads=" + std::to_string(threads) + " col " +
                        std::to_string(b);
                    expect_y_equal(batched.y[b], packed[b].y, label);
                    expect_stats_equal(batched.cycles, packed[b].cycles,
                                       label);
                }
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
