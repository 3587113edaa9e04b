// Lockdown of the decoded engines' B=1 kernels (sim/walk.h).
//
// The scalar kernel, the AVX-512 kernel (where this CPU has it) and the
// packed walk must give bit-identical y and CycleStats: the SIMD kernel
// runs only the aligned 8-element groups whose accumulators are pairwise
// distinct (DecodedImage::Channel::simd_ok), with a separate multiply and
// add, so no accumulator sees a different addition order or rounding.
// simd_ok itself is pinned against a brute-force recount and across decode
// thread counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "encode/image.h"
#include "sim/decoded_image.h"
#include "sim/simulator.h"
#include "sim/walk.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace serpens {
namespace {

using sim::WalkKernel;

constexpr float kAlpha = 1.25f;
constexpr float kBeta = -0.5f;

// The kernels this host can run; says once when the SIMD one is missing.
std::vector<WalkKernel> kernels()
{
    if (sim::walk_kernel_supported(WalkKernel::avx512))
        return {WalkKernel::scalar, WalkKernel::avx512};
    static const bool said = [] {
        std::printf("[ SimdWalk ] no AVX-512F/VL on this host or build: "
                    "ran the scalar kernel only\n");
        return true;
    }();
    (void)said;
    return {WalkKernel::scalar};
}

void expect_same(const sim::SimResult& got, const sim::SimResult& want,
                 const std::string& label)
{
    ASSERT_EQ(got.y.size(), want.y.size()) << label;
    for (std::size_t i = 0; i < want.y.size(); ++i)
        ASSERT_EQ(float_bits(got.y[i]), float_bits(want.y[i]))
            << label << " row " << i;
    EXPECT_EQ(got.cycles.x_load_cycles, want.cycles.x_load_cycles) << label;
    EXPECT_EQ(got.cycles.compute_cycles, want.cycles.compute_cycles) << label;
    EXPECT_EQ(got.cycles.y_phase_cycles, want.cycles.y_phase_cycles) << label;
    EXPECT_EQ(got.cycles.fill_cycles, want.cycles.fill_cycles) << label;
    EXPECT_EQ(got.cycles.total_slots, want.cycles.total_slots) << label;
    EXPECT_EQ(got.cycles.padding_slots, want.cycles.padding_slots) << label;
    EXPECT_EQ(got.cycles.traffic.bytes_read, want.cycles.traffic.bytes_read)
        << label;
    EXPECT_EQ(got.cycles.traffic.bytes_written,
              want.cycles.traffic.bytes_written)
        << label;
}

// Every decoded engine at B=1 — each kernel, the host kernel threaded, and
// the batched engine at width 1 — against the packed walk.
void expect_kernels_match_packed(const encode::SerpensImage& img,
                                 const sim::DecodedImage& d,
                                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> x(img.cols()), y(img.rows());
    for (float& v : x)
        v = rng.next_float(-1.0f, 1.0f);
    for (float& v : y)
        v = rng.next_float(-1.0f, 1.0f);

    sim::SimOptions options;
    const sim::SimResult packed =
        sim::simulate_spmv(img, x, y, kAlpha, kBeta, options);
    for (const WalkKernel k : kernels())
        expect_same(sim::simulate_spmv_decoded(d, x, y, kAlpha, kBeta,
                                               options, k),
                    packed, sim::walk_kernel_name(k));

    options.threads = 3;
    expect_same(sim::simulate_spmv_decoded(d, x, y, kAlpha, kBeta, options),
                packed, "host kernel, 3 threads");

    const std::vector<std::vector<float>> xs{x}, ys{y};
    const sim::SimBatchResult batch =
        sim::simulate_spmv_batch(d, xs, ys, kAlpha, kBeta, options);
    ASSERT_EQ(batch.y.size(), 1u);
    expect_same({batch.y[0], batch.cycles}, packed, "batch of one");
}

bool group_distinct(const std::vector<std::uint32_t>& idx, unsigned col_bits,
                    std::size_t g)
{
    std::set<std::uint32_t> seen;
    for (std::size_t i = 0; i < sim::DecodedImage::kSimdGroup; ++i)
        seen.insert(idx[g * sim::DecodedImage::kSimdGroup + i] >> col_bits);
    return seen.size() == sim::DecodedImage::kSimdGroup;
}

// simd_ok recounted from the accumulator offsets in idx: one bit per whole
// group, set iff the group's offsets are distinct, and no stray bit past
// the last group.
// Returns {groups, conflict-free groups}.
std::pair<std::size_t, std::size_t> expect_simd_ok_recount(
    const sim::DecodedImage& d)
{
    std::size_t groups = 0, free = 0;
    for (unsigned ch = 0; ch < d.channels(); ++ch) {
        const sim::DecodedImage::Channel& c = d.channel(ch);
        const std::size_t n = c.idx.size() / sim::DecodedImage::kSimdGroup;
        EXPECT_EQ(c.simd_ok.size(), (n + 63) / 64) << "channel " << ch;
        for (std::size_t g = 0; g < c.simd_ok.size() * 64; ++g) {
            const bool bit = ((c.simd_ok[g / 64] >> (g % 64)) & 1u) != 0;
            const bool want = g < n && group_distinct(c.idx, d.col_bits(), g);
            EXPECT_EQ(bit, want) << "channel " << ch << " group " << g;
            free += bit ? 1 : 0;
        }
        groups += n;
    }
    return {groups, free};
}

// R-MAT is square with a power-of-two side; crop it so the row count is not
// a multiple of any 2 * PE count and the last x segment is partial.
sparse::CooMatrix cropped_rmat(std::uint64_t seed)
{
    const sparse::CooMatrix full = sparse::make_rmat(11, 8, seed);
    sparse::CooMatrix m(1999, 1900);
    for (const sparse::Triplet& t : full.elements())
        if (t.row < m.rows() && t.col < m.cols())
            m.add(t.row, t.col, t.val);
    return m;
}

enum class Family { uniform, rmat, banded };

sparse::CooMatrix make(Family f, std::uint64_t seed)
{
    switch (f) {
    case Family::uniform:
        return sparse::make_uniform_random(1237, 1500, 14'000, seed);
    case Family::rmat:
        return cropped_rmat(seed);
    case Family::banded:
        return sparse::make_banded(1237, 7, seed);
    }
    return sparse::CooMatrix(1, 1);
}

using Case = std::tuple<Family, bool, unsigned>;

class SimdWalk : public ::testing::TestWithParam<Case> {};

TEST_P(SimdWalk, KernelsMatchPackedOracle)
{
    const auto [family, coalescing, channels] = GetParam();
    encode::EncodeParams p;
    p.coalescing = coalescing;
    p.ha_channels = channels;
    p.window = 512;
    const auto img = encode::encode_matrix(make(family, 7 + channels), p);
    ASSERT_NE(img.rows() % (2 * p.total_pes()), 0u);
    ASSERT_NE(img.cols() % p.window, 0u);

    const auto d = sim::DecodedImage::decode(img);
    expect_simd_ok_recount(d);
    expect_kernels_match_packed(img, d, 31);
}

TEST_P(SimdWalk, SimdOkIdenticalAcrossDecodeThreads)
{
    const auto [family, coalescing, channels] = GetParam();
    encode::EncodeParams p;
    p.coalescing = coalescing;
    p.ha_channels = channels;
    p.window = 512;
    const auto img = encode::encode_matrix(make(family, 7 + channels), p);
    const auto serial = sim::DecodedImage::decode(img, {.threads = 1});
    for (const unsigned threads : {2u, 8u}) {
        const auto parallel =
            sim::DecodedImage::decode(img, {.threads = threads});
        for (unsigned ch = 0; ch < serial.channels(); ++ch)
            EXPECT_EQ(parallel.channel(ch).simd_ok, serial.channel(ch).simd_ok)
                << threads << " threads, channel " << ch;
    }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info)
{
    const auto [family, coalescing, channels] = info.param;
    static const char* const families[] = {"uniform", "rmat", "banded"};
    return std::string(families[static_cast<int>(family)]) +
           (coalescing ? "_coal" : "_nocoal") + "_ha" +
           std::to_string(channels);
}

// ha_channels 28 is 224 PEs: the y-extraction's row blocks must not assume
// a power-of-two PE count.
INSTANTIATE_TEST_SUITE_P(
    Matrices, SimdWalk,
    ::testing::Combine(::testing::Values(Family::uniform, Family::rmat,
                                         Family::banded),
                       ::testing::Bool(), ::testing::Values(1u, 3u, 16u, 28u)),
    case_name);

TEST(SimdWalkStreams, EveryGroupConflicts)
{
    // Two dense rows on one channel: the decoded stream alternates between
    // the two halves of one URAM word, so every group of 8 repeats an
    // accumulator and the SIMD kernel runs nothing 8-wide.
    sparse::CooMatrix m(2, 300);
    for (sparse::index_t c = 0; c < 300; ++c) {
        m.add(0, c, 0.25f + static_cast<float>(c));
        m.add(1, c, -1.5f + static_cast<float>(c) * 0.125f);
    }
    encode::EncodeParams p;
    p.ha_channels = 1;
    p.window = 128;
    const auto img = encode::encode_matrix(m, p);
    const auto d = sim::DecodedImage::decode(img);
    const auto [groups, free] = expect_simd_ok_recount(d);
    EXPECT_EQ(groups, 600u / sim::DecodedImage::kSimdGroup);
    EXPECT_EQ(free, 0u);
    expect_kernels_match_packed(img, d, 5);
}

TEST(SimdWalkStreams, NoGroupConflicts)
{
    // A diagonal puts every element on its own accumulator, so every whole
    // group runs 8-wide and only the tail runs scalar.
    const sparse::CooMatrix m = sparse::make_diagonal(4093, 1.5f);
    for (const unsigned channels : {1u, 16u}) {
        encode::EncodeParams p;
        p.ha_channels = channels;
        const auto img = encode::encode_matrix(m, p);
        const auto d = sim::DecodedImage::decode(img);
        const auto [groups, free] = expect_simd_ok_recount(d);
        EXPECT_GT(groups, 0u);
        EXPECT_EQ(free, groups) << channels << " channels";
        expect_kernels_match_packed(img, d, 6);
    }
}

TEST(SimdWalkStreams, HostKernelIsTheWidestSupported)
{
    EXPECT_TRUE(sim::walk_kernel_supported(WalkKernel::scalar));
    EXPECT_EQ(sim::host_walk_kernel(),
              sim::walk_kernel_supported(WalkKernel::avx512)
                  ? WalkKernel::avx512
                  : WalkKernel::scalar);
    std::printf("[ SimdWalk ] host B=1 kernel: %s\n",
                sim::walk_kernel_name(sim::host_walk_kernel()));
}

TEST(SimdWalkStreams, BitsetIsCountedInMemoryBytes)
{
    const auto m = sparse::make_uniform_random(4000, 4000, 40'000, 3);
    const auto d = sim::DecodedImage::decode(encode::encode_matrix(m, {}));
    std::uint64_t bitset = 0, rest = 0;
    for (unsigned ch = 0; ch < d.channels(); ++ch) {
        const auto& c = d.channel(ch);
        bitset += c.simd_ok.size() * sizeof(std::uint64_t);
        rest += (c.idx.size() + c.value.size() + c.seg_lines.size()) * 4 +
                c.seg_begin.size() * sizeof(std::size_t) + c.lane_mask.size();
    }
    rest += d.num_segments() * 4 +
            std::uint64_t{d.channels()} * d.params().pes_per_channel *
                d.used_addrs() * 2 * sizeof(float);
    // One bit per 8 elements, rounded up to a word per channel.
    EXPECT_GT(bitset, 0u);
    EXPECT_LE(bitset, d.nnz() / 64 + 8 * d.channels());
    EXPECT_EQ(d.memory_bytes(), rest + bitset);
}

} // namespace
} // namespace serpens
