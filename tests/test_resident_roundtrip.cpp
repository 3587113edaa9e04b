// The resident form of a prepared matrix is its decoded stream alone; the
// padded HBM image is rebuilt from it on demand. This suite pins that the
// rebuild is exact: PreparedMatrix::from_image(img).image() serializes to
// the same bytes as img and carries the same EncodeStats, across matrix
// structures, coalescing, schedule policies, channel counts and windows,
// plus degenerate shapes (empty rows, empty columns, 1x1).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "core/accelerator.h"
#include "encode/serialize.h"
#include "sparse/generators.h"

namespace serpens {
namespace {

using encode::EncodeParams;
using encode::SchedulePolicy;
using encode::SerpensImage;

std::string bytes_of(const SerpensImage& img)
{
    std::ostringstream out;
    encode::save_image(out, img);
    return out.str();
}

void expect_exact_rebuild(const SerpensImage& img)
{
    const core::PreparedMatrix prepared = core::PreparedMatrix::from_image(img);
    const SerpensImage rebuilt = prepared.image();
    EXPECT_EQ(bytes_of(rebuilt), bytes_of(img));

    const encode::EncodeStats& a = rebuilt.stats();
    const encode::EncodeStats& b = img.stats();
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.total_slots, b.total_slots);
    EXPECT_EQ(a.padding_slots, b.padding_slots);
    EXPECT_EQ(a.total_lines, b.total_lines);
    EXPECT_EQ(a.num_segments, b.num_segments);
    EXPECT_EQ(prepared.encode_stats().total_lines, b.total_lines);

    EXPECT_EQ(prepared.memory_footprint_bytes(),
              prepared.decoded().memory_bytes());
}

enum class Kind { uniform, rmat, banded };

sparse::CooMatrix make(Kind kind)
{
    switch (kind) {
    case Kind::uniform:
        return sparse::make_uniform_random(700, 900, 9'000, 5);
    case Kind::rmat:
        return sparse::make_rmat(10, 8, 7);
    case Kind::banded:
        return sparse::make_banded(800, 6, 9);
    }
    return sparse::CooMatrix(1, 1);
}

using Case = std::tuple<Kind, bool, SchedulePolicy, unsigned, unsigned>;

class ResidentRoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(ResidentRoundTrip, RebuiltImageSavesByteIdentical)
{
    const auto [kind, coalescing, policy, channels, window] = GetParam();
    EncodeParams p;
    p.coalescing = coalescing;
    p.policy = policy;
    p.ha_channels = channels;
    p.window = window;
    expect_exact_rebuild(encode::encode_matrix(make(kind), p));
}

std::string case_name(const ::testing::TestParamInfo<Case>& info)
{
    const auto [kind, coalescing, policy, channels, window] = info.param;
    static const char* const kinds[] = {"uniform", "rmat", "banded"};
    return std::string(kinds[static_cast<int>(kind)]) +
           (coalescing ? "_coal" : "_nocoal") +
           (policy == SchedulePolicy::fifo ? "_fifo" : "_lbf") + "_ha" +
           std::to_string(channels) + "_w" + std::to_string(window);
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, ResidentRoundTrip,
    ::testing::Combine(
        ::testing::Values(Kind::uniform, Kind::rmat, Kind::banded),
        ::testing::Bool(),
        ::testing::Values(SchedulePolicy::fifo,
                          SchedulePolicy::largest_bucket_first),
        ::testing::Values(1u, 4u, 16u), ::testing::Values(16u, 8192u)),
    case_name);

TEST(ResidentRoundTripShapes, EmptyRowsAndColumns)
{
    // Every other row and column empty, and a trailing block of both.
    sparse::CooMatrix m(300, 500);
    for (sparse::index_t r = 0; r < 200; r += 2)
        for (sparse::index_t c = 0; c < 400; c += 14)
            m.add(r, c, 0.5f + static_cast<float>(r + c));
    EncodeParams p;
    p.window = 64;
    expect_exact_rebuild(encode::encode_matrix(m, p));
}

TEST(ResidentRoundTripShapes, AllEmptyMatrix)
{
    expect_exact_rebuild(encode::encode_matrix(sparse::CooMatrix(64, 64), {}));
}

TEST(ResidentRoundTripShapes, OneByOne)
{
    sparse::CooMatrix m(1, 1);
    m.add(0, 0, -3.25f);
    expect_exact_rebuild(encode::encode_matrix(m, {}));
}

TEST(ResidentRoundTripShapes, LoadedImagesRebuildExactly)
{
    // v1 and v2 files both come back byte-identical through the resident
    // form (the WAL and --save-image write what --load-image read).
    const SerpensImage img =
        encode::encode_matrix(sparse::make_rmat(9, 6, 3), {});
    for (const std::uint32_t version : {1u, 2u}) {
        std::stringstream buf;
        encode::save_image(buf, img, version);
        expect_exact_rebuild(encode::load_image(buf));
    }
}

} // namespace
} // namespace serpens
