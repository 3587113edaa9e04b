// Tests for image serialization: round-trips, error paths, and the
// end-to-end "preprocess offline, load, run" workflow.
#include <gtest/gtest.h>

#include <sstream>

#include "core/accelerator.h"
#include "encode/decode.h"
#include "encode/serialize.h"
#include "sparse/generators.h"
#include "util/bitpack.h"

namespace serpens::encode {
namespace {

EncodeParams small_params()
{
    EncodeParams p;
    p.ha_channels = 2;
    p.window = 128;
    return p;
}

SerpensImage make_image(std::uint64_t seed = 3)
{
    const auto m = sparse::make_uniform_random(300, 400, 3000, seed);
    return encode_matrix(m, small_params());
}

TEST(Serialize, RoundTripPreservesEverything)
{
    const SerpensImage img = make_image();
    std::stringstream buf;
    save_image(buf, img);
    const SerpensImage back = load_image(buf);

    EXPECT_EQ(back.rows(), img.rows());
    EXPECT_EQ(back.cols(), img.cols());
    EXPECT_EQ(back.num_segments(), img.num_segments());
    EXPECT_EQ(back.channels(), img.channels());
    EXPECT_EQ(back.params().window, img.params().window);
    EXPECT_EQ(back.params().coalescing, img.params().coalescing);
    for (unsigned c = 0; c < img.channels(); ++c) {
        ASSERT_EQ(back.channel(c).size(), img.channel(c).size());
        for (std::size_t i = 0; i < img.channel(c).size(); ++i)
            ASSERT_EQ(back.channel(c).line(i), img.channel(c).line(i));
        for (unsigned s = 0; s < img.num_segments(); ++s)
            ASSERT_EQ(back.segment_lines(c, s), img.segment_lines(c, s));
    }
}

TEST(Serialize, StatsRecomputedOnLoad)
{
    const SerpensImage img = make_image();
    std::stringstream buf;
    save_image(buf, img);
    const SerpensImage back = load_image(buf);
    EXPECT_EQ(back.stats().nnz, img.stats().nnz);
    EXPECT_EQ(back.stats().total_slots, img.stats().total_slots);
    EXPECT_EQ(back.stats().padding_slots, img.stats().padding_slots);
}

TEST(Serialize, DecodedMatrixSurvivesRoundTrip)
{
    const auto m = sparse::make_banded(256, 8, 9);
    const SerpensImage img = encode_matrix(m, small_params());
    std::stringstream buf;
    save_image(buf, img);
    const SerpensImage back = load_image(buf);
    EXPECT_EQ(decode_image(back), decode_image(img));
    EXPECT_NO_THROW(verify_image(back));
}

TEST(Serialize, FileRoundTripAndRun)
{
    // The production workflow: encode, save, load, wrap, run.
    const std::string path = ::testing::TempDir() + "/serpens_image_test.img";
    const auto m = sparse::make_uniform_random(200, 200, 2000, 5);

    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.arch = small_params();
    const core::Accelerator acc(cfg);

    save_image_file(path, encode_matrix(m, cfg.arch));
    auto prepared = core::PreparedMatrix::from_image(load_image_file(path));

    std::vector<float> x(200, 1.0f), y(200, 0.0f);
    const auto from_file = acc.run(prepared, x, y);
    const auto direct = acc.run(acc.prepare(m), x, y);
    EXPECT_EQ(from_file.y, direct.y);
    EXPECT_EQ(from_file.cycles.total_cycles(), direct.cycles.total_cycles());
}

TEST(Serialize, LoadedImageReachesTheEncodePathsResidentState)
{
    // Regression for the --load-image path: a loaded image must reach the
    // same resident state the encode path reaches — decoded once at load,
    // the same footprint charged to the registry budget, the same results.
    const std::string path = ::testing::TempDir() + "/serpens_warm_test.img";
    const auto m = sparse::make_uniform_random(220, 220, 2400, 7);

    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.arch = small_params();
    const core::Accelerator acc(cfg);

    const auto encoded = acc.prepare(m);
    save_image_file(path, encoded.image());
    const auto loaded = core::PreparedMatrix::from_image(load_image_file(path));
    EXPECT_EQ(loaded.memory_footprint_bytes(),
              encoded.memory_footprint_bytes());

    std::vector<float> x(220, 0.5f), y(220, 1.0f);
    const auto direct = acc.run(encoded, x, y, 1.5f, -0.5f);
    const auto from_loaded = acc.run(loaded, x, y, 1.5f, -0.5f);
    EXPECT_EQ(from_loaded.y, direct.y);
    EXPECT_EQ(from_loaded.cycles.total_cycles(),
              direct.cycles.total_cycles());

    // Both equal the packed walk over the file's own image.
    const auto packed =
        sim::simulate_spmv(load_image_file(path), x, y, 1.5f, -0.5f);
    EXPECT_EQ(from_loaded.y, packed.y);
    EXPECT_EQ(from_loaded.cycles.total_cycles(),
              packed.cycles.total_cycles());
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE this is not an image";
    EXPECT_THROW(load_image(buf), ImageFormatError);
}

TEST(Serialize, RejectsTruncatedHeader)
{
    const SerpensImage img = make_image();
    std::stringstream buf;
    save_image(buf, img);
    const std::string full = buf.str();
    std::stringstream cut(full.substr(0, 16));
    EXPECT_THROW(load_image(cut), ImageFormatError);
}

TEST(Serialize, RejectsTruncatedLineData)
{
    const SerpensImage img = make_image();
    std::stringstream buf;
    save_image(buf, img);
    const std::string full = buf.str();
    std::stringstream cut(full.substr(0, full.size() - 32));
    EXPECT_THROW(load_image(cut), ImageFormatError);
}

TEST(Serialize, RejectsUnknownVersion)
{
    const SerpensImage img = make_image();
    std::stringstream buf;
    save_image(buf, img);
    std::string bytes = buf.str();
    bytes[4] = 99;  // version byte
    std::stringstream bad(bytes);
    EXPECT_THROW(load_image(bad), ImageFormatError);
}

TEST(Serialize, MissingFileThrows)
{
    EXPECT_THROW(load_image_file("/nonexistent/path.img"), ImageFormatError);
}

std::string serialized_bytes(const SerpensImage& img,
                             std::uint32_t version = kImageFormatVersion)
{
    std::stringstream buf;
    save_image(buf, img, version);
    return buf.str();
}

SerpensImage small_image()
{
    // Small on purpose: the fuzz tests below load thousands of mutated
    // copies, so the byte count is the test's run time.
    const auto m = sparse::make_uniform_random(60, 80, 400, 11);
    return encode_matrix(m, small_params());
}

TEST(Serialize, EveryTruncationIsRejectedNeverMisloaded)
{
    // Exhaustive truncation fuzz: every proper prefix of a v2 image must
    // throw ImageFormatError — a torn download can never come back as a
    // shorter-but-plausible image.
    const std::string full = serialized_bytes(small_image());
    ASSERT_GT(full.size(), 64u);
    for (std::size_t n = 0; n < full.size(); ++n) {
        std::stringstream cut(full.substr(0, n));
        EXPECT_THROW(load_image(cut), ImageFormatError) << "prefix " << n;
    }
}

TEST(Serialize, SingleBitFlipsAreRejected)
{
    // Integrity fuzz: with every section checksummed, a single flipped bit
    // anywhere in the file must be rejected. The magic and version fields
    // sit outside the CRCs, but flips there fail their own validation (a
    // bad magic, or a version that is neither 1 nor 2 — no single-bit flip
    // turns 2 into 1).
    const std::string full = serialized_bytes(small_image());
    const std::size_t total_bits = full.size() * 8;
    for (std::size_t bit = 0; bit < total_bits;
         bit += (bit < 64 * 8 ? 1 : 101)) {
        std::string bad = full;
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        std::stringstream in(bad);
        EXPECT_THROW(load_image(in), ImageFormatError) << "bit " << bit;
    }
}

TEST(Serialize, TrailingBytesAfterV2ImageAreRejected)
{
    std::string bytes = serialized_bytes(small_image());
    bytes += '\0';
    std::stringstream in(bytes);
    EXPECT_THROW(load_image(in), ImageFormatError);
}

TEST(Serialize, Version1FilesRemainLoadable)
{
    // Integrity checking is an upgrade, not a migration: a pre-CRC v1
    // image still loads and decodes identically.
    const SerpensImage img = make_image();
    const std::string v1 = serialized_bytes(img, 1);
    const std::string v2 = serialized_bytes(img);
    EXPECT_LT(v1.size(), v2.size());  // v2 carries the checksums

    std::stringstream in(v1);
    const SerpensImage back = load_image(in);
    EXPECT_EQ(decode_image(back), decode_image(img));
}

TEST(Serialize, RefusesToWriteUnknownVersions)
{
    const SerpensImage img = small_image();
    std::stringstream buf;
    EXPECT_THROW(save_image(buf, img, 3), ImageFormatError);
    EXPECT_THROW(save_image(buf, img, 0), ImageFormatError);
}

TEST(Serialize, ChecksumMismatchNamesTheSection)
{
    // Corrupt one byte in the middle of the line data: the error should
    // point at a checksum, not at a generic parse failure.
    std::string bytes = serialized_bytes(small_image());
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
    std::stringstream in(bytes);
    try {
        load_image(in);
        FAIL() << "corrupted image loaded";
    } catch (const ImageFormatError& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
            << e.what();
    }
}

// Corrupt one lane of `img` in place: the first padding slot found gets a
// non-zero value word (kind == padding), or the first valid element gets
// its reserved index bit set (kind == reserved).
enum class Corruption { padding, reserved };
void corrupt_one_lane(SerpensImage& img, Corruption kind)
{
    for (unsigned c = 0; c < img.channels(); ++c) {
        hbm::ChannelStream& stream = img.mutable_channel(c);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            hbm::Line512 line = stream.line(i);
            for (unsigned lane = 0; lane < hbm::kElemsPerLine; ++lane) {
                const std::uint64_t bits = line.lane64(lane);
                const bool valid = EncodedElement::from_bits(bits).valid();
                if (kind == Corruption::padding && !valid) {
                    line.set_lane64(lane, float_bits(1.0f));
                } else if (kind == Corruption::reserved && valid) {
                    line.set_lane64(lane,
                                    bits | (std::uint64_t{1}
                                            << (32 + kReservedBit)));
                } else {
                    continue;
                }
                // ChannelStream is append-only; rebuild it with the edit.
                hbm::ChannelStream edited(stream.name());
                for (std::size_t j = 0; j < stream.size(); ++j)
                    edited.push(j == i ? line : stream.line(j));
                stream = std::move(edited);
                return;
            }
        }
    }
    FAIL() << "image has no lane to corrupt";
}

void expect_decode_rejects(Corruption kind)
{
    for (const std::uint32_t version : {1u, 2u}) {
        SerpensImage img = small_image();
        ASSERT_GT(img.stats().padding_slots, 0u);
        corrupt_one_lane(img, kind);
        // The v2 writer recomputes every section CRC over the corrupted
        // lines, so the file loads and the decode check is what fires.
        std::stringstream in(serialized_bytes(img, version));
        const SerpensImage loaded = load_image(in);
        EXPECT_THROW(core::PreparedMatrix::from_image(loaded), CheckError)
            << "version " << version;
    }
}

TEST(Serialize, DecodeRejectsPaddingSlotWithNonZeroBits)
{
    expect_decode_rejects(Corruption::padding);
}

TEST(Serialize, DecodeRejectsReservedIndexBit)
{
    expect_decode_rejects(Corruption::reserved);
}

TEST(Serialize, DecodeRejectsColumnBeyondCols)
{
    // One channel, window 16, 20 columns: segment 1 is 4 columns wide, but
    // its elements' 14-bit col_off can still name offsets 4..15. An
    // element at col_off 10 there would be column 26 of a 20-float x.
    sparse::CooMatrix m(4, 20);
    m.add(0, 19, 2.0f);
    m.add(1, 2, 3.0f);
    EncodeParams p;
    p.ha_channels = 1;
    p.window = 16;
    const SerpensImage good = encode_matrix(m, p);
    ASSERT_EQ(good.num_segments(), 2u);
    EXPECT_NO_THROW(core::PreparedMatrix::from_image(good));

    SerpensImage bad = good;
    hbm::ChannelStream& stream = bad.mutable_channel(0);
    const std::size_t line_at = bad.segment_lines(0, 0);
    ASSERT_EQ(bad.segment_lines(0, 1), 1u);
    hbm::Line512 line = stream.line(line_at);
    const auto e = EncodedElement::from_bits(line.lane64(0));
    ASSERT_TRUE(e.valid());
    ASSERT_EQ(e.col_off(), 3u);
    line.set_lane64(
        0, EncodedElement::make(e.pair_addr(), e.half(), 10, e.value()).bits());
    hbm::ChannelStream edited(stream.name());
    for (std::size_t j = 0; j < stream.size(); ++j)
        edited.push(j == line_at ? line : stream.line(j));
    stream = std::move(edited);

    for (const std::uint32_t version : {1u, 2u}) {
        std::stringstream in(serialized_bytes(bad, version));
        const SerpensImage loaded = load_image(in);
        EXPECT_THROW(verify_image(loaded), CheckError) << "version " << version;
        EXPECT_THROW(core::PreparedMatrix::from_image(loaded), CheckError)
            << "version " << version;
    }
}

TEST(Serialize, EmptyMatrixImageRoundTrips)
{
    const sparse::CooMatrix m(64, 64);
    const SerpensImage img = encode_matrix(m, small_params());
    std::stringstream buf;
    save_image(buf, img);
    const SerpensImage back = load_image(buf);
    EXPECT_EQ(back.stats().nnz, 0u);
    for (unsigned c = 0; c < back.channels(); ++c)
        EXPECT_TRUE(back.channel(c).empty());
}

} // namespace
} // namespace serpens::encode
