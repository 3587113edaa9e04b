// serve::MatrixRegistry lockdown: byte-accounted admission, LRU eviction
// at the budget boundary, re-admission re-encoding, the admit_image path,
// and PreparedMatrix::memory_footprint_bytes itself (the number every
// budget decision is made with).
#include <gtest/gtest.h>

#include "encode/serialize.h"
#include "serve/registry.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

#include <sstream>

namespace serpens {
namespace {

core::SerpensConfig config_with_budget(std::uint64_t budget)
{
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.resident_budget_bytes = budget;
    return cfg;
}

sparse::CooMatrix small_matrix(std::uint64_t seed)
{
    return sparse::make_uniform_random(1024, 1024, 20'000, seed);
}

// Footprint of `m` admitted under this config (encode + decode).
std::uint64_t footprint_of(const sparse::CooMatrix& m)
{
    const core::Accelerator acc(core::SerpensConfig::a16());
    return acc.prepare(m).memory_footprint_bytes();
}

TEST(ServeRegistry, FootprintIsTheDecodedStreamAlone)
{
    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(small_matrix(1));

    // Only the decoded stream is resident: the padded lines are dropped
    // after decode and rebuilt on demand, so they are not charged.
    const std::uint64_t footprint = prepared.memory_footprint_bytes();
    EXPECT_EQ(footprint, prepared.decoded().memory_bytes());
    // The SoA arrays alone (8 B per element: one packed index word and
    // one value) bound it from below.
    EXPECT_GE(footprint, prepared.nnz() * 8);
    // The padded lines can be priced without a rebuild (the CLI's memory
    // line does): total_lines x 64 B is exactly what image() rebuilds.
    const encode::SerpensImage img = prepared.image();
    std::uint64_t line_bytes = 0;
    for (unsigned c = 0; c < img.channels(); ++c)
        line_bytes += img.channel(c).bytes();
    EXPECT_EQ(line_bytes,
              prepared.encode_stats().total_lines * hbm::kLineBytes);
}

TEST(ServeRegistry, AdmissionWarmsDecodeAndAccounts)
{
    serve::MatrixRegistry reg(config_with_budget(0));
    const auto resident = reg.admit("a", small_matrix(2));
    ASSERT_NE(resident, nullptr);
    // Admission pays the decode up front: the resident's footprint is the
    // decoded stream, and hits never build anything.
    EXPECT_EQ(resident->memory_footprint_bytes(),
              resident->decoded().memory_bytes());
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.bytes_resident(), resident->memory_footprint_bytes());

    const auto hit = reg.get("a");
    EXPECT_EQ(hit.get(), resident.get());
    EXPECT_EQ(reg.get("missing"), nullptr);

    const auto stats = reg.stats();
    EXPECT_EQ(stats.admissions, 1u);
    EXPECT_EQ(stats.encodes, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ServeRegistry, LruEvictionAtBudgetBoundary)
{
    const sparse::CooMatrix a = small_matrix(3);
    const sparse::CooMatrix b = small_matrix(4);
    const sparse::CooMatrix c = small_matrix(5);
    const std::uint64_t fa = footprint_of(a);
    const std::uint64_t fb = footprint_of(b);
    const std::uint64_t fc = footprint_of(c);

    // Room for exactly two of the three (they are near-identical in size).
    serve::MatrixRegistry reg(config_with_budget(fa + fb + fc / 2));
    reg.admit("a", a);
    reg.admit("b", b);
    EXPECT_EQ(reg.size(), 2u);

    // Touch a so b becomes the LRU victim.
    ASSERT_NE(reg.get("a"), nullptr);
    reg.admit("c", c);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.get("b"), nullptr);
    ASSERT_NE(reg.get("a"), nullptr);
    ASSERT_NE(reg.get("c"), nullptr);
    EXPECT_EQ(reg.stats().evictions, 1u);
    EXPECT_EQ(reg.stats().replacements, 0u);
    EXPECT_LE(reg.bytes_resident(), reg.budget_bytes());

    // MRU-first listing.
    const auto names = reg.resident_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "c");
    EXPECT_EQ(names[1], "a");
}

TEST(ServeRegistry, ExactBudgetAdmitsAndOversizeThrows)
{
    const sparse::CooMatrix a = small_matrix(6);
    const std::uint64_t fa = footprint_of(a);

    serve::MatrixRegistry exact(config_with_budget(fa));
    EXPECT_NE(exact.admit("a", a), nullptr);
    EXPECT_EQ(exact.bytes_resident(), fa);

    serve::MatrixRegistry tight(config_with_budget(fa - 1));
    EXPECT_THROW(tight.admit("a", a), std::invalid_argument);
    EXPECT_EQ(tight.size(), 0u);
    EXPECT_EQ(tight.bytes_resident(), 0u);
    // A rejected admission counts nothing — encodes stays in sync with
    // admissions.
    EXPECT_EQ(tight.stats().encodes, 0u);
    EXPECT_EQ(tight.stats().admissions, 0u);
}

TEST(ServeRegistry, ReAdmissionReEncodesIdentically)
{
    const sparse::CooMatrix a = small_matrix(7);
    const sparse::CooMatrix b = small_matrix(8);
    const std::uint64_t fa = footprint_of(a);
    const std::uint64_t fb = footprint_of(b);
    serve::MatrixRegistry reg(config_with_budget(std::max(fa, fb) + fb / 2));

    const auto first = reg.admit("a", a);
    Rng rng(99);
    std::vector<float> x(a.cols()), y(a.rows(), 0.0f);
    for (float& v : x)
        v = rng.next_float(-1.0f, 1.0f);
    const auto r1 = reg.accelerator().run(*first, x, y, 1.5f, 0.0f);

    // b evicts a; re-admitting a must pay encode again and still produce
    // bit-identical results (the in-flight handle keeps working meanwhile).
    reg.admit("b", b);
    EXPECT_EQ(reg.get("a"), nullptr);
    EXPECT_EQ(reg.stats().evictions, 1u);
    EXPECT_EQ(reg.stats().replacements, 0u);
    const auto again = reg.admit("a", a);
    EXPECT_NE(again.get(), first.get());
    EXPECT_EQ(reg.stats().encodes, 3u);

    const auto r2 = reg.accelerator().run(*again, x, y, 1.5f, 0.0f);
    const auto r_old = reg.accelerator().run(*first, x, y, 1.5f, 0.0f);
    ASSERT_EQ(r1.y.size(), r2.y.size());
    for (std::size_t i = 0; i < r1.y.size(); ++i) {
        EXPECT_EQ(float_bits(r1.y[i]), float_bits(r2.y[i])) << i;
        EXPECT_EQ(float_bits(r1.y[i]), float_bits(r_old.y[i])) << i;
    }
}

TEST(ServeRegistry, SameNameReplaces)
{
    serve::MatrixRegistry reg(config_with_budget(0));
    const auto v1 = reg.admit("m", small_matrix(9));
    const auto v2 = reg.admit("m", small_matrix(10));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NE(v1.get(), v2.get());
    EXPECT_EQ(reg.get("m").get(), v2.get());
    // The name never left the resident set: this is a replacement, not an
    // eviction. The old accounting charged evictions here, which made
    // capacity-pressure dashboards read phantom budget churn.
    EXPECT_EQ(reg.stats().evictions, 0u);
    EXPECT_EQ(reg.stats().replacements, 1u);
    EXPECT_EQ(reg.stats().admissions, 2u);
    EXPECT_EQ(reg.bytes_resident(), v2->memory_footprint_bytes());
}

TEST(ServeRegistry, ExplicitEvict)
{
    serve::MatrixRegistry reg(config_with_budget(0));
    reg.admit("m", small_matrix(11));
    EXPECT_TRUE(reg.evict("m"));
    EXPECT_FALSE(reg.evict("m"));
    // The failed second evict charges nothing.
    EXPECT_EQ(reg.stats().evictions, 1u);
    EXPECT_EQ(reg.stats().replacements, 0u);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.bytes_resident(), 0u);
}

TEST(ServeRegistry, AdmitImageMatchesCooAdmission)
{
    const sparse::CooMatrix m = small_matrix(12);

    serve::MatrixRegistry reg(config_with_budget(0));
    const auto from_coo = reg.admit("coo", m);

    // Round-trip the image through the serializer — the --load-image
    // workflow — and admit the loaded bytes.
    std::stringstream buffer;
    encode::save_image(buffer, from_coo->image());
    const auto from_img = reg.admit_image("img", encode::load_image(buffer));
    EXPECT_EQ(from_img->memory_footprint_bytes(),
              from_coo->memory_footprint_bytes());

    Rng rng(55);
    std::vector<float> x(m.cols()), y(m.rows());
    for (float& v : x)
        v = rng.next_float(-1.0f, 1.0f);
    for (float& v : y)
        v = rng.next_float(-1.0f, 1.0f);
    const auto ra = reg.accelerator().run(*from_coo, x, y, 0.75f, 1.25f);
    const auto rb = reg.accelerator().run(*from_img, x, y, 0.75f, 1.25f);
    ASSERT_EQ(ra.y.size(), rb.y.size());
    for (std::size_t i = 0; i < ra.y.size(); ++i)
        EXPECT_EQ(float_bits(ra.y[i]), float_bits(rb.y[i])) << i;

    // encode() was paid once — the image admission skipped it.
    EXPECT_EQ(reg.stats().encodes, 1u);
    EXPECT_EQ(reg.stats().admissions, 2u);
}

TEST(ServeRegistry, AdmitImageRejectsWrongChannelCount)
{
    const sparse::CooMatrix m = small_matrix(13);
    const core::Accelerator a24(core::SerpensConfig::a24());
    const auto prepared = a24.prepare(m);
    std::stringstream buffer;
    encode::save_image(buffer, prepared.image());

    serve::MatrixRegistry reg(config_with_budget(0));  // A16 registry
    EXPECT_THROW(reg.admit_image("m", encode::load_image(buffer)),
                 std::invalid_argument);
}

} // namespace
} // namespace serpens
