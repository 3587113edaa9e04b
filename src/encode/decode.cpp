#include "encode/decode.h"

#include <algorithm>
#include <unordered_map>

namespace serpens::encode {

std::vector<sparse::Triplet> decode_image(const SerpensImage& img)
{
    const EncodeParams& p = img.params();
    const RowMapping mapping(p);
    const unsigned lanes = p.pes_per_channel;

    std::vector<sparse::Triplet> out;
    out.reserve(img.stats().nnz);

    for (unsigned ch = 0; ch < img.channels(); ++ch) {
        std::size_t line_at = 0;
        for (unsigned seg = 0; seg < img.num_segments(); ++seg) {
            const std::uint32_t depth = img.segment_lines(ch, seg);
            for (std::uint32_t i = 0; i < depth; ++i) {
                const hbm::Line512& line = img.channel(ch).line(line_at + i);
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    const auto e = EncodedElement::from_bits(line.lane64(lane));
                    if (!e.valid())
                        continue;
                    const unsigned pe = ch * lanes + lane;
                    const index_t row =
                        mapping.row_of({pe, e.pair_addr(), e.half()});
                    const index_t col =
                        static_cast<index_t>(seg) * p.window + e.col_off();
                    out.push_back({row, col, e.value()});
                }
            }
            line_at += depth;
        }
        SERPENS_ASSERT(line_at == img.channel(ch).size(),
                       "segment line counts disagree with the stream length");
    }

    std::sort(out.begin(), out.end(), [](const sparse::Triplet& a,
                                         const sparse::Triplet& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    return out;
}

void verify_image(const SerpensImage& img)
{
    const EncodeParams& p = img.params();
    const unsigned lanes = p.pes_per_channel;
    const unsigned window = p.dsp_latency;

    for (unsigned ch = 0; ch < img.channels(); ++ch) {
        std::size_t line_at = 0;
        for (unsigned seg = 0; seg < img.num_segments(); ++seg) {
            const std::uint32_t depth = img.segment_lines(ch, seg);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                // Last slot (within this segment) at which each address was
                // touched by this PE.
                std::unordered_map<std::uint32_t, std::uint32_t> last_use;
                for (std::uint32_t i = 0; i < depth; ++i) {
                    const hbm::Line512& line = img.channel(ch).line(line_at + i);
                    const auto e = EncodedElement::from_bits(line.lane64(lane));
                    if (!e.valid())
                        continue;
                    SERPENS_ASSERT(e.pair_addr() < p.addrs_per_pe(),
                                   "URAM address out of range");
                    SERPENS_ASSERT(e.col_off() < p.window,
                                   "column offset outside the segment window");
                    SERPENS_ASSERT(std::uint64_t{seg} * p.window + e.col_off() <
                                       img.cols(),
                                   "column beyond the matrix's column range");
                    auto [it, fresh] = last_use.try_emplace(e.pair_addr(), i);
                    if (!fresh) {
                        SERPENS_ASSERT(i - it->second >= window,
                                       "RAW hazard: same URAM address within "
                                       "the DSP latency window");
                        it->second = i;
                    }
                }
            }
            line_at += depth;
        }
    }
}

} // namespace serpens::encode
