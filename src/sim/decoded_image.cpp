#include "sim/decoded_image.h"

#include <algorithm>
#include <bit>
#include <string>

#include "encode/decode.h"
#include "util/thread_pool.h"

namespace serpens::sim {

using encode::EncodedElement;

namespace {

// Sets simd_ok's bit for every whole group whose accumulator offsets
// (idx >> col_bits) are pairwise distinct. `slots` bounds the offsets (the
// channel's bank slice). Each offset's last writer is stamped with its
// group's tag, so a repeat within a group is one load; a wrapped tag can
// only flag a false repeat, which leaves the group on the scalar path.
void mark_conflict_free_groups(DecodedImage::Channel& c, std::size_t slots,
                               unsigned col_bits)
{
    constexpr std::size_t kG = DecodedImage::kSimdGroup;
    const std::size_t groups = c.idx.size() / kG;
    c.simd_ok.assign((groups + 63) / 64, 0);
    std::vector<std::uint32_t> stamp(slots, 0);
    for (std::size_t g = 0; g < groups; ++g) {
        const std::uint32_t* const w = c.idx.data() + g * kG;
        const auto tag = static_cast<std::uint32_t>(g + 1);
        bool repeat = false;
        for (std::size_t i = 0; i < kG; ++i) {
            const std::uint32_t o = w[i] >> col_bits;
            repeat |= stamp[o] == tag;
            stamp[o] = tag;
        }
        if (!repeat)
            c.simd_ok[g / 64] |= std::uint64_t{1} << (g % 64);
    }
}

} // namespace

DecodedImage DecodedImage::decode(const encode::SerpensImage& img,
                                  const DecodeOptions& options)
{
    if (options.verify_hazards)
        encode::verify_image(img);

    DecodedImage d;
    d.params_ = img.params();
    d.rows_ = img.rows();
    d.cols_ = img.cols();
    const unsigned segments = img.num_segments();

    // Highest PE-local URAM address any row of this matrix maps to (the
    // address is monotone in the row index for both mapping modes).
    const encode::RowMapping mapping(d.params_);
    d.used_addrs_ = img.rows() > 0
                        ? mapping.locate(img.rows() - 1).addr + 1
                        : 1;

    const unsigned lanes = d.params_.pes_per_channel;
    const sparse::index_t window = d.params_.window;
    const std::uint32_t ua = d.used_addrs_;
    // The bit budget of Channel::idx: acc_off above col_bits column bits.
    const unsigned col_bits = d.col_bits();
    const auto acc_bits = static_cast<unsigned>(
        std::bit_width(std::uint64_t{lanes} * 2 * ua - 1));
    SERPENS_ASSERT(acc_bits + col_bits <= 32,
                   "accumulator offset (" + std::to_string(acc_bits) +
                       " bits for " + std::to_string(ua) +
                       " used URAM addresses) and column offset (" +
                       std::to_string(col_bits) + " bits for window " +
                       std::to_string(window) +
                       ") overflow the 32-bit decoded index word");
    d.channels_.resize(img.channels());

    util::shared_parallel_for(options.threads, img.channels(), [&](std::size_t ch) {
        const hbm::ChannelStream& stream =
            img.channel(static_cast<unsigned>(ch));
        Channel& c = d.channels_[ch];
        c.seg_begin.reserve(segments + 1);
        c.seg_lines.resize(segments);
        c.lane_mask.reserve(stream.size());
        const std::size_t slot_bound = stream.size() * lanes;
        c.idx.reserve(slot_bound);
        c.value.reserve(slot_bound);

        std::size_t cursor = 0;
        for (unsigned seg = 0; seg < segments; ++seg) {
            const std::uint32_t lines =
                img.segment_lines(static_cast<unsigned>(ch), seg);
            c.seg_lines[seg] = lines;
            c.seg_begin.push_back(c.value.size());
            const std::uint32_t seg_base =
                static_cast<std::uint32_t>(seg) * window;
            for (std::uint32_t i = 0; i < lines; ++i) {
                const hbm::Line512& line = stream.line(cursor + i);
                std::uint8_t mask = 0;
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    const std::uint64_t bits = line.lane64(lane);
                    const auto e = EncodedElement::from_bits(bits);
                    if (!e.valid()) {
                        SERPENS_ASSERT(bits == 0,
                                       "padding slot carries non-zero bits");
                        continue;
                    }
                    SERPENS_ASSERT(!e.reserved(),
                                   "element sets the reserved index bit");
                    SERPENS_ASSERT(e.pair_addr() < ua,
                                   "element addresses a URAM word beyond the "
                                   "image's row range");
                    SERPENS_ASSERT(std::uint64_t{seg_base} + e.col_off() < d.cols_,
                                   "element addresses a column beyond the "
                                   "image's column range");
                    mask = static_cast<std::uint8_t>(mask | (1u << lane));
                    const std::uint32_t acc_off =
                        ((e.pair_addr() * lanes + lane) << 1) |
                        (e.half() ? 1u : 0u);
                    c.idx.push_back((acc_off << col_bits) | e.col_off());
                    c.value.push_back(e.value());
                }
                c.lane_mask.push_back(mask);
            }
            cursor += lines;
        }
        c.seg_begin.push_back(c.value.size());
        mark_conflict_free_groups(c, std::size_t{lanes} * 2 * ua, col_bits);
        c.idx.shrink_to_fit();
        c.value.shrink_to_fit();
    });

    d.seg_depth_.assign(segments, 0);
    d.stats_.num_segments = segments;
    for (const Channel& c : d.channels_) {
        for (unsigned s = 0; s < segments; ++s)
            d.seg_depth_[s] = std::max(d.seg_depth_[s], c.seg_lines[s]);
        d.stats_.total_lines += c.lane_mask.size();
        d.stats_.nnz += c.value.size();
    }
    d.stats_.total_slots = d.stats_.total_lines * lanes;
    d.stats_.padding_slots = d.stats_.total_slots - d.stats_.nnz;
    return d;
}

encode::SerpensImage DecodedImage::to_image() const
{
    encode::SerpensImage img(params_, rows_, cols_);
    const unsigned lanes = params_.pes_per_channel;
    const unsigned col_bits = this->col_bits();
    const std::uint32_t col_mask = (1u << col_bits) - 1;
    for (unsigned ch = 0; ch < channels(); ++ch) {
        const Channel& c = channels_[ch];
        hbm::ChannelStream& stream = img.mutable_channel(ch);
        stream.reserve(c.lane_mask.size());
        std::size_t line_at = 0, elem = 0;
        for (unsigned seg = 0; seg < num_segments(); ++seg) {
            img.set_segment_lines(ch, seg, c.seg_lines[seg]);
            for (std::uint32_t i = 0; i < c.seg_lines[seg]; ++i, ++line_at) {
                // Padding lanes stay all-zero (decode enforced that they
                // were); valid lanes take the next elements in lane order.
                hbm::Line512 line;
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    if (((c.lane_mask[line_at] >> lane) & 1u) == 0)
                        continue;
                    const std::uint32_t w = c.idx[elem];
                    const std::uint32_t off = w >> col_bits;
                    line.set_lane64(lane, EncodedElement::make(
                                              (off >> 1) / lanes,
                                              (off & 1u) != 0, w & col_mask,
                                              c.value[elem])
                                              .bits());
                    ++elem;
                }
                stream.push(line);
            }
        }
    }
    img.set_stats(stats_);
    return img;
}

std::uint64_t DecodedImage::memory_bytes() const
{
    std::uint64_t bytes = 0;
    for (const Channel& c : channels_) {
        bytes += c.idx.size() * sizeof(std::uint32_t);
        bytes += c.value.size() * sizeof(float);
        bytes += c.seg_begin.size() * sizeof(std::size_t);
        bytes += c.seg_lines.size() * sizeof(std::uint32_t);
        bytes += c.lane_mask.size() * sizeof(std::uint8_t);
        bytes += c.simd_ok.size() * sizeof(std::uint64_t);
    }
    bytes += seg_depth_.size() * sizeof(std::uint32_t);
    // The decoded walk's accumulator bank: 2 half-words per URAM address,
    // truncated to the row-reachable address range.
    bytes += static_cast<std::uint64_t>(channels_.size()) *
             params_.pes_per_channel * used_addrs_ * 2 * sizeof(float);
    return bytes;
}

} // namespace serpens::sim
