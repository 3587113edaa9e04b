// Decode-once execution image: the resident form of a prepared matrix.
//
// The packed SerpensImage is exactly what the hardware streams from HBM:
// 64-bit lane elements whose fields must be unpacked on every walk, with
// null elements wherever reordering could not fill a PE slot (59-81% of
// the slots on power-law matrices). DecodedImage expands each channel's
// lane stream exactly once into a cache-friendly SoA layout of 8 bytes
// per non-zero — the paper's element width (§3.1.2) without its padding:
//
//   idx[i]      one packed index word: (acc_off << col_bits) | col_off
//     acc_off   channel-local accumulator offset, half-select folded in:
//               ((pair_addr * lanes + lane) << 1) | half — address-major,
//               lane-interleaved, so consecutive rows of a channel sit in
//               consecutive bank words and the engines' y-extraction
//               streams the bank sequentially instead of striding by
//               used_addrs (the stride grows with the batch width; at B=8
//               it was a 16 KiB hop per row)
//     col_off   column offset inside the element's x segment; the walks
//               add the segment's x base (s * window) once per segment
//               extent, not per element
//   value[i]    the FP32 value
//   lane_mask[l] one byte per packed line: bit k set iff lane k of line l
//               holds a valid element
//   simd_ok[w]  one bit per aligned group of kSimdGroup elements: bit g
//               (word g / 64, bit g % 64) is set iff the group's acc_off
//               are pairwise distinct, so the B=1 walk may gather, add
//               and scatter the group at once (sim/walk.h). Derived
//               state: to_image() ignores it.
//
// Bit budget. col_bits = bit_width(window - 1) (13 at W = 8192, 14 at
// W = 16384) and acc_off needs bit_width(lanes * 2 * used_addrs - 1)
// bits; decode refuses (CheckError) an image whose two widths sum past
// 32. Every paper configuration fits: 19 + 13 bits at W = 8192 with a
// full 32k-address URAM, 18 + 14 at W = 16384 with the default
// U * D = 12288. Only W > 8192 together with more than 16k used URAM
// addresses per PE is refused, so there is one layout and no fallback.
//
// Padding slots are elided entirely — they contribute no FP op, so skipping
// them preserves the exact per-accumulator addition order of the packed
// walk (elements stay in segment-major, line, lane order within a channel).
// Per-segment extents (seg_begin) and line counts are preserved so every
// CycleStats term of the packed walk stays derivable; simulate results are
// bit-identical between the packed and decoded engines.
//
// The expansion is lossless: decode rejects padding slots with non-zero
// bits and valid elements with the reserved index bit set, so every lane
// of every line is either all-zero or re-encodable from (idx, value), and
// the lane masks place the elements back on their lines. to_image()
// therefore rebuilds the packed image byte for byte, which is what lets
// core::PreparedMatrix keep only this form resident.
//
// `used_addrs` shrinks the accumulator bank from the architectural
// U*D address space to the addresses the matrix's rows can actually reach,
// which is what makes the decoded hot loop cache-resident for typical
// matrices (65K rows -> 256 addresses/PE instead of 12288).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "encode/image.h"

namespace serpens::sim {

struct DecodeOptions {
    // Worker threads for the per-channel decode (1 = serial, 0 = one per
    // hardware thread); the decoded arrays are identical for every count.
    unsigned threads = 1;
    // Verify the packed image's hazard invariant once, here, instead of on
    // every simulate call (off only to time the expansion alone).
    bool verify_hazards = true;
};

class DecodedImage {
public:
    // Elements per conflict-free group of Channel::simd_ok: one 256-bit
    // vector of FP32 values.
    static constexpr std::size_t kSimdGroup = 8;

    struct Channel {
        // SoA views of the valid (non-padding) elements in packed walk
        // order: segment-major, then line, then lane.
        // idx[i] = (acc_off << col_bits()) | col_off.
        std::vector<std::uint32_t> idx;
        std::vector<float> value;
        // Element extent of segment s is [seg_begin[s], seg_begin[s + 1]).
        std::vector<std::size_t> seg_begin;
        // Lines this channel contributes per segment (the packed
        // segment_lines row).
        std::vector<std::uint32_t> seg_lines;
        // Valid-lane bitmask of each packed line, in stream order; its
        // size is the channel's line count.
        std::vector<std::uint8_t> lane_mask;
        // Bit g set iff elements [g * kSimdGroup, (g + 1) * kSimdGroup)
        // address pairwise-distinct accumulators; only whole groups have
        // a bit.
        std::vector<std::uint64_t> simd_ok;
    };

    // Expand a packed image. Throws CheckError if the accumulator offset
    // and column offset do not fit one 32-bit word together (the bit
    // budget above), if an element addresses a URAM word beyond the
    // image's row range (the packed engine would silently accumulate into
    // a dead slot) or a column at or beyond cols() (the decoded walk would
    // read past x), if a padding slot carries any non-zero bit, or if a
    // valid element sets the reserved index bit — the last two would make
    // to_image() inexact.
    static DecodedImage decode(const encode::SerpensImage& img,
                               const DecodeOptions& options = {});

    // Rebuild the packed HBM image this expansion was decoded from, byte
    // for byte (same lines, segment tables and EncodeStats).
    encode::SerpensImage to_image() const;

    const encode::EncodeParams& params() const { return params_; }
    sparse::index_t rows() const { return rows_; }
    sparse::index_t cols() const { return cols_; }
    unsigned num_segments() const { return stats_.num_segments; }
    unsigned channels() const { return static_cast<unsigned>(channels_.size()); }
    const Channel& channel(unsigned c) const { return channels_[c]; }

    // Low bits of Channel::idx holding the column offset:
    // bit_width(window - 1).
    unsigned col_bits() const
    {
        return static_cast<unsigned>(
            std::bit_width(static_cast<std::uint32_t>(params_.window - 1)));
    }

    // URAM addresses per PE actually reachable from this image's rows; the
    // decoded accumulator bank is channels * lanes * used_addrs * 2 floats.
    std::uint32_t used_addrs() const { return used_addrs_; }

    // Max over channels of segment s's line count (the packed walk's
    // compute-cycle depth for the segment).
    std::uint32_t segment_depth(unsigned s) const { return seg_depth_[s]; }

    // The packed image's EncodeStats: its slot and line tallies of one
    // full walk are the packed engine's.
    const encode::EncodeStats& stats() const { return stats_; }
    std::uint64_t nnz() const { return stats_.nnz; }

    // Resident bytes of the expansion: the per-channel idx and value
    // arrays, segment tables, lane masks and simd_ok bitsets, plus the
    // single-vector accumulator bank the decoded walk allocates
    // (channels * lanes * used_addrs * 2 floats).
    // This is a prepared matrix's full working set — what the serving
    // registry charges against its byte budget.
    std::uint64_t memory_bytes() const;

private:
    encode::EncodeParams params_;
    sparse::index_t rows_ = 0;
    sparse::index_t cols_ = 0;
    std::uint32_t used_addrs_ = 0;
    std::vector<Channel> channels_;
    std::vector<std::uint32_t> seg_depth_;
    encode::EncodeStats stats_;
};

} // namespace serpens::sim
