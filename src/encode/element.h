// 64-bit encoded sparse element (paper §3.1.2, §3.4).
//
// The hardware streams sparse elements as 64 bits: a 32-bit FP32 value and a
// 32-bit compressed index word. Compression is possible because, after
// segmentation and PE distribution, both indices are bounded:
//   - the column offset lies inside the current x segment (< W <= 16384),
//   - the row reduces to a PE-local URAM address (< U*D <= 32768) plus,
//     with index coalescing, a 1-bit half-select inside the 72-bit word.
//
// Index word layout (bit 31 .. bit 0):
//   [31]     valid      0 marks a padding (null) element inserted by the
//                       reorderer; the PE pipeline treats it as a bubble.
//                       All 64 bits of a padding slot are zero (decode
//                       rejects any other padding word).
//   [30:16]  pair_addr  PE-local URAM address (15 bits)
//   [15]     half       which FP32 half of the 72-bit URAM word (row parity)
//   [14]     reserved   always 0; decode rejects an element that sets it
//   [13:0]   col_off    column offset within the current x segment (14 bits)
#pragma once

#include <cstdint>

#include "util/bitpack.h"
#include "util/check.h"

namespace serpens::encode {

inline constexpr unsigned kColOffBits = 14;
inline constexpr unsigned kColOffLo = 0;
inline constexpr unsigned kReservedBit = 14;
inline constexpr unsigned kHalfBit = 15;
inline constexpr unsigned kAddrBits = 15;
inline constexpr unsigned kAddrLo = 16;
inline constexpr unsigned kValidBit = 31;

inline constexpr std::uint32_t kMaxWindow = 1u << kColOffBits;    // 16384
inline constexpr std::uint32_t kMaxPairAddr = 1u << kAddrBits;    // 32768

class EncodedElement {
public:
    EncodedElement() = default;  // invalid (padding) by default

    static EncodedElement make(std::uint32_t pair_addr, bool half,
                               std::uint32_t col_off, float value)
    {
        SERPENS_ASSERT(fits_bits(pair_addr, kAddrBits), "pair_addr overflows field");
        SERPENS_ASSERT(fits_bits(col_off, kColOffBits), "col_off overflows field");
        std::uint32_t idx = 0;
        idx = insert_bits(idx, kAddrLo, kAddrBits, pair_addr);
        idx = insert_bits(idx, kHalfBit, 1, half ? 1u : 0u);
        idx = insert_bits(idx, kColOffLo, kColOffBits, col_off);
        idx = insert_bits(idx, kValidBit, 1, 1u);
        EncodedElement e;
        e.bits_ = (static_cast<std::uint64_t>(idx) << 32) | float_bits(value);
        return e;
    }

    static EncodedElement padding() { return EncodedElement{}; }

    static EncodedElement from_bits(std::uint64_t bits)
    {
        EncodedElement e;
        e.bits_ = bits;
        return e;
    }

    std::uint64_t bits() const { return bits_; }
    std::uint32_t index_word() const { return static_cast<std::uint32_t>(bits_ >> 32); }

    bool valid() const { return extract_bits(index_word(), kValidBit, 1) != 0; }
    std::uint32_t pair_addr() const { return extract_bits(index_word(), kAddrLo, kAddrBits); }
    bool half() const { return extract_bits(index_word(), kHalfBit, 1) != 0; }
    bool reserved() const { return extract_bits(index_word(), kReservedBit, 1) != 0; }
    std::uint32_t col_off() const { return extract_bits(index_word(), kColOffLo, kColOffBits); }
    float value() const { return bits_float(static_cast<std::uint32_t>(bits_)); }

    friend bool operator==(const EncodedElement&, const EncodedElement&) = default;

private:
    std::uint64_t bits_ = 0;
};

} // namespace serpens::encode
