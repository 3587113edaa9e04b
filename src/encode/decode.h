// Decoder: reconstruct the matrix a SerpensImage represents, and verify the
// hazard-freedom invariant of its streams. Used by tests (round-trip
// checking) and by the simulator's verification mode.
#pragma once

#include <vector>

#include "encode/image.h"

namespace serpens::encode {

// Reconstruct all (row, col, val) triplets from the encoded streams.
// The result is sorted row-major so callers can compare against the
// normalized input matrix directly.
std::vector<sparse::Triplet> decode_image(const SerpensImage& img);

// Verify that, for every (channel, segment, lane), equal URAM addresses are
// at least `params.dsp_latency` line slots apart, and that every element's
// fields are within architectural bounds and its column within the
// matrix's. Throws CheckError on violation.
void verify_image(const SerpensImage& img);

} // namespace serpens::encode
