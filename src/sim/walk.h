// B=1 accumulation kernels of the decoded engines.
//
// A decoded channel is a flat (idx, value) stream, idx[i] packing
// (acc_off << col_bits) | col_off; one SpMV is
// bank[acc_off[i]] += value[i] * x[s * window + col_off[i]] in stream
// order, s being the element's x segment. The kernels walk one segment
// extent at a time off a per-segment x base, so they unpack each word with
// one shift and one mask and never form an absolute column. The encoder
// keeps updates to one URAM address at least T lines apart (paper §3.3),
// so most aligned 8-element groups of the stream touch 8 distinct
// accumulators — DecodedImage::Channel::simd_ok records which. Such a
// group can gather its 8 accumulators, add the 8 products and scatter
// them back without changing any accumulator's addition order.
//
//   scalar  one element at a time: the differential oracle of the SIMD
//           kernel and the fallback on every other host and compiler
//   avx512  8-wide unpack (shift, and), gather(x), gather(bank), mul,
//           add, scatter over the conflict-free groups that lie whole
//           inside one segment extent; conflicting groups and a
//           segment's ragged head and tail run scalar. A separate
//           multiply and add (never a fused multiply-add) rounds exactly
//           like the scalar kernel, so both kernels leave bit-identical
//           banks.
#pragma once

#include "sim/decoded_image.h"

namespace serpens::sim {

enum class WalkKernel { scalar, avx512 };

// Whether this build and this CPU can run `kernel` (avx512 needs a GCC or
// Clang x86-64 build and a CPU with AVX-512F and AVX-512VL).
bool walk_kernel_supported(WalkKernel kernel);

// The kernel the decoded engines run at B=1: avx512 where supported, else
// scalar. Decided once per process from the CPU's feature bits.
WalkKernel host_walk_kernel();

const char* walk_kernel_name(WalkKernel kernel);

// Accumulate every element of channel `ch` of `img` into its bank slice
// `bank` with `kernel` (which must be supported), in stream order. x holds
// img.cols() floats. The gathers index x with segment-relative column
// offsets (< window <= 16384), so x's length puts no limit on them.
void walk_channel(WalkKernel kernel, const DecodedImage& img, unsigned ch,
                  float* bank, const float* x);

} // namespace serpens::sim
