// B=1 accumulation kernels of the decoded engines.
//
// A decoded channel is a flat (acc_off, col, value) stream; one SpMV is
// bank[acc_off[i]] += value[i] * x[col[i]] in stream order. The encoder
// keeps updates to one URAM address at least T lines apart (paper §3.3),
// so most aligned 8-element groups of the stream touch 8 distinct
// accumulators — DecodedImage::Channel::simd_ok records which. Such a
// group can gather its 8 accumulators, add the 8 products and scatter
// them back without changing any accumulator's addition order.
//
//   scalar  one element at a time: the differential oracle of the SIMD
//           kernel and the fallback on every other host and compiler
//   avx512  8-wide gather(x), gather(bank), mul, add, scatter over the
//           conflict-free groups; conflicting groups and the tail run
//           scalar. A separate multiply and add (never a fused
//           multiply-add) rounds exactly like the scalar kernel, so both
//           kernels leave bit-identical banks.
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

// Accumulate every element of channel `c` into its bank slice `bank` with
// `kernel` (which must be supported): bank[acc_off[i]] += value[i] *
// x[col[i]], in stream order. Every col[i] must be a valid index into x;
// the avx512 kernel's gathers index x with signed 32-bit lanes, so x may
// hold at most 2^31 floats there.
void walk_channel(WalkKernel kernel, const DecodedImage::Channel& c,
                  float* bank, const float* x);

} // namespace serpens::sim
