// Cycle-level functional simulator of the Serpens dataflow.
//
// Consumes the same encoded channel streams a real Serpens reads from HBM
// and reproduces, cycle for cycle, the statically scheduled pipeline:
//
//   for each x segment:                      (paper Fig. 1b)
//     RdX   : stream the segment into BRAM   -> ceil(Wseg/16) cycles
//     RdA*  : each A channel feeds its 8 PEs one 512-bit line per cycle;
//             PEs multiply-accumulate into their private URAM banks;
//             segment latency = the deepest channel's line count
//   RdY/CompY/WrY: stream y_in, apply alpha/beta against the on-chip
//             accumulators, stream y_out     -> ceil(M/16) cycles
//
// Because the hardware is II=1 and statically scheduled, walking the streams
// in order *is* the cycle-accurate execution; hazards were discharged by the
// encoder and are re-verified here when `verify_hazards` is set.
//
// Three host-side engines walk the same machine:
//
//   simulate_spmv          the packed engine and differential oracle:
//                          unpacks every 64-bit lane element from the HBM
//                          image on every call, exactly as first written.
//                          core::PreparedMatrix does not keep the padded
//                          image resident, so callers feed it the image
//                          rebuilt by PreparedMatrix::image().
//   simulate_spmv_decoded  decode-once engine: runs off the DecodedImage a
//                          prepared matrix keeps resident, so repeated SpMV
//                          on a fixed matrix skips per-element unpacking.
//   simulate_spmv_batch    one decoded pass over B right-hand-side vectors
//                          with a blocked accumulator (Sextans-style SpMM):
//                          stream traversal is amortized across columns.
//
// All engines produce bit-identical y and CycleStats for every thread count
// and batch width (pinned by tests/test_decoded_sim.cpp): same FP32
// accumulation order per URAM slot, same integer cycle arithmetic.
#pragma once

#include <span>
#include <vector>

#include "encode/image.h"
#include "sim/cycle_stats.h"
#include "sim/decoded_image.h"
#include "sim/walk.h"

namespace serpens::sim {

struct SimOptions {
    bool verify_hazards = true;       // re-check the encoder's invariant
                                      // (packed engine; the decoded engines
                                      // verify once at decode time instead)
    unsigned fill_per_segment = 48;   // pipeline fill cycles per segment phase
    unsigned fill_y_phase = 48;       // fill cycles for the final y pass
    // Extension (not in the published design): double-buffer the x-segment
    // BRAMs so segment s+1 streams in while segment s computes. Costs 2x the
    // x-buffer BRAMs (see core::resource_model); hides the K/16 term of
    // Eq. 4 behind compute.
    bool double_buffer_x = false;
    // Host-side worker threads for the per-channel compute loop
    // (1 = serial, 0 = one per hardware thread). Channels write disjoint PE
    // accumulators (paper §3.3 address disjointness), so the simulated y and
    // CycleStats are bit-identical for every thread count.
    unsigned threads = 1;
    // Device SpMM mode (BatchCycleStats): dense columns one A-stream pass
    // feeds — the column block each PE multiply-accumulates per streamed
    // element (Sextans §3 fixes 8) and the number of x columns the
    // segment BRAMs can hold resident. Batches wider than this take
    // ceil(B / batch_columns) passes over the sparse stream.
    unsigned batch_columns = 8;
};

struct SimResult {
    std::vector<float> y;
    CycleStats cycles;
};

// One decoded pass over a batch of right-hand sides. `cycles` is the
// per-vector cycle breakdown — identical to what one packed run over any
// single column reports (the published Serpens baseline, which re-streams
// A per vector). `batch_cycles` prices the same batch as ONE device SpMM
// invocation with the A stream shared across column blocks (the Sextans
// extension); at B = 1 its accounting fields are bit-identical to
// `cycles`.
struct SimBatchResult {
    std::vector<std::vector<float>> y;  // [batch][rows]
    CycleStats cycles;
    BatchCycleStats batch_cycles;
};

// Run y = alpha * A * x + beta * y_in on the encoded image (packed engine;
// the differential reference). x must have img.cols() entries and y_in
// img.rows().
SimResult simulate_spmv(const encode::SerpensImage& img,
                        std::span<const float> x,
                        std::span<const float> y_in, float alpha, float beta,
                        const SimOptions& options = {});

// Same machine, decode-once engine: per-element field unpacking happened
// once in DecodedImage::decode, so repeated calls stream flat SoA arrays.
// Runs the host's B=1 kernel (host_walk_kernel()).
SimResult simulate_spmv_decoded(const DecodedImage& img,
                                std::span<const float> x,
                                std::span<const float> y_in, float alpha,
                                float beta, const SimOptions& options = {});

// The same engine on a named B=1 kernel, which must be supported: the
// differential tests and tools/sim_smoke hold the scalar kernel as the
// oracle of the SIMD one through this overload.
SimResult simulate_spmv_decoded(const DecodedImage& img,
                                std::span<const float> x,
                                std::span<const float> y_in, float alpha,
                                float beta, const SimOptions& options,
                                WalkKernel kernel);

// One decoded pass over B right-hand sides: for each b,
// y[b] = alpha * A * xs[b] + beta * ys_in[b], with the accumulator blocked
// across columns so each decoded element is applied to all B vectors while
// it is hot. Every xs[b] must have img.cols() entries and every ys_in[b]
// img.rows(); xs and ys_in must be the same (non-zero) length. At B = 1
// (most served batches) this is the single-vector walk on the host's B=1
// kernel, with no column-interleave copy of x.
SimBatchResult simulate_spmv_batch(const DecodedImage& img,
                                   std::span<const std::vector<float>> xs,
                                   std::span<const std::vector<float>> ys_in,
                                   float alpha, float beta,
                                   const SimOptions& options = {});

// Batched-device cycle accounting alone (no functional execution): price a
// B-wide SpMM invocation from the image's per-segment extents. The two
// overloads compute identical numbers from the packed image and from its
// decoded expansion, so the packed oracle and the resident decoded form
// price a batch identically. options.batch_columns sets the
// dense-column block width; at batch = 1 the result's accounting fields
// are bit-identical to the CycleStats of one simulate_spmv call with the
// same options.
BatchCycleStats batch_cycle_stats(const encode::SerpensImage& img,
                                  std::size_t batch,
                                  const SimOptions& options = {});
BatchCycleStats batch_cycle_stats(const DecodedImage& img, std::size_t batch,
                                  const SimOptions& options = {});

} // namespace serpens::sim
