// The Serpens accelerator facade — the library's primary public API.
//
//   serpens::core::Accelerator acc(SerpensConfig::a16());
//   auto prepared = acc.prepare(matrix);          // offline format conversion
//   auto result   = acc.run(prepared, x, y, alpha, beta);
//   result.y, result.time_ms, result.metrics ...
//
// `prepare` performs the paper's preprocessing (segmentation, PE
// distribution, index coalescing, non-zero reordering) once; `run` executes
// the cycle-level simulation and derives wall-clock time and the paper's
// metrics from the configured operating point. A prepared matrix can be run
// many times with different vectors, exactly like a real device buffer.
// What stays resident is the padding-free decoded stream
// (sim::DecodedImage), built once at prepare/load: every run or batch
// streams it, and the padded HBM image is rebuilt from it byte for byte
// only when a caller asks for it (image()). `run_batch` pushes B
// right-hand sides through one decoded pass (Sextans-style SpMM
// amortization on the host).
#pragma once

#include <span>

#include "analysis/metrics.h"
#include "core/config.h"
#include "encode/image.h"
#include "sim/simulator.h"

namespace serpens::core {

class PreparedMatrix {
public:
    // The padded HBM image, rebuilt from the resident decoded stream on
    // every call (sim::DecodedImage::to_image) — byte-identical to the image
    // this matrix was prepared from. Hold the result by value; it is the
    // write path (WAL, --save-image), the instruction compiler's input and
    // the packed oracle's input, never the run path.
    encode::SerpensImage image() const { return decoded_.to_image(); }
    sparse::index_t rows() const { return decoded_.rows(); }
    sparse::index_t cols() const { return decoded_.cols(); }
    sparse::nnz_t nnz() const { return decoded_.nnz(); }
    const encode::EncodeStats& encode_stats() const { return decoded_.stats(); }

    // Wrap an image obtained elsewhere (e.g. encode::load_image_file):
    // hazard-verify and decode it now, on `threads` workers (1 = serial,
    // 0 = one per hardware thread); the padded lines are then dropped.
    static PreparedMatrix from_image(const encode::SerpensImage& image,
                                     unsigned threads = 1);

    // The resident decode-once expansion every run/batch streams.
    const sim::DecodedImage& decoded() const { return decoded_; }

    // No-op, kept for callers written when the decode was lazy: the
    // decoded stream is built eagerly at prepare/from_image.
    void warm_decode() const {}

    // Host bytes this prepared matrix keeps resident: the decoded stream
    // (SoA arrays, segment tables, lane masks) and its accumulator bank.
    // The serving registry charges this number against
    // resident_budget_bytes.
    std::uint64_t memory_footprint_bytes() const
    {
        return decoded_.memory_bytes();
    }

private:
    explicit PreparedMatrix(sim::DecodedImage decoded)
        : decoded_(std::move(decoded))
    {
    }

    sim::DecodedImage decoded_;
};

struct RunResult {
    std::vector<float> y;
    sim::CycleStats cycles;
    double time_ms = 0.0;            // modeled wall-clock time
    analysis::Metrics metrics;       // the paper's Table 4 metrics
};

// Result of one batched execution: the per-vector RunResults (each exactly
// what run() would report for that column — the published per-SpMV
// baseline) plus the batched device model, which prices the batch as ONE
// SpMM-mode invocation sharing the A stream across column blocks
// (sim::BatchCycleStats). `amortized_time_ms` is the per-SpMV device time
// that mode achieves; at B = 1 it equals the single-run time_ms exactly.
struct BatchRunResult {
    std::vector<RunResult> per_vector;
    sim::BatchCycleStats batch_cycles;
    double batch_time_ms = 0.0;      // modeled device time, whole batch
    double amortized_time_ms = 0.0;  // batch_time_ms / B

    // Column access mirrors the pre-SpMM-mode vector<RunResult> API.
    std::size_t size() const { return per_vector.size(); }
    bool empty() const { return per_vector.empty(); }
    const RunResult& operator[](std::size_t b) const { return per_vector[b]; }
    RunResult& operator[](std::size_t b) { return per_vector[b]; }
    const RunResult& front() const { return per_vector.front(); }
    auto begin() const { return per_vector.begin(); }
    auto end() const { return per_vector.end(); }
};

class Accelerator {
public:
    explicit Accelerator(SerpensConfig config);

    const SerpensConfig& config() const { return config_; }

    // Offline preprocessing. Throws CapacityError when the matrix exceeds
    // the on-chip row capacity (paper Eq. 3).
    PreparedMatrix prepare(const sparse::CooMatrix& m) const;

    // Execute y = alpha * A * x + beta * y. x.size() == cols,
    // y.size() == rows. Streams the resident decoded form; y and CycleStats
    // are bit-identical to the packed walk over image().
    RunResult run(const PreparedMatrix& prepared, std::span<const float> x,
                  std::span<const float> y, float alpha = 1.0f,
                  float beta = 0.0f) const;

    // Execute y[b] = alpha * A * xs[b] + beta * ys[b] for every b in one
    // decoded pass with a column-blocked accumulator. Each per_vector
    // entry is exactly what run() would report for that column (same y
    // bits, same CycleStats, same per-vector modeled time), and the result
    // additionally carries the batched device model: one SpMM-mode
    // invocation streaming A once per config().batch_columns-wide column
    // block, with amortized per-SpMV device time. xs and ys must be the
    // same non-zero length.
    BatchRunResult run_batch(const PreparedMatrix& prepared,
                             std::span<const std::vector<float>> xs,
                             std::span<const std::vector<float>> ys,
                             float alpha = 1.0f, float beta = 0.0f) const;

    // Closed-form batched estimate: estimate_time_ms extended to a B-wide
    // SpMM invocation (core::estimate_batch_time_ms). Divide by `batch`
    // for the amortized per-SpMV figure.
    double estimate_batch_time_ms(std::uint64_t rows, std::uint64_t cols,
                                  std::uint64_t nnz, unsigned batch,
                                  double padding_ratio = 0.0) const;

    // Compile the 32-bit control program for a prepared matrix (the paper's
    // instruction channel; Table 1/5).
    std::vector<std::uint32_t> compile_program(const PreparedMatrix& prepared,
                                               float alpha, float beta) const;

    // Execute through the instruction path: decode the program with the
    // device FSM, cross-validate it against the image, then run with the
    // program's alpha/beta. Throws encode::InstructionError on any
    // malformed or mismatched stream.
    RunResult run_program(const PreparedMatrix& prepared,
                          std::span<const std::uint32_t> program,
                          std::span<const float> x,
                          std::span<const float> y) const;

    // Closed-form full-size estimate (no encode/simulate), for matrices too
    // large to simulate; `padding_ratio` can carry a measured value from a
    // scaled run.
    double estimate_time_ms(std::uint64_t rows, std::uint64_t cols,
                            std::uint64_t nnz, double padding_ratio = 0.0) const;

    // Row capacity of this configuration.
    std::uint64_t row_capacity() const { return config_.arch.row_capacity(); }

private:
    // Convert a simulated cycle count into modeled wall-clock milliseconds
    // (HBM streaming efficiency + invocation overhead). Takes a single
    // SpMV's CycleStats or a batched invocation's BatchCycleStats: a batch
    // pays one kickoff overhead, with the same per-term weighting.
    template <typename Stats>
    double cycles_to_ms(const Stats& s) const;

    // Shared run()/run_batch() plumbing.
    sim::SimOptions sim_options() const;
    RunResult finish_run(sparse::nnz_t nnz, std::vector<float> y,
                         const sim::CycleStats& cycles) const;

    SerpensConfig config_;
};

} // namespace serpens::core
