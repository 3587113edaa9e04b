#include "core/accelerator.h"

#include "core/analytic.h"
#include "encode/instructions.h"

namespace serpens::core {

PreparedMatrix PreparedMatrix::from_image(const encode::SerpensImage& image,
                                          unsigned threads)
{
    return PreparedMatrix(
        sim::DecodedImage::decode(image, {.threads = threads}));
}

Accelerator::Accelerator(SerpensConfig config) : config_(config)
{
    config_.arch.validate();
    SERPENS_CHECK(config_.frequency_mhz > 0.0, "frequency must be positive");
    SERPENS_CHECK(config_.power_w > 0.0, "power must be positive");
    SERPENS_CHECK(config_.hbm.stream_efficiency > 0.0 &&
                      config_.hbm.stream_efficiency <= 1.0,
                  "stream efficiency must lie in (0, 1]");
}

PreparedMatrix Accelerator::prepare(const sparse::CooMatrix& m) const
{
    encode::EncodeOptions options;
    options.threads = config_.encode_threads;
    return PreparedMatrix::from_image(
        encode::encode_matrix(m, config_.arch, options), config_.sim_threads);
}

template <typename Stats>
double Accelerator::cycles_to_ms(const Stats& s) const
{
    // The A-stream is the only multi-channel burst consumer; streaming
    // efficiency stretches its cycles. Vector streams are single sequential
    // channels and run at full rate.
    const double compute =
        static_cast<double>(s.compute_cycles) / config_.hbm.stream_efficiency;
    const double cycles = compute + static_cast<double>(s.x_load_cycles) +
                          static_cast<double>(s.y_phase_cycles) +
                          static_cast<double>(s.fill_cycles);
    return cycles / (config_.frequency_mhz * 1e3) +
           config_.invocation_overhead_us / 1e3;
}

sim::SimOptions Accelerator::sim_options() const
{
    sim::SimOptions options;
    options.fill_per_segment = config_.fill_per_segment;
    options.fill_y_phase = config_.fill_y_phase;
    options.double_buffer_x = config_.double_buffer_x;
    options.threads = config_.sim_threads;
    options.batch_columns = config_.batch_columns;
    return options;
}

RunResult Accelerator::finish_run(sparse::nnz_t nnz, std::vector<float> y,
                                  const sim::CycleStats& cycles) const
{
    RunResult result;
    result.time_ms = cycles_to_ms(cycles);
    result.metrics = analysis::Metrics::from_run(
        nnz, result.time_ms, config_.utilized_bandwidth_gbps(),
        config_.power_w);
    result.cycles = cycles;
    result.y = std::move(y);
    return result;
}

RunResult Accelerator::run(const PreparedMatrix& prepared,
                           std::span<const float> x, std::span<const float> y,
                           float alpha, float beta) const
{
    sim::SimResult sim = sim::simulate_spmv_decoded(
        prepared.decoded(), x, y, alpha, beta, sim_options());
    return finish_run(prepared.nnz(), std::move(sim.y), sim.cycles);
}

BatchRunResult Accelerator::run_batch(
    const PreparedMatrix& prepared, std::span<const std::vector<float>> xs,
    std::span<const std::vector<float>> ys, float alpha, float beta) const
{
    SERPENS_CHECK(!xs.empty(), "batch must contain at least one vector");
    SERPENS_CHECK(xs.size() == ys.size(),
                  "batch x and y vector counts must match");

    BatchRunResult result;
    result.per_vector.reserve(xs.size());

    sim::SimBatchResult batch = sim::simulate_spmv_batch(
        prepared.decoded(), xs, ys, alpha, beta, sim_options());
    for (std::vector<float>& y : batch.y)
        result.per_vector.push_back(
            finish_run(prepared.nnz(), std::move(y), batch.cycles));
    result.batch_cycles = batch.batch_cycles;

    result.batch_time_ms = cycles_to_ms(result.batch_cycles);
    result.amortized_time_ms =
        result.batch_time_ms / static_cast<double>(xs.size());
    return result;
}

std::vector<std::uint32_t> Accelerator::compile_program(
    const PreparedMatrix& prepared, float alpha, float beta) const
{
    return encode::build_instructions(prepared.image(), alpha, beta);
}

RunResult Accelerator::run_program(const PreparedMatrix& prepared,
                                   std::span<const std::uint32_t> program,
                                   std::span<const float> x,
                                   std::span<const float> y) const
{
    const encode::ControlProgram decoded = encode::decode_instructions(
        program, prepared.decoded().params().ha_channels);
    encode::validate_program(decoded, prepared.image());
    return run(prepared, x, y, decoded.alpha, decoded.beta);
}

double Accelerator::estimate_time_ms(std::uint64_t rows, std::uint64_t cols,
                                     std::uint64_t nnz,
                                     double padding_ratio) const
{
    return core::estimate_time_ms(config_, rows, cols, nnz, padding_ratio);
}

double Accelerator::estimate_batch_time_ms(std::uint64_t rows,
                                           std::uint64_t cols,
                                           std::uint64_t nnz, unsigned batch,
                                           double padding_ratio) const
{
    return core::estimate_batch_time_ms(config_, rows, cols, nnz, batch,
                                        padding_ratio);
}

} // namespace serpens::core
