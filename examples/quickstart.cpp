// Quickstart: build a sparse matrix, run SpMV on the simulated Serpens-A16
// accelerator, and check the result against the CPU reference.
//
//   $ ./quickstart
#include <cstdio>

#include "baselines/cpu_spmv.h"
#include "core/accelerator.h"
#include "sparse/convert.h"
#include "sparse/generators.h"

int main()
{
    using namespace serpens;

    // 1. A 10,000 x 10,000 random sparse matrix with ~200K non-zeros.
    const sparse::CooMatrix a =
        sparse::make_uniform_random(10'000, 10'000, 200'000, /*seed=*/42);
    std::printf("matrix: %u x %u, %llu non-zeros\n", a.rows(), a.cols(),
                static_cast<unsigned long long>(a.nnz()));

    // 2. A Serpens accelerator in the paper's A16 configuration
    //    (16 HBM channels for the matrix, 128 PEs, 223 MHz).
    const core::Accelerator acc(core::SerpensConfig::a16());

    // 3. Offline preprocessing: segmentation, PE distribution, index
    //    coalescing, and hazard-aware non-zero reordering.
    const core::PreparedMatrix prepared = acc.prepare(a);
    std::printf("encoded: %u segments, padding ratio %.4f\n",
                prepared.decoded().num_segments(),
                prepared.encode_stats().padding_ratio());

    // 4. Run y = 1.0 * A * x + 0.5 * y.
    std::vector<float> x(a.cols(), 1.0f);
    std::vector<float> y(a.rows(), 2.0f);
    const core::RunResult result = acc.run(prepared, x, y, 1.0f, 0.5f);

    std::printf("cycles: %llu (compute %llu, vectors %llu, fill %llu)\n",
                static_cast<unsigned long long>(result.cycles.total_cycles()),
                static_cast<unsigned long long>(result.cycles.compute_cycles),
                static_cast<unsigned long long>(result.cycles.x_load_cycles +
                                                result.cycles.y_phase_cycles),
                static_cast<unsigned long long>(result.cycles.fill_cycles));
    std::printf("modeled time: %.4f ms -> %.2f GFLOP/s, %.0f MTEPS\n",
                result.time_ms, result.metrics.gflops, result.metrics.mteps);

    // 5. Verify against the CPU reference.
    std::vector<float> expect(y);
    baselines::spmv_csr(sparse::to_csr(a), x, expect, 1.0f, 0.5f);
    double max_err = 0.0;
    for (std::size_t i = 0; i < expect.size(); ++i)
        max_err = std::max(max_err,
                           static_cast<double>(std::abs(result.y[i] - expect[i])));
    std::printf("max |serpens - cpu| = %.3g  %s\n", max_err,
                max_err < 1e-3 ? "(OK)" : "(MISMATCH)");
    return max_err < 1e-3 ? 0 : 1;
}
