// Ablation — x-segment window size W (paper §3.2 fixes W = 8192).
//
// Small windows amortize badly (more segment turnarounds, fewer distinct
// URAM addresses per PE for the scheduler to interleave); large windows
// need more BRAM copies. This sweep shows why 8192 is the sweet spot for
// the paper's BRAM budget.
#include "bench_common.h"

#include "core/accelerator.h"
#include "datasets/table3.h"

int main(int argc, char** argv)
{
    using namespace serpens;
    const auto args = bench::BenchArgs::parse(argc, argv);

    bench::banner("Ablation: x-segment window size W");

    // A graph stand-in stresses the scheduler (power-law conflicts).
    const auto spec = datasets::twelve_large()[6];  // G7 soc_pokec
    const auto m = datasets::realize(spec, args.scale);
    std::printf("matrix: %s stand-in at 1/%u (%u rows, %llu nnz)\n\n",
                spec.name.c_str(), args.scale, m.rows(),
                static_cast<unsigned long long>(m.nnz()));

    analysis::TextTable t({"W", "segments", "x-load cyc", "compute cyc",
                           "fill cyc", "padding", "total cyc", "time ms"});
    std::vector<float> x(m.cols(), 1.0f), y(m.rows(), 0.0f);
    for (sparse::index_t w : {1024u, 2048u, 4096u, 8192u, 16384u}) {
        core::SerpensConfig cfg = core::SerpensConfig::a16();
        cfg.arch.window = w;
        const core::Accelerator acc(cfg);
        const auto prepared = acc.prepare(m);
        const auto run = acc.run(prepared, x, y);
        t.add_row({std::to_string(w),
                   std::to_string(prepared.decoded().num_segments()),
                   std::to_string(run.cycles.x_load_cycles),
                   std::to_string(run.cycles.compute_cycles),
                   std::to_string(run.cycles.fill_cycles),
                   analysis::fmt(run.cycles.padding_ratio(), 3),
                   std::to_string(run.cycles.total_cycles()),
                   analysis::fmt(run.time_ms, 4)});
    }
    bench::print_table(t, args.csv);

    std::printf("\nBRAM cost grows with W (16 FP32/line x W copies): the "
                "paper's W = 8192 uses the 128 BRAM18K/PE budget of Table 1.\n");
    return 0;
}
