// Application-level lockdown of the decoded / batched path: PageRank and
// traversal must produce bit-identical results to the same recurrence run
// through the packed-walk oracle (sim::simulate_spmv over the prepared
// matrix's rebuilt padded image), across thread counts and batch widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/pagerank.h"
#include "apps/traversal.h"
#include "sparse/convert.h"
#include "sim/simulator.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace serpens::apps {
namespace {

using sparse::CooMatrix;
using sparse::index_t;

core::Accelerator make_accelerator(unsigned sim_threads)
{
    core::SerpensConfig c = core::SerpensConfig::a16();
    c.arch.ha_channels = 2;
    c.arch.window = 128;
    c.sim_threads = sim_threads;
    return core::Accelerator(c);
}

// apps::pagerank's recurrence with every SpMV through the packed oracle.
PageRankResult oracle_pagerank(const CooMatrix& graph,
                               const PageRankOptions& options)
{
    const CooMatrix p = transition_matrix(graph);
    const encode::SerpensImage img = make_accelerator(1).prepare(p).image();
    const auto n = static_cast<std::size_t>(p.rows());
    PageRankResult result;
    result.rank.assign(n, 1.0f / static_cast<float>(n));
    const std::vector<float> teleport(
        n, static_cast<float>((1.0 - options.damping) / static_cast<double>(n)));
    for (int it = 0; it < options.max_iterations; ++it) {
        const sim::SimResult run =
            sim::simulate_spmv(img, result.rank, teleport,
                               static_cast<float>(options.damping), 1.0f);
        result.delta = 0.0;
        for (std::size_t v = 0; v < n; ++v)
            result.delta +=
                std::abs(static_cast<double>(run.y[v]) - result.rank[v]);
        result.rank = run.y;
        result.iterations = it + 1;
        if (result.delta < options.tolerance)
            break;
    }
    return result;
}

// apps::multi_source_bfs's frontier recurrence for one source, with every
// SpMV through the packed oracle.
std::vector<int> oracle_bfs(const CooMatrix& reversed, index_t source)
{
    CooMatrix unit = reversed;
    for (sparse::Triplet& e : unit.elements())
        e.val = 1.0f;
    const encode::SerpensImage img = make_accelerator(1).prepare(unit).image();
    const index_t n = reversed.rows();
    std::vector<int> levels(n, kUnreached);
    std::vector<float> frontier(n, 0.0f);
    const std::vector<float> zeros(n, 0.0f);
    levels[source] = 0;
    frontier[source] = 1.0f;
    for (index_t depth = 1; depth < n; ++depth) {
        const sim::SimResult round =
            sim::simulate_spmv(img, frontier, zeros, 1.0f, 0.0f);
        std::fill(frontier.begin(), frontier.end(), 0.0f);
        bool advanced = false;
        for (index_t v = 0; v < n; ++v) {
            if (round.y[v] != 0.0f && levels[v] == kUnreached) {
                levels[v] = static_cast<int>(depth);
                frontier[v] = 1.0f;
                advanced = true;
            }
        }
        if (!advanced)
            break;
    }
    return levels;
}

void expect_ranks_identical(const std::vector<float>& a,
                            const std::vector<float>& b,
                            const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(float_bits(a[i]), float_bits(b[i]))
            << label << " vertex " << i;
}

// --- PageRank: decoded engine vs packed oracle ---

TEST(BatchApps, PageRankIdenticalAcrossEnginesAndThreads)
{
    const CooMatrix g = sparse::make_rmat(9, 8, 11);
    PageRankOptions opt;
    opt.max_iterations = 40;
    opt.tolerance = 1e-7;

    const PageRankResult oracle = oracle_pagerank(g, opt);
    const PageRankResult serial = pagerank(make_accelerator(1), g, opt);
    for (const unsigned threads : {1u, 2u, 8u, 0u}) {
        const PageRankResult r = pagerank(make_accelerator(threads), g, opt);
        const std::string label = "threads=" + std::to_string(threads);
        EXPECT_EQ(r.iterations, oracle.iterations) << label;
        EXPECT_DOUBLE_EQ(r.delta, oracle.delta) << label;
        EXPECT_DOUBLE_EQ(r.modeled_ms, serial.modeled_ms) << label;
        expect_ranks_identical(r.rank, oracle.rank, label);
    }
}

// --- run_batch at B = 4: one whole vector step, no scalar remainder ---

TEST(BatchApps, RunBatchOfFourMatchesPackedOracle)
{
    const CooMatrix g = sparse::make_rmat(9, 8, 17);
    const auto n = static_cast<std::size_t>(g.rows());
    std::vector<std::vector<float>> xs(4, std::vector<float>(n));
    std::vector<std::vector<float>> ys(4, std::vector<float>(n));
    Rng rng(19);
    for (std::size_t b = 0; b < xs.size(); ++b) {
        for (float& f : xs[b])
            f = rng.next_float(-1.0f, 1.0f);
        for (float& f : ys[b])
            f = rng.next_float(-1.0f, 1.0f);
    }

    for (const unsigned threads : {1u, 8u}) {
        const core::Accelerator acc = make_accelerator(threads);
        const core::PreparedMatrix prepared = acc.prepare(g);
        const encode::SerpensImage img = prepared.image();
        const core::BatchRunResult batched =
            acc.run_batch(prepared, xs, ys, 0.75f, -1.5f);
        ASSERT_EQ(batched.size(), xs.size());
        for (std::size_t b = 0; b < xs.size(); ++b) {
            const sim::SimResult oracle =
                sim::simulate_spmv(img, xs[b], ys[b], 0.75f, -1.5f);
            const std::string label = "threads=" + std::to_string(threads) +
                                      " col " + std::to_string(b);
            expect_ranks_identical(batched[b].y, oracle.y, label);
            EXPECT_EQ(batched[b].cycles.compute_cycles,
                      oracle.cycles.compute_cycles)
                << label;
        }
    }
}

// --- personalized PageRank: batched lockstep vs sequential columns ---

TEST(BatchApps, PersonalizedPageRankMatchesSequentialIteration)
{
    const CooMatrix g = sparse::make_rmat(8, 8, 13);
    const std::vector<index_t> sources = {0, 5, 17};
    PageRankOptions opt;
    opt.max_iterations = 25;
    opt.tolerance = 0.0;  // fixed iteration count keeps columns comparable

    for (const unsigned threads : {1u, 8u}) {
        const core::Accelerator acc = make_accelerator(threads);
        const PersonalizedPageRankResult batched =
            personalized_pagerank(acc, g, sources, opt);
        ASSERT_EQ(batched.rank.size(), sources.size());
        EXPECT_EQ(batched.iterations, opt.max_iterations);

        // Reference: iterate each source alone through run() (the decoded
        // single-vector path), exactly the batched recurrence.
        const CooMatrix p = transition_matrix(g);
        const core::PreparedMatrix prepared = acc.prepare(p);
        const auto n = static_cast<std::size_t>(p.rows());
        for (std::size_t b = 0; b < sources.size(); ++b) {
            std::vector<float> rank(n, 0.0f), teleport(n, 0.0f);
            rank[sources[b]] = 1.0f;
            teleport[sources[b]] = static_cast<float>(1.0 - opt.damping);
            for (int it = 0; it < opt.max_iterations; ++it)
                rank = acc.run(prepared, rank, teleport,
                               static_cast<float>(opt.damping), 1.0f)
                           .y;
            expect_ranks_identical(
                batched.rank[b], rank,
                "threads=" + std::to_string(threads) + " source " +
                    std::to_string(sources[b]));
        }
    }
}

TEST(BatchApps, PersonalizedPageRankConcentratesNearSource)
{
    // Sanity on semantics (not just engine equality): a path graph's
    // personalized rank must peak at the personalization vertex.
    const index_t n = 16;
    CooMatrix path(n, n);
    for (index_t v = 0; v + 1 < n; ++v) {
        path.add(v, v + 1, 1.0f);
        path.add(v + 1, v, 1.0f);
    }
    const std::vector<index_t> sources = {2, 12};
    const auto r = personalized_pagerank(make_accelerator(1), path,
                                         sources, {});
    for (std::size_t b = 0; b < sources.size(); ++b) {
        for (index_t v = 0; v < n; ++v) {
            if (v != sources[b]) {
                EXPECT_GT(r.rank[b][sources[b]], r.rank[b][v])
                    << "source " << sources[b] << " vertex " << v;
            }
        }
    }
}

TEST(BatchApps, PersonalizedPageRankRejectsBadInput)
{
    const CooMatrix g = sparse::make_diagonal(8);
    const core::Accelerator acc = make_accelerator(1);
    EXPECT_THROW(
        personalized_pagerank(acc, g, std::vector<index_t>{}, {}),
        std::invalid_argument);
    EXPECT_THROW(
        personalized_pagerank(acc, g, std::vector<index_t>{99}, {}),
        std::invalid_argument);
}

// --- multi-source BFS: batched accelerator vs CPU reference ---

TEST(BatchApps, MultiSourceBfsMatchesCpuReference)
{
    const CooMatrix g = sparse::make_rmat(8, 6, 21);
    const CooMatrix rev = g.transposed();
    const sparse::CsrMatrix rev_csr = sparse::to_csr(rev);
    const std::vector<index_t> sources = {0, 3, 100, 0};  // duplicate ok

    for (const index_t source : sources)
        EXPECT_EQ(oracle_bfs(rev, source), bfs_levels(rev_csr, source))
            << "packed oracle, source " << source;
    for (const unsigned threads : {1u, 2u, 8u, 0u}) {
        const auto levels =
            multi_source_bfs(make_accelerator(threads), rev, sources);
        ASSERT_EQ(levels.size(), sources.size());
        for (std::size_t b = 0; b < sources.size(); ++b) {
            const auto expect = bfs_levels(rev_csr, sources[b]);
            EXPECT_EQ(levels[b], expect)
                << "threads=" << threads << " source " << sources[b];
        }
    }
}

TEST(BatchApps, MultiSourceBfsBatchWidths)
{
    // Batch widths 1/3/8 over the same graph must each match the
    // single-source reference (the blocked accumulator's width never leaks
    // into results).
    const CooMatrix g = sparse::make_clustered(512, 4'000, 8, 32, 0.3, 43);
    const CooMatrix rev = g.transposed();
    const sparse::CsrMatrix rev_csr = sparse::to_csr(rev);
    const core::Accelerator acc = make_accelerator(1);

    for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
        std::vector<index_t> sources;
        for (std::size_t b = 0; b < width; ++b)
            sources.push_back(static_cast<index_t>((b * 97) % g.rows()));
        const auto levels = multi_source_bfs(acc, rev, sources);
        for (std::size_t b = 0; b < width; ++b)
            EXPECT_EQ(levels[b], bfs_levels(rev_csr, sources[b]))
                << "width " << width << " source " << sources[b];
    }
}

TEST(BatchApps, MultiSourceBfsWeightedEdgesActAsUnit)
{
    // Edge weights are forced to 1 inside multi_source_bfs; a weighted
    // adjacency must give the same levels as its pattern.
    CooMatrix g(6, 6);
    g.add(0, 1, 0.25f);
    g.add(1, 2, 7.5f);
    g.add(0, 3, 100.0f);
    g.add(3, 4, 0.125f);
    g.add(4, 5, 3.0f);
    const CooMatrix rev = g.transposed();
    const auto levels = multi_source_bfs(make_accelerator(1), rev,
                                         std::vector<index_t>{0});
    EXPECT_EQ(levels[0], (std::vector<int>{0, 1, 2, 1, 2, 3}));
}

TEST(BatchApps, MultiSourceBfsRejectsBadInput)
{
    const core::Accelerator acc = make_accelerator(1);
    const CooMatrix g = sparse::make_diagonal(8);
    EXPECT_THROW(multi_source_bfs(acc, g, std::vector<index_t>{}),
                 std::invalid_argument);
    EXPECT_THROW(multi_source_bfs(acc, g, std::vector<index_t>{8}),
                 std::invalid_argument);
    EXPECT_THROW(multi_source_bfs(acc, CooMatrix(2, 3),
                                  std::vector<index_t>{0}),
                 std::invalid_argument);
}

} // namespace
} // namespace serpens::apps
