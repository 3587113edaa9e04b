// serve::Server lockdown.
//
// The serving contract: for ANY number of client threads, matrices, scalar
// groups, and request interleavings, every response's y + CycleStats are
// bit-identical to a direct Accelerator::run on the same inputs — the
// request scheduler's coalescing is pure amortization, never a numeric
// change. Deterministic coalescing behavior (grouping, max_batch chunking,
// scalar-group separation) is pinned through pause()/resume() bursts.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/rng.h"

namespace serpens {
namespace {

struct Vectors {
    std::vector<float> x, y;
};

Vectors random_vectors(sparse::index_t cols, sparse::index_t rows,
                       std::uint64_t seed)
{
    Rng rng(seed);
    Vectors v;
    v.x.resize(cols);
    v.y.resize(rows);
    for (float& f : v.x)
        f = rng.next_float(-1.0f, 1.0f);
    for (float& f : v.y)
        f = rng.next_float(-1.0f, 1.0f);
    return v;
}

void expect_result_equal(const core::RunResult& served,
                         const core::RunResult& direct,
                         const std::string& label)
{
    ASSERT_EQ(served.y.size(), direct.y.size()) << label;
    for (std::size_t i = 0; i < served.y.size(); ++i)
        ASSERT_EQ(float_bits(served.y[i]), float_bits(direct.y[i]))
            << label << " row " << i;
    EXPECT_EQ(served.cycles.compute_cycles, direct.cycles.compute_cycles)
        << label;
    EXPECT_EQ(served.cycles.x_load_cycles, direct.cycles.x_load_cycles)
        << label;
    EXPECT_EQ(served.cycles.y_phase_cycles, direct.cycles.y_phase_cycles)
        << label;
    EXPECT_EQ(served.cycles.fill_cycles, direct.cycles.fill_cycles) << label;
    EXPECT_EQ(served.cycles.total_slots, direct.cycles.total_slots) << label;
    EXPECT_EQ(served.cycles.padding_slots, direct.cycles.padding_slots)
        << label;
    EXPECT_DOUBLE_EQ(served.time_ms, direct.time_ms) << label;
}

TEST(ServeServer, BlockingSpmvMatchesDirectRun)
{
    const auto m = sparse::make_uniform_random(1500, 1500, 40'000, 21);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    serve::Server server(cfg);
    server.registry().admit("m", m);

    const core::Accelerator acc(cfg);
    const auto prepared = acc.prepare(m);

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const Vectors v = random_vectors(m.cols(), m.rows(), seed);
        const serve::SpmvResult served =
            server.spmv("m", v.x, v.y, 1.25f, -0.5f);
        const core::RunResult direct =
            acc.run(prepared, v.x, v.y, 1.25f, -0.5f);
        expect_result_equal(served.run, direct,
                            "seed " + std::to_string(seed));
        EXPECT_GE(served.batch_width, 1u);
    }
}

TEST(ServeServer, UnknownMatrixAndBadSizesThrow)
{
    const auto m = sparse::make_banded(512, 5, 23);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    const Vectors v = random_vectors(m.cols(), m.rows(), 5);
    EXPECT_THROW(server.spmv("ghost", v.x, v.y), std::invalid_argument);
    EXPECT_THROW(server.spmv("m", std::vector<float>(3), v.y),
                 std::invalid_argument);
    EXPECT_THROW(server.spmv("m", v.x, std::vector<float>(3)),
                 std::invalid_argument);
}

TEST(ServeServer, PausedBurstCoalescesToMaxBatch)
{
    const auto m = sparse::make_uniform_random(1200, 1200, 30'000, 29);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 8;
    serve::Server server(cfg);
    server.registry().admit("m", m);

    // 11 same-key requests held in one round: widths must chunk to 8 + 3.
    server.pause();
    std::vector<std::future<serve::SpmvResult>> futures;
    for (unsigned i = 0; i < 11; ++i) {
        const Vectors v = random_vectors(m.cols(), m.rows(), 100 + i);
        futures.push_back(server.submit("m", v.x, v.y, 2.0f, 0.5f));
    }
    server.resume();

    unsigned eights = 0, threes = 0;
    for (auto& f : futures) {
        const serve::SpmvResult r = f.get();
        if (r.batch_width == 8)
            ++eights;
        else if (r.batch_width == 3)
            ++threes;
    }
    EXPECT_EQ(eights, 8u);
    EXPECT_EQ(threes, 3u);

    server.drain();
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 11u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.coalesced, 11u);
    EXPECT_EQ(stats.max_batch_seen, 8u);
    EXPECT_EQ(stats.rounds, 1u);
}

TEST(ServeServer, ScalarGroupsDoNotCoalesce)
{
    const auto m = sparse::make_uniform_random(1000, 1000, 25'000, 31);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    server.pause();
    std::vector<std::future<serve::SpmvResult>> group_a, group_b, single;
    for (unsigned i = 0; i < 3; ++i) {
        const Vectors v = random_vectors(m.cols(), m.rows(), 200 + i);
        group_a.push_back(server.submit("m", v.x, v.y, 1.0f, 0.0f));
    }
    for (unsigned i = 0; i < 2; ++i) {
        const Vectors v = random_vectors(m.cols(), m.rows(), 300 + i);
        group_b.push_back(server.submit("m", v.x, v.y, 1.0f, 1.0f));
    }
    {
        // -0.0f and 0.0f are distinct bit patterns — must not merge.
        const Vectors v = random_vectors(m.cols(), m.rows(), 400);
        single.push_back(server.submit("m", v.x, v.y, 1.0f, -0.0f));
    }
    server.resume();

    for (auto& f : group_a)
        EXPECT_EQ(f.get().batch_width, 3u);
    for (auto& f : group_b)
        EXPECT_EQ(f.get().batch_width, 2u);
    EXPECT_EQ(single[0].get().batch_width, 1u);
}

TEST(ServeServer, MultiMatrixBurstGroupsPerMatrix)
{
    const auto a = sparse::make_uniform_random(900, 900, 20'000, 37);
    const auto b = sparse::make_banded(800, 7, 41);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("a", a);
    server.registry().admit("b", b);

    server.pause();
    std::vector<std::future<serve::SpmvResult>> fa, fb;
    for (unsigned i = 0; i < 4; ++i) {
        const Vectors v = random_vectors(a.cols(), a.rows(), 500 + i);
        fa.push_back(server.submit("a", v.x, v.y));
    }
    for (unsigned i = 0; i < 2; ++i) {
        const Vectors v = random_vectors(b.cols(), b.rows(), 600 + i);
        fb.push_back(server.submit("b", v.x, v.y));
    }
    server.resume();
    for (auto& f : fa)
        EXPECT_EQ(f.get().batch_width, 4u);
    for (auto& f : fb)
        EXPECT_EQ(f.get().batch_width, 2u);
}

// The tentpole differential: N client threads x M matrices x mixed scalars
// hammering the server concurrently; the recorded trace replayed
// sequentially through a direct Accelerator must match every response bit
// for bit. Run for both a serial and a parallel drain loop.
void hammer_and_replay(unsigned serve_threads)
{
    const std::vector<sparse::CooMatrix> matrices = {
        sparse::make_uniform_random(1100, 1100, 30'000, 43),
        sparse::make_clustered(900, 22'000, 8, 64, 0.3, 47),
        sparse::make_banded(1000, 9, 53),
    };
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.serve_threads = serve_threads;
    cfg.max_batch = 4;

    struct Record {
        unsigned matrix;
        std::uint64_t seed;
        float alpha, beta;
        core::RunResult run;
    };
    constexpr unsigned kClients = 8, kRequests = 6;
    std::vector<Record> records(kClients * kRequests);

    {
        serve::Server server(cfg);
        for (unsigned i = 0; i < matrices.size(); ++i)
            server.registry().admit("m" + std::to_string(i), matrices[i]);

        std::atomic<bool> failed{false};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                try {
                    for (unsigned r = 0; r < kRequests; ++r) {
                        Record& rec = records[c * kRequests + r];
                        rec.seed = 1000 + c * 131 + r * 17;
                        rec.matrix =
                            static_cast<unsigned>(rec.seed % matrices.size());
                        rec.alpha = rec.seed % 2 ? 1.0f : 1.75f;
                        rec.beta = rec.seed % 3 ? 0.0f : -0.25f;
                        const auto& m = matrices[rec.matrix];
                        const Vectors v =
                            random_vectors(m.cols(), m.rows(), rec.seed);
                        rec.run = server
                                      .spmv("m" + std::to_string(rec.matrix),
                                            v.x, v.y, rec.alpha, rec.beta)
                                      .run;
                    }
                } catch (...) {
                    failed.store(true);
                }
            });
        }
        for (std::thread& t : clients)
            t.join();
        ASSERT_FALSE(failed.load());
    }

    // Sequential replay of the trace.
    const core::Accelerator acc(core::SerpensConfig::a16());
    std::vector<core::PreparedMatrix> prepared;
    for (const auto& m : matrices)
        prepared.push_back(acc.prepare(m));
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record& rec = records[i];
        const auto& m = matrices[rec.matrix];
        const Vectors v = random_vectors(m.cols(), m.rows(), rec.seed);
        const core::RunResult direct =
            acc.run(prepared[rec.matrix], v.x, v.y, rec.alpha, rec.beta);
        expect_result_equal(rec.run, direct,
                            "request " + std::to_string(i));
    }
}

TEST(ServeServer, ConcurrentClientsMatchSequentialReplaySerialDrain)
{
    hammer_and_replay(1);
}

TEST(ServeServer, ConcurrentClientsMatchSequentialReplayParallelDrain)
{
    hammer_and_replay(4);
}

TEST(ServeServer, EvictionMidFlightKeepsPinnedRequestsCorrect)
{
    const auto a = sparse::make_uniform_random(1000, 1000, 25'000, 59);
    const auto b = sparse::make_uniform_random(1000, 1000, 25'000, 61);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    // Budget for one resident at a time.
    {
        const core::Accelerator probe(cfg);
        const auto p = probe.prepare(a);
        cfg.resident_budget_bytes = p.memory_footprint_bytes() +
                                    p.memory_footprint_bytes() / 2;
    }
    serve::Server server(cfg);
    server.registry().admit("a", a);

    // Queue requests against a while paused, evict a by admitting b, then
    // release: the pinned resident must still serve them, bit-identically.
    server.pause();
    std::vector<std::future<serve::SpmvResult>> futures;
    for (unsigned i = 0; i < 3; ++i) {
        const Vectors v = random_vectors(a.cols(), a.rows(), 700 + i);
        futures.push_back(server.submit("a", v.x, v.y, 1.0f, 0.0f));
    }
    server.registry().admit("b", b);
    EXPECT_EQ(server.registry().get("a"), nullptr);
    server.resume();

    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(a);
    for (unsigned i = 0; i < 3; ++i) {
        const Vectors v = random_vectors(a.cols(), a.rows(), 700 + i);
        const core::RunResult direct = acc.run(prepared, v.x, v.y, 1.0f, 0.0f);
        expect_result_equal(futures[i].get().run, direct,
                            "pinned request " + std::to_string(i));
    }

    // New submissions for the evicted name fail fast.
    const Vectors v = random_vectors(a.cols(), a.rows(), 800);
    EXPECT_THROW(server.spmv("a", v.x, v.y), std::invalid_argument);
}

TEST(ServeServer, EvictionMidFlightKeepsPinnedBatchOfEightCorrect)
{
    // The B=1 eviction case above, at full SpMM width: eight same-key
    // requests coalesce into ONE run_batch against a resident that is
    // evicted from the registry while they sit queued. The pinned
    // shared_ptr must keep the matrix (and its decode cache + batch-mode
    // accounting) alive through the whole batched invocation.
    const auto a = sparse::make_uniform_random(1000, 1000, 25'000, 83);
    const auto b = sparse::make_uniform_random(1000, 1000, 25'000, 89);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 8;
    {
        const core::Accelerator probe(cfg);
        const auto p = probe.prepare(a);
        cfg.resident_budget_bytes = p.memory_footprint_bytes() +
                                    p.memory_footprint_bytes() / 2;
    }
    serve::Server server(cfg);
    server.registry().admit("a", a);

    server.pause();
    std::vector<std::future<serve::SpmvResult>> futures;
    for (unsigned i = 0; i < 8; ++i) {
        const Vectors v = random_vectors(a.cols(), a.rows(), 850 + i);
        futures.push_back(server.submit("a", v.x, v.y, 1.5f, -0.25f));
    }
    server.registry().admit("b", b);
    EXPECT_EQ(server.registry().get("a"), nullptr);
    server.resume();

    const core::Accelerator acc(core::SerpensConfig::a16());
    const auto prepared = acc.prepare(a);
    double shared_amortized = 0.0;
    for (unsigned i = 0; i < 8; ++i) {
        const serve::SpmvResult r = futures[i].get();
        EXPECT_EQ(r.batch_width, 8u);
        const Vectors v = random_vectors(a.cols(), a.rows(), 850 + i);
        const core::RunResult direct =
            acc.run(prepared, v.x, v.y, 1.5f, -0.25f);
        expect_result_equal(r.run, direct,
                            "pinned batch member " + std::to_string(i));
        if (i == 0)
            shared_amortized = r.device_amortized_ms;
        EXPECT_EQ(r.device_amortized_ms, shared_amortized);
        EXPECT_LT(r.device_amortized_ms, r.run.time_ms);
    }
}

TEST(ServeServer, SubmitFuturesCarryTelemetry)
{
    const auto m = sparse::make_banded(600, 5, 67);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    const Vectors v = random_vectors(m.cols(), m.rows(), 900);
    const serve::SpmvResult r = server.spmv("m", v.x, v.y);
    EXPECT_GE(r.queue_ms, 0.0);
    EXPECT_GT(r.service_ms, 0.0);
    EXPECT_GE(r.batch_width, 1u);

    server.drain();
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_GE(stats.rounds, 1u);
    EXPECT_GT(stats.mean_batch_width(), 0.0);
    EXPECT_EQ(stats.queue_hist.count(), 1u);
    EXPECT_EQ(stats.service_hist.count(), 1u);
    EXPECT_EQ(stats.width_hist[1], 1u);
}

// Regression: queue_ms used to stop at round pickup, so on a serial drain
// every group in the round reported near-zero queue time even though later
// groups sat queued behind earlier groups' execution. Queue time must run
// until the request's OWN batch starts.
TEST(ServeServer, QueueTimeRunsUntilTheRequestsOwnBatchStarts)
{
    // Two groups with very different service times: a heavy matrix and a
    // light one. serve_threads = 1 drains the round serially, and groups
    // execute in submit order (earliest first), so the light request's
    // batch starts only after the heavy batch finishes.
    const auto heavy = sparse::make_uniform_random(4096, 4096, 400'000, 311);
    const auto light = sparse::make_banded(256, 3, 313);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.serve_threads = 1;
    serve::Server server(cfg);
    server.registry().admit("heavy", heavy);
    server.registry().admit("light", light);

    server.pause();
    const Vectors vh = random_vectors(heavy.cols(), heavy.rows(), 1);
    const Vectors vl = random_vectors(light.cols(), light.rows(), 2);
    auto slow = server.submit("heavy", vh.x, vh.y);
    auto fast = server.submit("light", vl.x, vl.y);
    server.resume();

    const serve::SpmvResult slow_r = slow.get();
    const serve::SpmvResult fast_r = fast.get();
    ASSERT_GT(slow_r.service_ms, 0.0);
    // The light request was submitted before the round started, then its
    // batch waited out the heavy batch's whole execution: its queue time
    // must cover at least that service time. Under the old accounting it
    // measured only submit -> round start (essentially zero here).
    EXPECT_GE(fast_r.queue_ms, slow_r.service_ms);
    EXPECT_LE(slow_r.queue_ms, fast_r.queue_ms);
}

// Regression: dispatch_loop's shutdown drain used to be reachable only via
// the !paused_ arm of its wait predicate, which could leave a paused
// server's queue undrained at destruction. Stop overrides pause: every
// accepted request gets its response.
TEST(ServeServer, DestructionDrainsPausedQueue)
{
    const auto m = sparse::make_banded(400, 5, 331);
    std::vector<std::future<serve::SpmvResult>> futures;
    {
        serve::Server server(core::SerpensConfig::a16());
        server.registry().admit("m", m);
        server.pause();
        for (unsigned i = 0; i < 5; ++i) {
            const Vectors v = random_vectors(m.cols(), m.rows(), 400 + i);
            futures.push_back(server.submit("m", v.x, v.y));
        }
        // Destructor runs with the server still paused.
    }
    for (auto& f : futures) {
        const serve::SpmvResult r = f.get();
        EXPECT_EQ(r.run.y.size(), 400u);
    }
}

TEST(ServeServer, PausedServerRunsNoRounds)
{
    const auto m = sparse::make_banded(400, 5, 337);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    server.pause();
    const Vectors v = random_vectors(m.cols(), m.rows(), 7);
    auto f = server.submit("m", v.x, v.y);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(server.stats().rounds, 0u);
    server.resume();
    (void)f.get();
    server.drain();  // settle the post-round bookkeeping before reading
    EXPECT_GE(server.stats().rounds, 1u);
}

TEST(ServeServer, AdmissionBoundRejectsLoudlyAndCountsIt)
{
    const auto m = sparse::make_banded(400, 5, 347);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_queue_depth = 2;
    serve::Server server(cfg);
    server.registry().admit("m", m);

    server.pause();
    const Vectors v = random_vectors(m.cols(), m.rows(), 11);
    auto f1 = server.submit("m", v.x, v.y);
    auto f2 = server.submit("m", v.x, v.y);
    EXPECT_THROW(server.submit("m", v.x, v.y), serve::QueueFullError);
    EXPECT_THROW(server.submit("m", v.x, v.y), serve::QueueFullError);
    EXPECT_EQ(server.stats().rejected, 2u);

    // Rejection is fast-fail, not poison: once the queue drains the same
    // client admits again.
    server.resume();
    (void)f1.get();
    (void)f2.get();
    server.drain();
    EXPECT_NO_THROW((void)server.spmv("m", v.x, v.y));
    EXPECT_EQ(server.stats().rejected, 2u);
}

TEST(ServeServer, SloControllerShrinksWidthUnderQueuePressure)
{
    const auto m = sparse::make_banded(400, 5, 353);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 8;
    cfg.slo_queue_ms = 1e-6;  // unmeetable: every round violates the SLO
    serve::Server server(cfg);
    server.registry().admit("m", m);
    ASSERT_EQ(server.current_max_batch(), 8u);

    const Vectors v = random_vectors(m.cols(), m.rows(), 13);
    // Each round's p99 queue time exceeds the (absurd) target, so each
    // round halves the width: 8 -> 4 -> 2 -> 1, then it floors.
    for (unsigned round = 0; round < 5; ++round) {
        (void)server.spmv("m", v.x, v.y);
        server.drain();
    }
    EXPECT_EQ(server.current_max_batch(), 1u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.batch_shrinks, 3u);
    EXPECT_EQ(stats.batch_grows, 0u);
    EXPECT_EQ(stats.current_max_batch, 1u);
    EXPECT_GT(stats.p99_queue_ewma_ms, 0.0);
}

TEST(ServeServer, SloControllerGrowsBackWhenQueueTimesRecover)
{
    const auto m = sparse::make_banded(400, 5, 359);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 8;
    cfg.slo_queue_ms = 60.0;
    serve::Server server(cfg);
    server.registry().admit("m", m);

    // One artificially slow round: hold a burst paused well past the SLO
    // so the seeded EWMA lands far above 60 ms and the width shrinks.
    server.pause();
    std::vector<std::future<serve::SpmvResult>> futures;
    const Vectors v = random_vectors(m.cols(), m.rows(), 17);
    for (unsigned i = 0; i < 4; ++i)
        futures.push_back(server.submit("m", v.x, v.y));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.resume();
    for (auto& f : futures)
        (void)f.get();
    server.drain();
    EXPECT_GE(server.stats().batch_shrinks, 1u);
    EXPECT_LT(server.current_max_batch(), 8u);

    // Healthy rounds (queue times far below slo/2) decay the EWMA and the
    // width doubles back toward the configured ceiling.
    for (unsigned round = 0; round < 12; ++round) {
        (void)server.spmv("m", v.x, v.y);
        server.drain();
    }
    EXPECT_GE(server.stats().batch_grows, 1u);
    EXPECT_EQ(server.current_max_batch(), 8u);
}

TEST(ServeServer, SetBatchingResetsTheControllerAndWidth)
{
    const auto m = sparse::make_banded(400, 5, 367);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 8;
    cfg.slo_queue_ms = 1e-6;
    serve::Server server(cfg);
    server.registry().admit("m", m);

    const Vectors v = random_vectors(m.cols(), m.rows(), 19);
    (void)server.spmv("m", v.x, v.y);
    server.drain();
    EXPECT_LT(server.current_max_batch(), 8u);

    server.set_batching(/*max_batch=*/4, /*slo_queue_ms=*/0.0,
                        /*batch_wait_ms=*/0.0, /*max_queue_depth=*/0);
    EXPECT_EQ(server.current_max_batch(), 4u);
    // SLO off: widths stay put no matter the queue times.
    (void)server.spmv("m", v.x, v.y);
    server.drain();
    EXPECT_EQ(server.current_max_batch(), 4u);
    EXPECT_DOUBLE_EQ(server.stats().p99_queue_ewma_ms, 0.0);
}

TEST(ServeServer, BatchWaitHoldsSingleRequestsButNotFullBatches)
{
    const auto m = sparse::make_banded(400, 5, 373);
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    cfg.max_batch = 4;
    cfg.batch_wait_ms = 200.0;
    serve::Server server(cfg);
    server.registry().admit("m", m);

    // A full batch dispatches without waiting out the hold.
    server.pause();
    std::vector<std::future<serve::SpmvResult>> futures;
    const Vectors v = random_vectors(m.cols(), m.rows(), 23);
    for (unsigned i = 0; i < 4; ++i)
        futures.push_back(server.submit("m", v.x, v.y));
    server.resume();
    for (auto& f : futures) {
        const serve::SpmvResult r = f.get();
        EXPECT_EQ(r.batch_width, 4u);
        EXPECT_LT(r.queue_ms, 150.0);
    }

    // A lone request rides out the full hold waiting for company.
    const serve::SpmvResult lone = server.spmv("m", v.x, v.y);
    EXPECT_EQ(lone.batch_width, 1u);
    EXPECT_GE(lone.queue_ms, 150.0);
}

TEST(ServeServer, ExpiredDeadlineShedsAtBatchFormingAndIsCounted)
{
    const auto m = sparse::make_banded(400, 5, 379);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    // Hold two requests paused past the first one's 10 ms budget. The
    // expired one must shed with DeadlineExceededError; its companion (no
    // deadline) rides the same round untouched.
    server.pause();
    const Vectors v = random_vectors(m.cols(), m.rows(), 29);
    auto doomed = server.submit("m", v.x, v.y, 1.0f, 0.0f,
                                /*deadline_ms=*/10.0);
    auto healthy = server.submit("m", v.x, v.y, 1.0f, 0.0f);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    server.resume();

    EXPECT_THROW((void)doomed.get(), serve::DeadlineExceededError);
    EXPECT_NO_THROW((void)healthy.get());
    server.drain();

    const auto stats = server.stats();
    EXPECT_EQ(stats.shed, 1u);
    // Shed requests never count as served work: requests reflects only the
    // healthy one (plus nothing else), and no batch slot was burned.
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeServer, GenerousDeadlineDoesNotShed)
{
    const auto m = sparse::make_banded(400, 5, 383);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    const Vectors v = random_vectors(m.cols(), m.rows(), 31);
    const serve::SpmvResult r =
        server.spmv("m", v.x, v.y, 1.0f, 0.0f, /*deadline_ms=*/60'000.0);
    EXPECT_EQ(r.batch_width, 1u);
    server.drain();
    EXPECT_EQ(server.stats().shed, 0u);
    EXPECT_EQ(server.stats().requests, 1u);
}

TEST(ServeServer, AllExpiredGroupRunsNoBatch)
{
    const auto m = sparse::make_banded(400, 5, 389);
    serve::Server server(core::SerpensConfig::a16());
    server.registry().admit("m", m);

    server.pause();
    const Vectors v = random_vectors(m.cols(), m.rows(), 37);
    std::vector<std::future<serve::SpmvResult>> futures;
    for (unsigned i = 0; i < 4; ++i)
        futures.push_back(
            server.submit("m", v.x, v.y, 1.0f, 0.0f, /*deadline_ms=*/5.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.resume();

    for (auto& f : futures)
        EXPECT_THROW((void)f.get(), serve::DeadlineExceededError);
    server.drain();

    const auto stats = server.stats();
    EXPECT_EQ(stats.shed, 4u);
    EXPECT_EQ(stats.requests, 0u);
    // A round whose every member expired dispatches nothing to the device.
    EXPECT_EQ(stats.batches, 0u);
}

} // namespace
} // namespace serpens
