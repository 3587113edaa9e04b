// Deterministic chaos harness: a real daemon on localhost hammered by
// concurrent retrying clients while every fault site in the stack fires
// from one seeded injector.
//
// The fault-tolerance acceptance gate (PR 8):
//   - 1000+ requests complete with RetryPolicy despite injected frame
//     drops, corrupted frames, delays, forced admission refusals, and
//     mid-flight evictions — zero client-visible failures.
//   - Every served response stays BIT-IDENTICAL to a direct
//     Accelerator::run: faults can delay or kill transport, never bend
//     the arithmetic.
//   - Failures map onto the documented taxonomy — nothing escapes as a
//     crash, a hang, or an exception type the contract does not name.
//   - The daemon survives and drains: it serves after the storm and holds
//     zero open connections once the clients are gone.
//   - The same seed replays the same fault pattern (single-threaded
//     probe order is deterministic by construction).
//
// The crash-recovery acceptance gate (PR 9) forks the REAL serpens_served
// binary: a daemon SIGKILLed mid-stream (torn WAL tail and all) warm-
// restarts from its --state-dir and serves bit-identically without
// re-encoding, while a FailoverClient rides the outage to a replica and
// back — with the endpoint-per-request sequence a deterministic function
// of the (seeded) policy.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "net/daemon.h"
#include "net/failover.h"
#include "net/retry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sparse/generators.h"
#include "util/bitpack.h"
#include "util/fault.h"
#include "util/rng.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace serpens {
namespace {

constexpr unsigned kWorkers = 4;
constexpr unsigned kRequestsPerWorker = 300;  // 1200 total, gate is 1000+
constexpr unsigned kMatrices = 2;
constexpr unsigned kVectorPairs = 8;
constexpr float kAlpha = 1.25f;
constexpr float kBeta = -0.5f;
constexpr int kClientTimeoutMs = 30'000;

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

struct Workload {
    std::vector<sparse::CooMatrix> matrices;
    std::vector<std::string> names;
    // reference[m][v] = bit-exact expected y for matrix m, vector pair v.
    std::vector<std::vector<Vectors>> vectors;
    std::vector<std::vector<std::vector<float>>> reference;

    explicit Workload(const core::SerpensConfig& cfg)
    {
        const core::Accelerator acc(cfg);
        for (unsigned m = 0; m < kMatrices; ++m) {
            matrices.push_back(
                sparse::make_uniform_random(200, 200, 2000, 500 + m));
            names.push_back("chaos" + std::to_string(m));
            const auto prepared = acc.prepare(matrices.back());
            vectors.emplace_back();
            reference.emplace_back();
            for (unsigned v = 0; v < kVectorPairs; ++v) {
                vectors.back().push_back(
                    random_vectors(200, 200, 1000 + m * kVectorPairs + v));
                const Vectors& vec = vectors.back().back();
                reference.back().push_back(
                    acc.run(prepared, vec.x, vec.y, kAlpha, kBeta).y);
            }
        }
    }
};

net::RetryPolicy chaos_policy(std::uint64_t worker)
{
    net::RetryPolicy p;
    p.max_attempts = 8;
    p.initial_backoff_ms = 0.2;
    p.max_backoff_ms = 5.0;
    p.seed = 100 + worker;
    return p;
}

TEST(Chaos, ThousandFaultedRequestsStayBitIdenticalAndLeakNothing)
{
    util::FaultInjector chaos(42);
    chaos.arm("net.frame.delay", 0.02, /*value=*/1.0);
    chaos.arm("net.frame.drop", 0.01);
    chaos.arm("net.frame.corrupt", 0.005);
    chaos.arm("serve.queue_full", 0.02);
    chaos.arm("serve.evict_mid_flight", 0.005);

    core::SerpensConfig cfg = core::SerpensConfig::a16();
    const Workload work(cfg);
    serve::Server server(cfg);
    net::Daemon daemon(server, /*port=*/0);
    for (unsigned m = 0; m < kMatrices; ++m)
        server.registry().admit(work.names[m], work.matrices[m]);

    util::set_fault_injector(&chaos);

    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> evict_misses{0};
    std::atomic<std::uint64_t> unexpected{0};
    std::atomic<std::uint64_t> retries{0};

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            net::RetryingClient client("127.0.0.1", daemon.port(),
                                       kClientTimeoutMs, chaos_policy(w));
            for (unsigned i = 0; i < kRequestsPerWorker; ++i) {
                const unsigned m = (w * 7 + i) % kMatrices;
                const unsigned vi = (w + i) % kVectorPairs;
                const Vectors& v = work.vectors[m][vi];
                try {
                    net::SpmvReply reply;
                    for (int attempt = 0;; ++attempt) {
                        try {
                            reply = client.spmv(work.names[m], v.x, v.y,
                                                kAlpha, kBeta);
                            break;
                        } catch (const net::RemoteError&) {
                            // The injector evicted the matrix mid-storm:
                            // a documented, recoverable failure. Reinstall
                            // and go again (admit is idempotent).
                            ++evict_misses;
                            if (attempt >= 20)
                                throw;
                            client.admit(work.names[m], work.matrices[m]);
                        }
                    }
                    const auto& expect = work.reference[m][vi];
                    bool equal = reply.y.size() == expect.size();
                    for (std::size_t r = 0; equal && r < expect.size(); ++r)
                        equal = float_bits(reply.y[r]) ==
                                float_bits(expect[r]);
                    if (!equal)
                        ++mismatches;
                    ++served;
                } catch (...) {
                    // Anything reaching here escaped both the retry policy
                    // and the documented taxonomy handling above.
                    ++unexpected;
                }
            }
            retries += client.stats().retries;
        });
    }
    for (auto& t : workers)
        t.join();
    util::set_fault_injector(nullptr);

    // Zero client-visible failures, all responses bit-identical.
    EXPECT_EQ(served.load(), kWorkers * kRequestsPerWorker);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(unexpected.load(), 0u);
    EXPECT_GE(served.load(), 1000u);

    // The storm actually happened: every armed site fired, and the
    // clients visibly worked for their successes.
    EXPECT_GT(chaos.fired("net.frame.delay"), 0u);
    EXPECT_GT(chaos.fired("net.frame.drop"), 0u);
    EXPECT_GT(chaos.fired("net.frame.corrupt"), 0u);
    EXPECT_GT(chaos.fired("serve.queue_full"), 0u);
    EXPECT_GT(chaos.fired("serve.evict_mid_flight"), 0u);
    EXPECT_GT(retries.load(), 0u);
    EXPECT_GT(evict_misses.load(), 0u);
    EXPECT_EQ(server.stats().rejected, chaos.fired("serve.queue_full"));

    // The daemon survives the storm: a fresh client gets served, and once
    // every client is gone the connection table drains to zero — faults
    // may kill individual connections but never leak them.
    {
        net::RetryingClient after("127.0.0.1", daemon.port(),
                                  kClientTimeoutMs, chaos_policy(99));
        // serve.evict_mid_flight evicts AFTER a request resolved its
        // matrix, so the storm's last chaos0 request may have left it
        // evicted with no later request to re-admit it: re-admit first
        // (idempotent), as the workers do.
        after.admit(work.names[0], work.matrices[0]);
        const Vectors& v = work.vectors[0][0];
        const net::SpmvReply reply =
            after.spmv(work.names[0], v.x, v.y, kAlpha, kBeta);
        ASSERT_EQ(reply.y.size(), work.reference[0][0].size());
        for (std::size_t r = 0; r < reply.y.size(); ++r)
            ASSERT_EQ(float_bits(reply.y[r]),
                      float_bits(work.reference[0][0][r]));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon.open_connections() != 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(daemon.open_connections(), 0u);

    daemon.stop();
    server.drain();
}

TEST(Chaos, SameSeedReplaysTheSameFaultSequence)
{
    // Single worker, so probe order — and therefore the whole fault
    // pattern — is a pure function of the injector seed. Two runs against
    // fresh daemons must agree on every counter and on every outcome.
    core::SerpensConfig cfg = core::SerpensConfig::a16();
    const Workload work(cfg);

    struct Outcome {
        std::vector<int> results;  // per request: 0 ok, 1 evict-miss path
        std::uint64_t fired_delay = 0, fired_drop = 0, fired_corrupt = 0;
        std::uint64_t fired_full = 0, fired_evict = 0;
        std::uint64_t retries = 0, reconnects = 0;
    };

    const auto run_once = [&]() {
        util::FaultInjector chaos(7);
        chaos.arm("net.frame.delay", 0.05, 0.5);
        chaos.arm("net.frame.drop", 0.03);
        chaos.arm("net.frame.corrupt", 0.02);
        chaos.arm("serve.queue_full", 0.05);
        chaos.arm("serve.evict_mid_flight", 0.02);

        serve::Server server(cfg);
        net::Daemon daemon(server, /*port=*/0);
        for (unsigned m = 0; m < kMatrices; ++m)
            server.registry().admit(work.names[m], work.matrices[m]);
        util::set_fault_injector(&chaos);

        Outcome out;
        {
            net::RetryingClient client("127.0.0.1", daemon.port(),
                                       kClientTimeoutMs, chaos_policy(0));
            for (unsigned i = 0; i < 150; ++i) {
                const unsigned m = i % kMatrices;
                const Vectors& v = work.vectors[m][i % kVectorPairs];
                int result = 0;
                for (;;) {
                    try {
                        (void)client.spmv(work.names[m], v.x, v.y, kAlpha,
                                          kBeta);
                        break;
                    } catch (const net::RemoteError&) {
                        result = 1;
                        client.admit(work.names[m], work.matrices[m]);
                    }
                }
                out.results.push_back(result);
            }
            out.retries = client.stats().retries;
            out.reconnects = client.stats().reconnects;
        }
        util::set_fault_injector(nullptr);
        out.fired_delay = chaos.fired("net.frame.delay");
        out.fired_drop = chaos.fired("net.frame.drop");
        out.fired_corrupt = chaos.fired("net.frame.corrupt");
        out.fired_full = chaos.fired("serve.queue_full");
        out.fired_evict = chaos.fired("serve.evict_mid_flight");
        daemon.stop();
        server.drain();
        return out;
    };

    const Outcome first = run_once();
    const Outcome second = run_once();
    EXPECT_EQ(first.results, second.results);
    EXPECT_EQ(first.fired_delay, second.fired_delay);
    EXPECT_EQ(first.fired_drop, second.fired_drop);
    EXPECT_EQ(first.fired_corrupt, second.fired_corrupt);
    EXPECT_EQ(first.fired_full, second.fired_full);
    EXPECT_EQ(first.fired_evict, second.fired_evict);
    EXPECT_EQ(first.retries, second.retries);
    EXPECT_EQ(first.reconnects, second.reconnects);
}

// --- Crash recovery against the real daemon binary (PR 9) ---

#ifdef SERPENS_SERVED_BIN

// A state directory under the test's CWD (the build tree), removed
// recursively on scope exit.
struct TempDir {
    std::string path;

    explicit TempDir(const std::string& tag)
        : path(tag + "." + std::to_string(static_cast<long>(::getpid())))
    {
        remove_tree(path);
    }
    ~TempDir() { remove_tree(path); }

    static void remove_tree(const std::string& dir)
    {
        if (DIR* d = ::opendir(dir.c_str())) {
            while (const dirent* e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name == "." || name == "..")
                    continue;
                const std::string child = dir + "/" + name;
                remove_tree(child);  // no-op for regular files
                std::remove(child.c_str());
            }
            ::closedir(d);
            ::rmdir(dir.c_str());
        }
    }
};

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct DaemonProc {
    pid_t pid = -1;
    std::uint16_t port = 0;
};

// fork+exec the real daemon, then poll its --port-file (written atomically
// by the daemon) until the bound port appears. The child's stdio goes to
// /dev/null so the test log stays readable.
DaemonProc spawn_served(std::vector<std::string> args,
                        const std::string& port_file)
{
    ::unlink(port_file.c_str());
    args.insert(args.begin(), {std::string(SERPENS_SERVED_BIN),
                               "--port-file", port_file});
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
            ::dup2(null_fd, STDOUT_FILENO);
            ::dup2(null_fd, STDERR_FILENO);
            ::close(null_fd);
        }
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    DaemonProc proc;
    proc.pid = pid;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
        const std::string text = slurp(port_file);
        if (!text.empty()) {
            proc.port = static_cast<std::uint16_t>(std::stoul(text));
            return proc;
        }
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            ADD_FAILURE() << "daemon died before binding (status "
                          << status << ")";
            proc.pid = -1;
            return proc;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon never wrote " << port_file;
    return proc;
}

void sigkill_and_reap(DaemonProc& proc)
{
    ASSERT_GT(proc.pid, 0);
    ASSERT_EQ(::kill(proc.pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(proc.pid, &status, 0), proc.pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    proc.pid = -1;
}

TEST(Chaos, SigkilledDaemonWarmRestartsAndClientsFailOverDeterministically)
{
    const core::SerpensConfig cfg = core::SerpensConfig::a16();
    const Workload work(cfg);
    TempDir td("chaos_crash");
    ASSERT_EQ(::mkdir(td.path.c_str(), 0777), 0);
    const std::string state_dir = td.path + "/state";
    const std::string recovery_json = td.path + "/recovery.json";

    // Primary A journals to state_dir; replica B is stateless. Both hold
    // the workload (each admission is journaled only by A).
    DaemonProc a = spawn_served({"--state-dir", state_dir},
                                td.path + "/port_a");
    DaemonProc b = spawn_served({}, td.path + "/port_b");
    ASSERT_GT(a.pid, 0);
    ASSERT_GT(b.pid, 0);
    for (const std::uint16_t port : {a.port, b.port}) {
        net::Client direct("127.0.0.1", port, kClientTimeoutMs);
        for (unsigned m = 0; m < kMatrices; ++m)
            direct.admit(work.names[m], work.matrices[m]);
    }

    // threshold 1: the first dead-endpoint operation opens the breaker, so
    // the post-restart phase exercises the half-open probe path.
    net::FailoverPolicy policy;
    policy.retry = chaos_policy(0);
    policy.retry.max_attempts = 2;
    policy.failure_threshold = 1;
    policy.cooldown_ms = 25.0;
    policy.max_cooldown_ms = 200.0;
    policy.seed = 11;
    net::FailoverClient fc({{"127.0.0.1", a.port}, {"127.0.0.1", b.port}},
                           kClientTimeoutMs, policy);

    constexpr unsigned kPhaseRequests = 6;
    std::vector<std::uint16_t> served_by;
    std::uint64_t mismatches = 0;
    const auto run_phase = [&] {
        for (unsigned i = 0; i < kPhaseRequests; ++i) {
            const unsigned m = i % kMatrices;
            const unsigned vi = i % kVectorPairs;
            const Vectors& v = work.vectors[m][vi];
            const net::SpmvReply reply =
                fc.spmv(work.names[m], v.x, v.y, kAlpha, kBeta);
            const auto& expect = work.reference[m][vi];
            bool equal = reply.y.size() == expect.size();
            for (std::size_t r = 0; equal && r < expect.size(); ++r)
                equal = float_bits(reply.y[r]) == float_bits(expect[r]);
            if (!equal)
                ++mismatches;
            served_by.push_back(fc.current_endpoint().port);
        }
    };

    // Phase 1: healthy primary.
    run_phase();
    EXPECT_EQ(fc.stats().failovers, 0u);

    // SIGKILL the primary mid-stream and tear its WAL tail the way a real
    // crash would: garbage after the last complete record.
    sigkill_and_reap(a);
    {
        std::ofstream torn(state_dir + "/manifest.log",
                           std::ios::binary | std::ios::app);
        torn << "TORN_TAIL_FROM_A_CRASH";
    }

    // Phase 2: clients ride the outage to the replica.
    run_phase();
    EXPECT_GE(fc.stats().failovers, 1u);
    EXPECT_GE(fc.stats().breaker_opens, 1u);

    // Warm restart A on the same port and state dir (SO_REUSEADDR makes
    // the re-bind race-free), then kill the replica too: the only way
    // phase 3 can pass is recovery actually serving A's journaled state.
    DaemonProc a2 = spawn_served({"--state-dir", state_dir, "--port",
                                  std::to_string(a.port), "--recovery-json",
                                  recovery_json},
                                 td.path + "/port_a2");
    ASSERT_GT(a2.pid, 0);
    ASSERT_EQ(a2.port, a.port);
    sigkill_and_reap(b);

    // Phase 3: fail over back through A's half-open probe.
    run_phase();
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GE(fc.stats().failovers, 2u);
    EXPECT_GE(fc.stats().probes, 1u);
    EXPECT_EQ(fc.stats().giveups, 0u);

    // The failover sequence is deterministic under the fixed seed: every
    // phase-1 request on A, every phase-2 request on B, every phase-3
    // request on the restarted A.
    std::vector<std::uint16_t> expected;
    for (const std::uint16_t port : {a.port, b.port, a.port})
        expected.insert(expected.end(), kPhaseRequests, port);
    EXPECT_EQ(served_by, expected);

    // The restart was a warm one: both residents replayed from the WAL,
    // zero encode stages paid, and the torn tail was truncated + counted.
    const std::string stats = fc.stats_json();
    std::size_t cursor = 0;
    double encodes = -1.0, recovered = -1.0;
    EXPECT_TRUE(
        serve::find_number_after_key(stats, "encodes", &cursor, &encodes));
    EXPECT_TRUE(serve::find_number_after_key(stats, "recovered", &cursor,
                                             &recovered));
    EXPECT_DOUBLE_EQ(encodes, 0.0);
    EXPECT_DOUBLE_EQ(recovered, static_cast<double>(kMatrices));

    const std::string report = slurp(recovery_json);
    std::string error;
    EXPECT_TRUE(serve::validate_recovery_json(report, &error)) << error;
    cursor = 0;
    double torn_bytes = -1.0;
    EXPECT_TRUE(serve::find_number_after_key(report, "wal_torn_bytes",
                                             &cursor, &torn_bytes));
    EXPECT_GT(torn_bytes, 0.0);

    // Clean shutdown over the wire; the daemon must exit 0.
    fc.shutdown_daemon();
    int status = 0;
    ASSERT_EQ(::waitpid(a2.pid, &status, 0), a2.pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif  // SERPENS_SERVED_BIN

} // namespace
} // namespace serpens
