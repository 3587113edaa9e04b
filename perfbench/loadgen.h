// The `gen` layer: an open-loop load generator over loopback TCP.
//
// Arrivals follow a seeded Poisson schedule. A fixed pool of reader
// threads, each owning at most one connection, takes requests in schedule
// order, sleeps until each is due and sends it; when every reader is busy
// the next request starts late, and that lateness (lag) is part of its
// latency, because latency is timed from the due time. A phase is valid
// only if its backlog did not grow: the median lag of the last quarter of
// its requests may exceed the first quarter's by at most max(1 ms, 2% of
// the phase length).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "net/protocol.h"

namespace perfbench {

// Every benchmark connection: loopback, with a generous socket timeout.
inline constexpr const char* kHost = "127.0.0.1";
inline constexpr int kTimeoutMs = 30000;

// True when a wire reply carries the oracle's y and CycleStats bits.
bool reply_matches(const serpens::sim::SimResult& oracle,
                   const serpens::net::SpmvReply& r);

// A resident name and the pool input it was admitted from.
struct Target {
    std::string name;
    std::size_t input = 0;
};

// The names readers may target, with per-name in-flight counts, so a
// writer can retire a name and evict it only after its last read returned.
class LiveSet {
public:
    explicit LiveSet(std::vector<Target> initial);

    // Pin a live target for one read (`pick` modulo the live count).
    Target acquire(std::uint64_t pick);
    void release(const std::string& name);
    // Make `t` live and retire the oldest live target, which is returned.
    Target rotate(Target t);
    // Block until no read on `name` is in flight.
    void wait_idle(const std::string& name);
    // The live targets, oldest first.
    std::vector<Target> targets();

private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Target> live_;
    std::unordered_map<std::string, int> inflight_;
};

struct Plan {
    double rate_rps = 1000.0;
    double seconds = 1.0;
    std::uint64_t seed = 1;
    double churn_share = 0.0;  // reads sent on a fresh connection
    // Closed loop: each reader sends its next read as soon as the last one
    // returned (due = send time) until `seconds` have passed; `rate_rps`
    // then only caps how many reads are drawn. Used to measure capacity.
    bool closed_loop = false;
};

// One completed, verified read.
struct Sample {
    double e2e_ms = 0.0;         // due -> reply
    double lag_ms = 0.0;         // due -> send
    double queue_ms = 0.0;       // server-reported
    double service_ms = 0.0;     // server-reported
    double unattributed_ms = 0.0;  // send -> reply minus queue and service
};

struct PhaseResult {
    std::vector<Sample> samples;      // successful reads, schedule order
    std::vector<double> connect_ms;   // fresh connections opened
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;         // errors, refusals, sheds, wrong bits
    std::uint64_t mismatched = 0;
    bool backlog_ok = true;

    std::vector<double> field(double Sample::*f) const;
};

struct LoadTarget {
    std::uint16_t port = 0;
    unsigned readers = 4;
    const std::vector<Input>* pool = nullptr;
    LiveSet* live = nullptr;
};

// Run one phase (open loop unless plan.closed_loop); counts every attempt
// into `report`.
PhaseResult run_phase(const LoadTarget& target, const Plan& plan,
                      Report& report);

// Periodic admissions on one connection: every `period_s` a fresh name is
// admitted from the pool (cycling through inputs from `first_input`), made
// live, and the oldest live name is evicted once its reads have drained.
class Writer {
public:
    Writer(const LoadTarget& target, double period_s, std::size_t first_input,
           Report& report);
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    // Stop after the admission in progress; returns the admission latencies
    // (ms) observed.
    std::vector<double> stop();

private:
    void loop();

    LoadTarget target_;
    double period_s_;
    std::size_t next_input_;
    Report& report_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    // Written by the writer thread only; read after it is joined.
    std::vector<double> admit_ms_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::thread thread_;  // last: started after the members it uses
};

} // namespace perfbench
