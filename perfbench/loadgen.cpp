#include "loadgen.h"

#include <cmath>
#include <optional>

#include "net/client.h"
#include "util/rng.h"

namespace perfbench {

bool reply_matches(const serpens::sim::SimResult& oracle,
                   const serpens::net::SpmvReply& r)
{
    serpens::sim::CycleStats c;
    c.x_load_cycles = r.x_load_cycles;
    c.compute_cycles = r.compute_cycles;
    c.y_phase_cycles = r.y_phase_cycles;
    c.fill_cycles = r.fill_cycles;
    c.total_slots = r.total_slots;
    c.padding_slots = r.padding_slots;
    return same_result(oracle, r.y, c);
}

LiveSet::LiveSet(std::vector<Target> initial) : live_(std::move(initial)) {}

Target LiveSet::acquire(std::uint64_t pick)
{
    const std::lock_guard<std::mutex> lock(mu_);
    Target t = live_[pick % live_.size()];
    ++inflight_[t.name];
    return t;
}

void LiveSet::release(const std::string& name)
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        --inflight_[name];
    }
    cv_.notify_all();
}

Target LiveSet::rotate(Target t)
{
    const std::lock_guard<std::mutex> lock(mu_);
    Target oldest = live_.front();
    live_.erase(live_.begin());
    live_.push_back(std::move(t));
    return oldest;
}

void LiveSet::wait_idle(const std::string& name)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_[name] == 0; });
    inflight_.erase(name);
}

std::vector<Target> LiveSet::targets()
{
    const std::lock_guard<std::mutex> lock(mu_);
    return live_;
}

std::vector<double> PhaseResult::field(double Sample::*f) const
{
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples)
        v.push_back(s.*f);
    return v;
}

PhaseResult run_phase(const LoadTarget& target, const Plan& plan,
                      Report& report)
{
    // The whole schedule is drawn before the phase starts.
    struct Req {
        std::uint64_t due_offset_ns = 0;
        std::uint64_t pick = 0;
        std::size_t vec = 0;
        bool churn = false;
    };
    serpens::Rng rng(plan.seed);
    const std::size_t total = std::max<std::size_t>(
        1, static_cast<std::size_t>(plan.rate_rps * plan.seconds));
    std::vector<Req> reqs(total);
    double t = 0.0;
    for (Req& r : reqs) {
        t += -std::log(std::max(1e-12, 1.0 - rng.next_double())) / plan.rate_rps;
        r.due_offset_ns = static_cast<std::uint64_t>(t * 1e9);
        r.pick = rng.next_u64();
        r.vec = static_cast<std::size_t>(rng.next_below(1u << 16));
        r.churn = rng.next_double() < plan.churn_share;
    }

    struct Slot {
        bool issued = false;
        bool ok = false;
        Sample s;
    };
    std::vector<Slot> slots(total);
    std::vector<std::vector<double>> connects(target.readers);
    std::vector<std::uint64_t> mismatched(target.readers, 0);
    std::atomic<std::size_t> next{0};
    const std::vector<Input>& pool = *target.pool;

    const std::uint64_t start = now_ns() + 2'000'000;  // 2 ms to spin up
    const std::uint64_t stop =
        start + static_cast<std::uint64_t>(plan.seconds * 1e9);
    std::vector<std::thread> readers;
    for (unsigned c = 0; c < target.readers; ++c) {
        readers.emplace_back([&, c] {
            std::optional<serpens::net::Client> conn;
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= total)
                    break;
                const Req& rq = reqs[i];
                std::uint64_t due = start + rq.due_offset_ns;
                if (plan.closed_loop) {
                    sleep_until_ns(start);
                    due = now_ns();
                    if (due >= stop)
                        break;
                } else {
                    sleep_until_ns(due);
                }
                const std::uint64_t send = now_ns();
                const Target tg = target.live->acquire(rq.pick);
                const Input& in = pool[tg.input];
                const std::size_t k = rq.vec % in.xs.size();
                const std::uint64_t id = new_trace_id();
                record_span("gen.lag", "gen", id, due, send);
                Slot& slot = slots[i];
                slot.issued = true;
                try {
                    if (!conn || rq.churn) {
                        conn.reset();
                        const std::uint64_t c0 = now_ns();
                        {
                            LayerSpan s("net.connect", "net", id);
                            conn.emplace(kHost, target.port, kTimeoutMs);
                        }
                        connects[c].push_back(ms_between(c0, now_ns()));
                    }
                    serpens::net::SpmvReply r;
                    const std::uint64_t sent = now_ns();
                    {
                        LayerSpan s("net.client", "net", id);
                        r = conn->spmv(tg.name, in.xs[k], in.ys[k], kAlpha,
                                       kBeta, 0.0, id);
                    }
                    const std::uint64_t done = now_ns();
                    slot.ok = reply_matches(in.oracle[k], r);
                    if (!slot.ok)
                        ++mismatched[c];
                    slot.s.e2e_ms = ms_between(due, done);
                    slot.s.lag_ms = ms_between(due, send);
                    slot.s.queue_ms = r.queue_ms;
                    slot.s.service_ms = r.service_ms;
                    slot.s.unattributed_ms =
                        ms_between(sent, done) - r.queue_ms - r.service_ms;
                    if (rq.churn)
                        conn.reset();
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "perfbench: read %zu on %s failed: %s\n",
                                 i, tg.name.c_str(), e.what());
                    conn.reset();
                }
                target.live->release(tg.name);
                record_span("gen.request", "gen", id, due, now_ns());
            }
        });
    }
    for (std::thread& th : readers)
        th.join();

    PhaseResult out;
    for (const auto& v : connects)
        out.connect_ms.insert(out.connect_ms.end(), v.begin(), v.end());
    for (const std::uint64_t m : mismatched)
        out.mismatched += m;
    for (const Slot& s : slots) {
        if (!s.issued)
            continue;  // a closed-loop phase ended before reaching it
        ++out.attempted;
        if (s.ok) {
            out.samples.push_back(s.s);
        } else {
            ++out.failed;
        }
    }
    report.attempt(true, out.attempted - out.failed);
    report.attempt(false, out.failed - out.mismatched);
    for (std::uint64_t m = 0; m < out.mismatched; ++m)
        report.mismatch("wire reply");

    // Backlog check: the median lag of the last quarter may exceed the
    // first quarter's by at most max(1 ms, 2% of the phase). Above
    // capacity the lag grows with time and fails this; a transient stall
    // (an admission, a descheduled thread) moves neither median much.
    const std::vector<double> lag = out.field(&Sample::lag_ms);
    const std::size_t q = lag.size() / 4;
    if (q > 0) {
        const double first = median({lag.begin(), lag.begin() + q});
        const double last = median({lag.end() - q, lag.end()});
        out.backlog_ok = last <= first + std::max(1.0, 20.0 * plan.seconds);
    }
    return out;
}

// ---------------------------------------------------------------------

Writer::Writer(const LoadTarget& target, double period_s,
               std::size_t first_input, Report& report)
    : target_(target), period_s_(period_s), next_input_(first_input),
      report_(report), thread_([this] { loop(); })
{
}

Writer::~Writer()
{
    stop();
}

std::vector<double> Writer::stop()
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
        report_.attempt(true, attempted_ - failed_);
        report_.attempt(false, failed_);
    }
    return admit_ms_;
}

void Writer::loop()
{
    try {
        serpens::net::Client client(kHost, target_.port, kTimeoutMs);
        const std::uint64_t start = now_ns();
        for (std::uint64_t j = 1;; ++j) {
            {
                const std::uint64_t wake =
                    start + static_cast<std::uint64_t>(
                                static_cast<double>(j) * period_s_ * 1e9);
                const std::uint64_t now = now_ns();
                std::unique_lock<std::mutex> lock(mu_);
                if (cv_.wait_for(lock,
                                 std::chrono::nanoseconds(wake > now ? wake - now : 0),
                                 [this] { return stop_; }))
                    break;
            }
            const Target fresh{"w" + std::to_string(j),
                               next_input_++ % target_.pool->size()};
            const std::uint64_t t0 = now_ns();
            ++attempted_;
            try {
                // Writes carry trace id 0, so the daemon's store.wal_append
                // spans (also id 0) nest under them.
                {
                    LayerSpan s("net.admit", "net", 0);
                    client.admit(fresh.name, (*target_.pool)[fresh.input].coo);
                }
                const std::uint64_t t1 = now_ns();
                record_span("gen.admit", "gen", 0, t0, t1);
                admit_ms_.push_back(ms_between(t0, t1));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: admit %s failed: %s\n",
                             fresh.name.c_str(), e.what());
                ++failed_;
                continue;
            }
            const Target retired = target_.live->rotate(fresh);
            target_.live->wait_idle(retired.name);
            ++attempted_;
            if (!client.evict(retired.name)) {
                std::fprintf(stderr, "perfbench: %s was not resident\n",
                             retired.name.c_str());
                ++failed_;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: writer failed: %s\n", e.what());
        ++attempted_;
        ++failed_;
    }
}

} // namespace perfbench
