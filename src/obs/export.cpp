#include "obs/export.h"

#include <string>

#include "net/failover.h"
#include "net/retry.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/store.h"
#include "sim/decoded_image.h"
#include "util/fault.h"

namespace serpens::obs {

void export_server_metrics(MetricsRegistry& reg, const serve::ServerStats& s)
{
    reg.counter("serpens_serve_requests_total", "Completed SpMV requests.",
                s.requests);
    reg.counter("serpens_serve_batches_total", "Device run_batch calls.",
                s.batches);
    reg.counter("serpens_serve_coalesced_total",
                "Requests that shared a batch (width > 1).", s.coalesced);
    reg.counter("serpens_serve_rounds_total", "Dispatcher drain rounds.",
                s.rounds);
    reg.counter("serpens_serve_rejected_total",
                "Submits refused at max_queue_depth.", s.rejected);
    reg.counter("serpens_serve_shed_total",
                "Requests dropped at an expired deadline.", s.shed);
    reg.counter("serpens_serve_batch_shrinks_total",
                "SLO controller effective-width halvings.", s.batch_shrinks);
    reg.counter("serpens_serve_batch_grows_total",
                "SLO controller effective-width doublings.", s.batch_grows);
    reg.gauge("serpens_serve_current_max_batch",
              "Effective batch width in force.",
              static_cast<double>(s.current_max_batch));
    reg.gauge("serpens_serve_p99_queue_ewma_ms",
              "SLO controller p99 queue-time estimate.", s.p99_queue_ewma_ms);
    reg.histogram("serpens_serve_queue_ms",
                  "Queue time to the request's own batch start.",
                  s.queue_hist);
    reg.histogram("serpens_serve_service_ms",
                  "Service time from batch start to reply.", s.service_hist);
    for (unsigned w = 0; w < serve::kWidthBuckets; ++w) {
        if (s.width_hist[w] != 0)
            reg.counter("serpens_serve_batch_width_total",
                        "Requests by the width of the batch they rode in.",
                        s.width_hist[w], {{"width", std::to_string(w)}});
    }
}

void export_registry_metrics(MetricsRegistry& reg,
                             const serve::MatrixRegistry& registry)
{
    const serve::RegistryStats s = registry.stats();
    reg.counter("serpens_registry_admissions_total",
                "Successful admit/admit_image calls.", s.admissions);
    reg.counter("serpens_registry_encodes_total",
                "Admissions that paid the encode stage.", s.encodes);
    reg.counter("serpens_registry_evictions_total",
                "Residents dropped for budget room or by evict().",
                s.evictions);
    reg.counter("serpens_registry_replacements_total",
                "Same-name re-admissions.", s.replacements);
    reg.counter("serpens_registry_hits_total", "get() calls that resolved.",
                s.hits);
    reg.counter("serpens_registry_misses_total",
                "get() calls that found nothing.", s.misses);
    reg.gauge("serpens_registry_residents", "Matrices currently resident.",
              static_cast<double>(registry.size()));
    reg.gauge("serpens_registry_bytes_resident",
              "Bytes charged against the resident budget.",
              static_cast<double>(registry.bytes_resident()));

    for (const auto& [name, prepared] : registry.residents_snapshot()) {
        const sim::DecodedImage& d = prepared->decoded();
        double depth = 0.0;
        for (unsigned seg = 0; seg < d.num_segments(); ++seg)
            depth += static_cast<double>(d.segment_depth(seg));
        for (unsigned c = 0; c < d.channels(); ++c) {
            const double lines =
                static_cast<double>(d.channel(c).lane_mask.size());
            reg.gauge("serpens_channel_utilization",
                      "Channel's share of the stall-inclusive device passes "
                      "for one resident matrix (1.0 = perfectly balanced).",
                      depth > 0.0 ? lines / depth : 0.0,
                      {{"matrix", name}, {"channel", std::to_string(c)}});
        }
    }
}

void export_store_metrics(MetricsRegistry& reg, const serve::StoreStats& s)
{
    reg.counter("serpens_store_wal_records_total",
                "Valid WAL records replayed at open.", s.wal_records);
    reg.counter("serpens_store_wal_torn_bytes_total",
                "Torn WAL tail bytes truncated at open.", s.wal_torn_bytes);
    reg.counter("serpens_store_recovered_total",
                "Residents re-admitted by recover().", s.recovered);
    reg.counter("serpens_store_skipped_corrupt_total",
                "Residents whose image failed to load.", s.skipped_corrupt);
    reg.counter("serpens_store_appends_total", "WAL records appended.",
                s.appends);
    reg.counter("serpens_store_compactions_total", "WAL rewrites.",
                s.compactions);
    reg.gauge("serpens_store_recovery_ms", "Wall time recover() spent.",
              s.recovery_ms);
    reg.gauge("serpens_store_clean_shutdown",
              "1 when the previous session left the clean-shutdown marker.",
              s.clean_shutdown ? 1.0 : 0.0);
}

void export_retry_metrics(MetricsRegistry& reg, const net::RetryStats& s)
{
    reg.counter("serpens_client_attempts_total",
                "Operations sent, retries included.", s.attempts);
    reg.counter("serpens_client_retries_total",
                "Attempts beyond each operation's first.", s.retries);
    reg.counter("serpens_client_reconnects_total",
                "Connections rebuilt after transport loss.", s.reconnects);
    reg.counter("serpens_client_giveups_total",
                "Operations that exhausted max_attempts.", s.giveups);
}

void export_failover_metrics(MetricsRegistry& reg, const net::FailoverStats& s)
{
    reg.counter("serpens_failover_moves_total",
                "Cursor moves to another endpoint.", s.failovers);
    reg.counter("serpens_failover_breaker_opens_total",
                "Closed-to-open breaker transitions.", s.breaker_opens);
    reg.counter("serpens_failover_probes_total", "Half-open pings sent.",
                s.probes);
    reg.counter("serpens_failover_probe_failures_total",
                "Probes that re-opened the breaker.", s.probe_failures);
    reg.counter("serpens_failover_giveups_total",
                "Operations that exhausted max_rounds.", s.giveups);
}

void export_fault_metrics(MetricsRegistry& reg,
                          const util::FaultInjector& injector)
{
    for (const auto& [site, counts] : injector.site_counts()) {
        reg.counter("serpens_fault_probes_total",
                    "Fault-site probes, by site.", counts.first,
                    {{"site", site}});
        reg.counter("serpens_fault_fired_total",
                    "Fault-site firings, by site.", counts.second,
                    {{"site", site}});
    }
}

} // namespace serpens::obs
