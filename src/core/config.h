// Top-level Serpens accelerator configuration.
//
// Bundles the architecture parameters (encode::EncodeParams — Table 1 of the
// paper), the physical operating point (frequency/power — Table 2), and the
// calibration constants of the performance model. The two published design
// points are available as presets:
//
//   SerpensConfig::a16(): 16 A-channels + 3 vector channels = 19 HBM
//       channels, 273 GB/s, 223 MHz, 48 W       (paper §3.1.1, Table 2)
//   SerpensConfig::a24(): 24 + 3 = 27 channels, 388 GB/s, 270 MHz
//       (paper §4.4; power interpolated at 52 W — the paper gives none)
#pragma once

#include <cstddef>

#include "encode/mapping.h"
#include "hbm/spec.h"

namespace serpens::core {

struct SerpensConfig {
    encode::EncodeParams arch;   // HA, PEs/channel, U, D, W, T, coalescing
    hbm::HbmSpec hbm;            // per-channel bandwidth & stream efficiency

    double frequency_mhz = 223.0;
    double power_w = 48.0;
    unsigned vector_channels = 3;     // x, y_in, y_out (paper §3.1.1)
    // Extension experiment: double-buffer the x-segment BRAMs to overlap
    // RdX with compute (bench_ablation_overlap). Off = published design.
    bool double_buffer_x = false;
    unsigned fill_per_segment = 48;   // pipeline fill cycles per segment
    unsigned fill_y_phase = 48;
    double invocation_overhead_us = 3.0;  // host->device kickoff latency
    // Host-side worker threads for prepare()'s per-channel encode
    // (1 = serial, 0 = one per hardware thread); never changes the image.
    unsigned encode_threads = 1;
    // Host-side worker threads for run()'s per-channel simulator loop and
    // the one-time decode at prepare (same convention); never changes the
    // simulated y or CycleStats.
    unsigned sim_threads = 1;
    // Batched device mode (sim::BatchCycleStats): dense columns one
    // A-stream pass feeds. This is the Sextans-style SpMM block width —
    // each PE multiply-accumulates this many right-hand-side columns per
    // streamed element, and the x-segment BRAMs hold this many x columns
    // resident (the paper's 128 BRAM18K/PE budget at W = 8192 covers 8).
    // Batches wider than this take ceil(B / batch_columns) passes over the
    // sparse stream, so amortized device time saturates here — the knee
    // bench_ablation_batch validates.
    unsigned batch_columns = 8;

    // --- Serving layer (serve::Server / serve::MatrixRegistry) ---
    // Width of the request scheduler's drain rounds: how many coalesced
    // batches execute concurrently on util::shared_pool (1 = serial drain,
    // 0 = one per hardware thread). When > 1 the per-request simulator
    // runs serially (sim_threads is forced to 1 inside the server) because
    // the shared pool's parallel_for is not reentrant — parallelism moves
    // across requests instead of within one.
    unsigned serve_threads = 1;
    // Byte budget for resident prepared matrices in the registry
    // (PreparedMatrix::memory_footprint_bytes accounting; LRU eviction
    // above it). 0 = unlimited.
    std::uint64_t resident_budget_bytes = 0;
    // Max same-matrix, same-alpha/beta requests coalesced into one
    // simulate_spmv_batch call per drain round (Sextans-style multi-vector
    // amortization; per-request results are bit-identical at any width).
    unsigned max_batch = 8;
    // Hold a forming dispatch round up to this long waiting for the
    // effective max_batch to fill before draining (0 = drain the moment
    // anything is queued — the pre-daemon behavior). This is the
    // throughput/latency trade the SLO controller below steers: wider
    // batches amortize the A stream, but every held request pays the hold
    // as queue time.
    double batch_wait_ms = 0.0;
    // Target p99 queue time for SLO-driven adaptive batching. When > 0 the
    // dispatcher maintains an EWMA of each round's p99 queue time and
    // halves its effective max_batch (floor 1, so batches form instantly)
    // whenever the estimate exceeds the target, doubling back toward
    // max_batch once the estimate drops below half the target. 0 = fixed
    // max_batch, no adaptation.
    double slo_queue_ms = 0.0;
    // Admission bound: a submit() arriving when this many requests are
    // already queued fails fast with serve::QueueFullError instead of
    // growing the backlog without bound (0 = unbounded). Overload degrades
    // into visible rejections the client can retry, never silent drops or
    // unbounded queueing.
    std::size_t max_queue_depth = 0;

    static SerpensConfig a16()
    {
        SerpensConfig c;
        c.arch.ha_channels = 16;
        c.frequency_mhz = 223.0;
        c.power_w = 48.0;
        return c;
    }

    static SerpensConfig a24()
    {
        SerpensConfig c;
        c.arch.ha_channels = 24;
        c.frequency_mhz = 270.0;  // paper §4.4 (TAPA + AutoBridge closure)
        c.power_w = 52.0;
        // Lateral-channel congestion: with 27 of 32 HBM channels active, the
        // switch network sustains a lower per-channel rate (the same effect
        // that made vanilla Vitis fail P&R, §4.4). Calibrated so the model
        // reproduces the paper's A24/A16 speedup of ~1.36x rather than the
        // ideal 1.81x.
        c.hbm.stream_efficiency = 0.62;
        return c;
    }

    unsigned total_hbm_channels() const
    {
        return arch.ha_channels + vector_channels;
    }

    // Paper-style "utilized bandwidth": channels x per-channel GB/s
    // (A16: 19 x 14.375 = 273 GB/s; A24: 27 x 14.375 = 388 GB/s).
    double utilized_bandwidth_gbps() const
    {
        return hbm.utilized_gbps(static_cast<int>(total_hbm_channels()));
    }
};

} // namespace serpens::core
