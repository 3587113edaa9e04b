#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "encode/decode.h"
#include "util/bitpack.h"
#include "util/thread_pool.h"

namespace serpens::sim {

using encode::EncodedElement;
using sparse::index_t;

SimResult simulate_spmv(const encode::SerpensImage& img,
                        std::span<const float> x,
                        std::span<const float> y_in, float alpha, float beta,
                        const SimOptions& options)
{
    const encode::EncodeParams& p = img.params();
    SERPENS_CHECK(x.size() == img.cols(), "x length must equal matrix cols");
    SERPENS_CHECK(y_in.size() == img.rows(), "y length must equal matrix rows");

    if (options.verify_hazards)
        encode::verify_image(img);

    const unsigned lanes = p.pes_per_channel;
    const unsigned pes = p.total_pes();
    const encode::RowMapping mapping(p);

    // Private URAM accumulator banks, flattened into one contiguous bank:
    // acc[pe * addrs_per_pe + addr].half[]. Addresses are disjoint across
    // PEs by construction (paper §3.3), so this layout is exactly the
    // hardware's — and the per-PE slices are what make the per-channel loop
    // below race-free: channel ch touches only PEs [ch*lanes, (ch+1)*lanes).
    struct Word {
        float half[2] = {0.0f, 0.0f};
    };
    const std::uint32_t addrs = p.addrs_per_pe();
    std::vector<Word> acc(static_cast<std::size_t>(pes) * addrs);

    CycleStats stats;

    // Per-channel cursor into its line stream, and per-channel slot/padding
    // partials. Each channel is owned by exactly one worker per segment, so
    // these stay data-race-free; the partials are reduced once at the end
    // (integer sums, so the totals match the serial order exactly).
    std::vector<std::size_t> cursor(img.channels(), 0);
    std::vector<std::uint64_t> ch_slots(img.channels(), 0);
    std::vector<std::uint64_t> ch_padding(img.channels(), 0);
    std::vector<std::uint64_t> ch_lines(img.channels(), 0);

    std::vector<float> xseg(p.window, 0.0f);

    // With double buffering, segment s+1's x-load overlaps segment s's
    // compute; only the load that is longer than the concurrent compute
    // contributes stall cycles. Track the previous segment's compute depth.
    std::uint64_t prev_compute_depth = 0;

    for (unsigned seg = 0; seg < img.num_segments(); ++seg) {
        // --- RdX: stream this x segment into the BRAM copies. ---
        const index_t seg_base = static_cast<index_t>(seg) * p.window;
        const index_t seg_width =
            std::min<index_t>(p.window, img.cols() - seg_base);
        for (index_t i = 0; i < seg_width; ++i)
            xseg[i] = x[seg_base + i];
        const std::uint64_t load_cycles = ceil_div<std::uint64_t>(seg_width, 16);
        if (options.double_buffer_x && seg > 0) {
            // This load ran during the previous segment's compute.
            stats.x_load_cycles +=
                load_cycles > prev_compute_depth
                    ? load_cycles - prev_compute_depth
                    : 0;
        } else {
            stats.x_load_cycles += load_cycles;
        }
        stats.traffic.add_read(load_cycles * hbm::kLineBytes);

        // --- RdA / PEs: all channels advance in lockstep; the segment
        // completes when the deepest channel drains. ---
        std::uint32_t depth = 0;
        for (unsigned ch = 0; ch < img.channels(); ++ch)
            depth = std::max(depth, img.segment_lines(ch, seg));
        stats.compute_cycles += depth;
        prev_compute_depth = depth;

        util::shared_parallel_for(options.threads, img.channels(), [&](std::size_t ch) {
            const std::uint32_t ch_depth =
                img.segment_lines(static_cast<unsigned>(ch), seg);
            const hbm::ChannelStream& stream =
                img.channel(static_cast<unsigned>(ch));
            Word* const bank =
                acc.data() + static_cast<std::size_t>(ch) * lanes * addrs;
            // Slot/padding tallies stay in registers inside the hot loop;
            // writing ch_slots[ch] per slot would false-share the counter
            // cache lines across workers.
            std::uint64_t slots = 0, padding = 0;
            for (std::uint32_t i = 0; i < ch_depth; ++i) {
                const hbm::Line512& line = stream.line(cursor[ch] + i);
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    const auto e = EncodedElement::from_bits(line.lane64(lane));
                    ++slots;
                    if (!e.valid()) {
                        ++padding;
                        continue;
                    }
                    Word& w = bank[static_cast<std::size_t>(lane) * addrs +
                                   e.pair_addr()];
                    w.half[e.half() ? 1 : 0] += e.value() * xseg[e.col_off()];
                }
            }
            ch_slots[ch] += slots;
            ch_padding[ch] += padding;
            cursor[ch] += ch_depth;
            ch_lines[ch] += ch_depth;
        });

        stats.fill_cycles += options.fill_per_segment;
    }

    for (unsigned ch = 0; ch < img.channels(); ++ch) {
        stats.total_slots += ch_slots[ch];
        stats.padding_slots += ch_padding[ch];
        stats.traffic.add_read(ch_lines[ch] * hbm::kLineBytes);
    }

    // --- RdY / CompY / WrY: read y_in and write y_out in parallel. ---
    SimResult result;
    result.y.resize(img.rows());
    for (index_t r = 0; r < img.rows(); ++r) {
        const encode::PeLocation loc = mapping.locate(r);
        const float a = acc[static_cast<std::size_t>(loc.pe) * addrs + loc.addr]
                            .half[loc.half ? 1 : 0];
        result.y[r] = alpha * a + beta * y_in[r];
    }
    const std::uint64_t y_lines = ceil_div<std::uint64_t>(img.rows(), 16);
    stats.y_phase_cycles = y_lines;
    stats.fill_cycles += options.fill_y_phase;
    stats.traffic.add_read(y_lines * hbm::kLineBytes);
    stats.traffic.add_write(y_lines * hbm::kLineBytes);

    result.cycles = stats;
    return result;
}

namespace {

// Segment-phase cycle accounting for the decoded engines: the same
// arithmetic, in the same order, as the packed walk above — the depths were
// preserved per segment when the image was decoded, so no stream traversal
// is needed to reproduce every CycleStats term bit-identically.
CycleStats decoded_phase_stats(const DecodedImage& img,
                               const SimOptions& options)
{
    CycleStats stats;
    std::uint64_t prev_compute_depth = 0;
    for (unsigned seg = 0; seg < img.num_segments(); ++seg) {
        const index_t seg_base =
            static_cast<index_t>(seg) * img.params().window;
        const index_t seg_width =
            std::min<index_t>(img.params().window, img.cols() - seg_base);
        const std::uint64_t load_cycles = ceil_div<std::uint64_t>(seg_width, 16);
        if (options.double_buffer_x && seg > 0) {
            stats.x_load_cycles +=
                load_cycles > prev_compute_depth
                    ? load_cycles - prev_compute_depth
                    : 0;
        } else {
            stats.x_load_cycles += load_cycles;
        }
        stats.traffic.add_read(load_cycles * hbm::kLineBytes);

        const std::uint32_t depth = img.segment_depth(seg);
        stats.compute_cycles += depth;
        prev_compute_depth = depth;
        stats.fill_cycles += options.fill_per_segment;
    }
    stats.total_slots = img.stats().total_slots;
    stats.padding_slots = img.stats().padding_slots;
    stats.traffic.add_read(img.stats().total_lines * hbm::kLineBytes);
    return stats;
}

void apply_y_phase(CycleStats& stats, index_t rows, const SimOptions& options)
{
    const std::uint64_t y_lines = ceil_div<std::uint64_t>(rows, 16);
    stats.y_phase_cycles = y_lines;
    stats.fill_cycles += options.fill_y_phase;
    stats.traffic.add_read(y_lines * hbm::kLineBytes);
    stats.traffic.add_write(y_lines * hbm::kLineBytes);
}

// Batched-device accounting core, shared by the packed-image and decoded
// overloads of batch_cycle_stats. The per-pass arithmetic is the single
// SpMV phase loop above with the x/y streams widened to the pass's column
// block — at batch = 1 (one pass, one column) every term degenerates to
// exactly decoded_phase_stats + apply_y_phase, which is the B=1
// bit-identity the model-differential suite pins.
template <typename DepthFn>
BatchCycleStats batch_stats_impl(unsigned num_segments, index_t rows,
                                 index_t cols, index_t window,
                                 std::uint64_t total_slots,
                                 std::uint64_t padding_slots,
                                 std::uint64_t total_lines, DepthFn depth_of,
                                 std::size_t batch, const SimOptions& options)
{
    SERPENS_CHECK(batch >= 1, "batch must contain at least one vector");
    SERPENS_CHECK(options.batch_columns >= 1,
                  "batch_columns must be positive");

    BatchCycleStats s;
    s.batch = static_cast<unsigned>(batch);
    const std::uint64_t block = options.batch_columns;
    s.passes =
        static_cast<unsigned>(ceil_div<std::uint64_t>(batch, block));

    for (unsigned pass = 0; pass < s.passes; ++pass) {
        const std::uint64_t pass_cols = std::min<std::uint64_t>(
            block, static_cast<std::uint64_t>(batch) - pass * block);
        std::uint64_t prev_compute_depth = 0;
        for (unsigned seg = 0; seg < num_segments; ++seg) {
            const index_t seg_base = static_cast<index_t>(seg) * window;
            const index_t seg_width = std::min<index_t>(window, cols - seg_base);
            // The single x channel streams pass_cols columns of this
            // segment, 16 floats per line.
            const std::uint64_t load_cycles = ceil_div<std::uint64_t>(
                static_cast<std::uint64_t>(seg_width) * pass_cols, 16);
            if (options.double_buffer_x && seg > 0) {
                s.x_load_cycles += load_cycles > prev_compute_depth
                                       ? load_cycles - prev_compute_depth
                                       : 0;
            } else {
                s.x_load_cycles += load_cycles;
            }
            s.traffic.add_read(load_cycles * hbm::kLineBytes);

            // One A-stream traversal feeds the whole column block: each
            // line still occupies one cycle (the PEs multiply-accumulate
            // pass_cols-wide per element, Sextans §3).
            const std::uint32_t depth = depth_of(seg);
            s.compute_cycles += depth;
            prev_compute_depth = depth;
            s.fill_cycles += options.fill_per_segment;
        }
        s.total_slots += total_slots;
        s.padding_slots += padding_slots;
        s.traffic.add_read(total_lines * hbm::kLineBytes);

        const std::uint64_t y_lines = ceil_div<std::uint64_t>(
            static_cast<std::uint64_t>(rows) * pass_cols, 16);
        s.y_phase_cycles += y_lines;
        s.fill_cycles += options.fill_y_phase;
        s.traffic.add_read(y_lines * hbm::kLineBytes);
        s.traffic.add_write(y_lines * hbm::kLineBytes);
    }
    return s;
}

// Four floats in one SSE2 / NEON register. memcpy loads and stores keep
// the bank and x unaligned and free of aliasing assumptions.
using Float4 = float __attribute__((vector_size(16)));

// Blocked-accumulator walk of one channel at batch width `batch`: a
// std::integral_constant for B <= 8, so the b-loop fully unrolls — which
// is where the per-element amortization over the single-vector walk comes
// from — or a runtime std::size_t above. Each segment extent reads x off
// its own base (xi + s * window * B) and unpacks each index word inline:
// one shift, one mask. The b-loop runs batch / 4 Float4 steps, the value
// broadcast, then a scalar loop over the batch % 4 remaining columns.
// Each lane is one column's multiply and add, two roundings
// (-ffp-contract=off), so neither unrolling, the vector steps nor the
// per-segment base reorders ops within a column, and per-column results
// stay bit-identical to a single-vector run.
template <typename BatchWidth>
void walk_channel_batch(const DecodedImage& img, unsigned ch, float* bank,
                        const float* xi, BatchWidth batch)
{
    const DecodedImage::Channel& c = img.channel(ch);
    const std::uint32_t* const idx = c.idx.data();
    const float* const val = c.value.data();
    const unsigned shift = img.col_bits();
    const std::uint32_t mask = (1u << shift) - 1;
    const std::size_t seg_stride =
        static_cast<std::size_t>(img.params().window) * batch;
    for (std::size_t seg = 0; seg + 1 < c.seg_begin.size(); ++seg) {
        const float* const xs = xi + seg * seg_stride;
        for (std::size_t i = c.seg_begin[seg]; i < c.seg_begin[seg + 1]; ++i) {
            const std::uint32_t w = idx[i];
            float* const a =
                bank + static_cast<std::size_t>(w >> shift) * batch;
            const float* const xv =
                xs + static_cast<std::size_t>(w & mask) * batch;
            const float v = val[i];
            std::size_t b = 0;
            for (; b + 4 <= batch; b += 4) {
                Float4 acc{}, xb{};
                std::memcpy(&acc, a + b, sizeof acc);
                std::memcpy(&xb, xv + b, sizeof xb);
                acc += v * xb;
                std::memcpy(a + b, &acc, sizeof acc);
            }
            for (; b < batch; ++b)
                a[b] += v * xv[b];
        }
    }
}

template <std::size_t B>
using Width = std::integral_constant<std::size_t, B>;

void walk_channel_batch_n(const DecodedImage& img, unsigned ch, float* bank,
                          const float* xi, std::size_t batch)
{
    switch (batch) {
    case 2: return walk_channel_batch(img, ch, bank, xi, Width<2>{});
    case 3: return walk_channel_batch(img, ch, bank, xi, Width<3>{});
    case 4: return walk_channel_batch(img, ch, bank, xi, Width<4>{});
    case 5: return walk_channel_batch(img, ch, bank, xi, Width<5>{});
    case 6: return walk_channel_batch(img, ch, bank, xi, Width<6>{});
    case 7: return walk_channel_batch(img, ch, bank, xi, Width<7>{});
    case 8: return walk_channel_batch(img, ch, bank, xi, Width<8>{});
    default:
        return walk_channel_batch(img, ch, bank, xi, batch);
    }
}

// Floats of one channel's slice of the decoded accumulator bank at B=1:
// lanes * used_addrs words of two halves.
std::size_t bank_slice(const DecodedImage& img)
{
    return static_cast<std::size_t>(img.params().pes_per_channel) * 2 *
           img.used_addrs();
}

// Row blocks of the decoded engines' address-major bank, in ascending row
// order. Channel ch's slice holds 2L floats per URAM address a (L lanes,
// P = channels * L PEs), and the rows mapped to them form one run:
//
//   coalescing   rows [a*2P + ch*2L, +2L)  at floats a*2L + j      (stride 1)
//   without      rows [a*P + ch*L, +L)     at floats a*2L + 2*j    (stride 2)
//
// so walking addresses, then channels, visits every row once, in order,
// with no per-row division by P; the last block may be partial.
// block(row, slot, n, stride) covers rows [row, row + n) at B=1 bank
// slots slot + j * stride (a B-wide bank scales the slot by B).
template <typename Block>
void for_each_row_block(const DecodedImage& img, Block&& block)
{
    const index_t lanes = img.params().pes_per_channel;
    const bool coalesced = img.params().coalescing;
    const index_t per_block = coalesced ? 2 * lanes : lanes;
    const std::size_t stride = coalesced ? 1 : 2;
    const std::size_t slice = bank_slice(img);
    index_t row = 0;
    for (std::size_t a = 0; row < img.rows(); ++a) {
        for (unsigned ch = 0; ch < img.channels() && row < img.rows(); ++ch) {
            const index_t n = std::min(per_block, img.rows() - row);
            block(row, ch * slice + a * 2 * lanes, n, stride);
            row += n;
        }
    }
}

// The single-vector walk of both decoded engines: a zeroed B=1 bank with
// every channel accumulated by `kernel`. Channels own disjoint slices, so
// the result is the same for every thread count.
std::vector<float> walk_single(const DecodedImage& img, const float* x,
                               WalkKernel kernel, unsigned threads)
{
    const std::size_t slice = bank_slice(img);
    std::vector<float> acc(img.channels() * slice, 0.0f);
    util::shared_parallel_for(threads, img.channels(), [&](std::size_t ch) {
        walk_channel(kernel, img, static_cast<unsigned>(ch),
                     acc.data() + ch * slice, x);
    });
    return acc;
}

} // namespace

SimResult simulate_spmv_decoded(const DecodedImage& img,
                                std::span<const float> x,
                                std::span<const float> y_in, float alpha,
                                float beta, const SimOptions& options)
{
    return simulate_spmv_decoded(img, x, y_in, alpha, beta, options,
                                 host_walk_kernel());
}

SimResult simulate_spmv_decoded(const DecodedImage& img,
                                std::span<const float> x,
                                std::span<const float> y_in, float alpha,
                                float beta, const SimOptions& options,
                                WalkKernel kernel)
{
    SERPENS_CHECK(x.size() == img.cols(), "x length must equal matrix cols");
    SERPENS_CHECK(y_in.size() == img.rows(), "y length must equal matrix rows");

    const std::vector<float> acc =
        walk_single(img, x.data(), kernel, options.threads);

    SimResult result;
    result.y.resize(img.rows());
    for_each_row_block(img, [&](index_t row, std::size_t slot, index_t n,
                                std::size_t stride) {
        for (index_t j = 0; j < n; ++j)
            result.y[row + j] =
                alpha * acc[slot + j * stride] + beta * y_in[row + j];
    });
    result.cycles = decoded_phase_stats(img, options);
    apply_y_phase(result.cycles, img.rows(), options);
    return result;
}

SimBatchResult simulate_spmv_batch(const DecodedImage& img,
                                   std::span<const std::vector<float>> xs,
                                   std::span<const std::vector<float>> ys_in,
                                   float alpha, float beta,
                                   const SimOptions& options)
{
    SERPENS_CHECK(!xs.empty(), "batch must contain at least one vector");
    SERPENS_CHECK(xs.size() == ys_in.size(),
                  "batch x and y_in counts must match");
    for (const std::vector<float>& x : xs)
        SERPENS_CHECK(x.size() == img.cols(), "x length must equal matrix cols");
    for (const std::vector<float>& y : ys_in)
        SERPENS_CHECK(y.size() == img.rows(), "y length must equal matrix rows");

    const std::size_t batch = xs.size();
    std::vector<float> acc;
    if (batch == 1) {
        // The B=1 blocked layout is the single-vector bank, and xs[0] is
        // already the column-interleaved right-hand side.
        acc = walk_single(img, xs[0].data(), host_walk_kernel(),
                          options.threads);
    } else {
        // Column-interleaved right-hand sides: xi[col * B + b], so the B
        // multiplies of one decoded element read consecutive floats.
        // Repacking costs O(B * cols) once; the walk it feeds is
        // O(nnz * B).
        std::vector<float> xi(static_cast<std::size_t>(img.cols()) * batch);
        for (index_t c = 0; c < img.cols(); ++c)
            for (std::size_t b = 0; b < batch; ++b)
                xi[static_cast<std::size_t>(c) * batch + b] = xs[b][c];

        // Blocked accumulator: B consecutive floats per URAM half-word.
        // Each column's accumulator sequence is independent, so
        // per-column results are bit-identical to a single-vector run for
        // every batch width.
        const std::size_t slice = bank_slice(img) * batch;
        acc.assign(img.channels() * slice, 0.0f);
        util::shared_parallel_for(options.threads, img.channels(), [&](std::size_t ch) {
            walk_channel_batch_n(img, static_cast<unsigned>(ch),
                                 acc.data() + ch * slice, xi.data(), batch);
        });
    }

    SimBatchResult result;
    result.y.resize(batch);
    for (std::vector<float>& y : result.y)
        y.resize(img.rows());
    for_each_row_block(img, [&](index_t row, std::size_t slot, index_t n,
                                std::size_t stride) {
        for (std::size_t b = 0; b < batch; ++b) {
            float* const y = result.y[b].data() + row;
            const float* const yi = ys_in[b].data() + row;
            for (index_t j = 0; j < n; ++j)
                y[j] = alpha * acc[(slot + j * stride) * batch + b] +
                       beta * yi[j];
        }
    });
    result.cycles = decoded_phase_stats(img, options);
    apply_y_phase(result.cycles, img.rows(), options);
    result.batch_cycles = batch_cycle_stats(img, batch, options);
    return result;
}

BatchCycleStats batch_cycle_stats(const encode::SerpensImage& img,
                                  std::size_t batch, const SimOptions& options)
{
    return batch_stats_impl(
        img.num_segments(), img.rows(), img.cols(), img.params().window,
        img.stats().total_slots, img.stats().padding_slots,
        img.stats().total_lines,
        [&](unsigned seg) {
            std::uint32_t depth = 0;
            for (unsigned ch = 0; ch < img.channels(); ++ch)
                depth = std::max(depth, img.segment_lines(ch, seg));
            return depth;
        },
        batch, options);
}

BatchCycleStats batch_cycle_stats(const DecodedImage& img, std::size_t batch,
                                  const SimOptions& options)
{
    return batch_stats_impl(
        img.num_segments(), img.rows(), img.cols(), img.params().window,
        img.stats().total_slots, img.stats().padding_slots,
        img.stats().total_lines,
        [&](unsigned seg) { return img.segment_depth(seg); }, batch, options);
}

} // namespace serpens::sim
