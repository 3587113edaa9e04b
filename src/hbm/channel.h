// HBM channel stream: an ordered sequence of 512-bit lines plus traffic
// accounting. The Serpens encoder fills one ChannelStream per sparse-matrix
// channel; the simulator walks them and the analysis layer reads the
// byte counters to reproduce the paper's bandwidth-efficiency metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hbm/line.h"

namespace serpens::hbm {

class ChannelStream {
public:
    ChannelStream() = default;
    explicit ChannelStream(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    void push(const Line512& line) { lines_.push_back(line); }
    void reserve(std::size_t lines) { lines_.reserve(lines); }
    std::size_t size() const { return lines_.size(); }
    bool empty() const { return lines_.empty(); }
    const Line512& line(std::size_t i) const { return lines_[i]; }
    const std::vector<Line512>& lines() const { return lines_; }

    std::uint64_t bytes() const
    {
        return static_cast<std::uint64_t>(lines_.size()) * kLineBytes;
    }

private:
    std::string name_;
    std::vector<Line512> lines_;
};

// Aggregate read/write traffic across an accelerator run. The paper's
// single-pass property (§3.2: every vector and the matrix is touched exactly
// once) is asserted by tests against these counters.
struct TrafficCounter {
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;

    void add_read(std::uint64_t b) { bytes_read += b; }
    void add_write(std::uint64_t b) { bytes_written += b; }
    std::uint64_t total() const { return bytes_read + bytes_written; }
};

// Human-readable traffic summary ("x.xx GiB read / y.yy MiB written").
std::string format_traffic(const TrafficCounter& t);

} // namespace serpens::hbm
