#pragma once

/// \file common.hpp
/// Shared plumbing of the benchmark: the clock, order statistics over
/// sample vectors (median and the reported latency tail), and the metric
/// list every run prints as its last line of JSON.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

namespace fisone {}

namespace perfbench {

// The benchmark drives the library from outside; its names read unqualified.
using namespace fisone;

using clk = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clk::time_point a, clk::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(clk::time_point a) {
    return seconds_between(a, clk::now());
}

/// Median of \p v (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

/// The latency tail printed beside a median: the highest percentile of a
/// fixed ladder that still has at least ten samples beyond it (nearest
/// rank), its value, and how many samples lie beyond it.
struct tail {
    double percentile = 0.0;  ///< e.g. 99.0; 0 when fewer than 11 samples exist
    double value = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

[[nodiscard]] inline tail tail_of(std::vector<double> v) {
    tail t;
    t.samples = v.size();
    if (v.size() < 11) return t;
    std::sort(v.begin(), v.end());
    const double ladder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (const double p : ladder) {
        const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
        if (rank == 0 || v.size() - rank < 10) continue;
        t.percentile = p;
        t.value = v[rank - 1];
        t.beyond = v.size() - rank;
        return t;
    }
    return t;
}

/// Shortest round-trip decimal form of \p v (JSON has no inf/nan: null).
[[nodiscard]] inline std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, p) : std::string("null");
}

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The metrics of one run, in print order.
class metric_list {
public:
    void add(std::string name, double value, std::string unit) {
        items_.push_back(metric{std::move(name), value, std::move(unit)});
    }
    [[nodiscard]] const std::vector<metric>& items() const noexcept { return items_; }

    /// The result line: {"correct", "attempted", "failed", "metrics"}.
    [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                   std::uint64_t failed) const {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i > 0) out += ", ";
            out += "\"" + items_[i].name + "\": {\"value\": " + json_number(items_[i].value) +
                   ", \"unit\": \"" + items_[i].unit + "\"}";
        }
        out += "}}";
        return out;
    }

private:
    std::vector<metric> items_;
};

}  // namespace perfbench
