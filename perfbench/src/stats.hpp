#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Thrown when a percentile is asked of too few samples to mean anything.
struct TooFewSamples: std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Every reported percentile has at least this many samples above it, so
/// p99 needs 1000 samples and p50 needs 20.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile (`q` in (0, 1)). Refuses, instead of returning
/// a number, when fewer than `min_beyond` samples lie above the rank.
inline double percentile(std::vector<double> samples, double q, size_t min_beyond = kMinBeyond) {
    const size_t n = samples.size();
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * static_cast<double>(n))), 1, n == 0 ? 1 : n);
    if (n == 0 || n - rank < min_beyond) {
        throw TooFewSamples(
            "p" + std::to_string(static_cast<int>(std::lround(q * 100))) + " of "
            + std::to_string(n) + " samples has " + std::to_string(n == 0 ? 0 : n - rank)
            + " above it; at least " + std::to_string(min_beyond) + " are required");
    }
    std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
    return samples[rank - 1];
}

/// Plain median, for a handful of repeated measurements (set-up times,
/// per-window rates) rather than a latency distribution.
inline double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5, 0);
}

inline double mean(const std::vector<double>& samples) {
    if (samples.empty()) {
        throw TooFewSamples("mean of no samples");
    }
    double sum = 0;
    for (double v : samples) {
        sum += v;
    }
    return sum / static_cast<double>(samples.size());
}

/// One closed span: [start, end] in microseconds, `parent` 0 for a root.
struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
    uint32_t count = 1;  ///< calls the span covers (batched ns-scale probes)
    int32_t tag = -1;    ///< free label, e.g. the cold-start tier
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Overlapping children count once; children are clipped
/// to their parent's interval.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); i++) {
        index.emplace(spans[i].id, i);
    }
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end()) {
            const Span& p = spans[it->second];
            const double lo = std::max(s.start_us, p.start_us);
            const double hi = std::min(s.end_us, p.end_us);
            if (hi > lo) {
                children[it->second].emplace_back(lo, hi);
            }
        }
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = -INFINITY;
        for (const auto& [lo, hi] : kids) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
            }
            reach = std::max(reach, hi);
        }
        self[i] = spans[i].end_us - spans[i].start_us - covered;
    }
    return self;
}

}  // namespace perfbench
