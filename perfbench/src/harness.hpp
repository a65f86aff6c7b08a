#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Host wall clock in microseconds since process start.
double now_us();

/// In-memory span recorder. Each thread appends to its own buffer; nothing
/// is written until write_chrome_trace() at the end of the run. Recording
/// is off until enable(true), so untraced runs never build a span.
class Recorder {
  public:
    static void enable(bool on);
    static bool enabled() noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }
    /// Moves out every span recorded so far, from all threads. Call only
    /// while no other thread is recording.
    static std::vector<Span> drain();
    /// Spans dropped because a thread's buffer was full.
    static uint64_t dropped();
    static void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

  private:
    static std::atomic<bool> enabled_;
};

/// Times the enclosing scope as a span; children are the spans opened on
/// the same thread while it is open. `count` is the number of calls the
/// scope covers, for probes that batch nanosecond-scale calls. While the
/// recorder is off a span costs one relaxed load and records nothing.
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name, uint32_t count = 1): active_(Recorder::enabled()) {
        if (active_) {
            begin(name, count);
        }
    }
    ~ScopedSpan() {
        if (active_) {
            end();
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_tag(int32_t tag) noexcept {
        span_.tag = tag;
    }

  private:
    void begin(const char* name, uint32_t count);
    void end();

    bool active_;
    Span span_;
};

/// Uniform fixed-size sample of a stream of op latencies (Algorithm R), so
/// the harness's own memory does not grow with throughput.
class Reservoir {
  public:
    explicit Reservoir(size_t capacity, uint64_t seed);
    void add(double value) noexcept;
    const std::vector<float>& samples() const noexcept {
        return samples_;
    }
    uint64_t seen() const noexcept {
        return seen_;
    }

  private:
    size_t capacity_;
    uint64_t seen_ = 0;
    uint64_t state_;
    std::vector<float> samples_;
};

/// Op latencies a reservoir kept, and how many ops it saw.
struct LatencySample {
    std::vector<float> values_us;
    uint64_t seen = 0;
};

/// Result of one or more closed-loop windows.
struct LoopResult {
    std::vector<LatencySample> samples;  ///< one per thread and window
    uint64_t ops = 0;
    uint64_t failed = 0;
    uint64_t launches = 0;
    double seconds = 0;

    void merge(const LoopResult& other);
    /// Percentile `q` of the latency of every op of the windows. Each
    /// reservoir's values stand for the ops it saw, so threads and windows
    /// weigh by their op counts. Refuses, like percentile(), when fewer
    /// than kMinBeyond sampled values lie above the result.
    double latency_percentile_us(double q) const;
    double launches_per_s() const {
        return seconds > 0 ? static_cast<double>(launches) / seconds : 0;
    }
};

/// Latency samples kept per thread and window.
inline constexpr size_t kReservoirCapacity = size_t(1) << 13;

/// Runs `op(thread, i)` on `threads` threads for `seconds`, closed loop:
/// each thread issues its next op as soon as the previous one returns. `op`
/// returns the kernel launches it completed; an exception counts the op as
/// failed.
template<typename Op>
LoopResult run_closed_loop(int threads, double seconds, Op&& op);

/// The metrics of one run, by name, in BENCHMARK.json order.
class Report {
  public:
    void set(const std::string& name, double value);
    double get(const std::string& name) const;
    /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
    std::string result_json(bool trace, bool correct, uint64_t attempted, uint64_t failed) const;
    /// Human-readable listing of every metric of the mode, with units.
    std::string listing(bool trace) const;

  private:
    std::map<std::string, double> values_;
};

/// Peak resident set of the process, in MB.
double peak_rss_mb();

// --- template implementation ---------------------------------------------

template<typename Op>
LoopResult run_closed_loop(int threads, double seconds, Op&& op) {
    struct PerThread {
        Reservoir reservoir;
        uint64_t ops = 0;
        uint64_t failed = 0;
        uint64_t launches = 0;
    };
    std::vector<PerThread> per;
    per.reserve(threads);
    for (int t = 0; t < threads; t++) {
        per.push_back(PerThread {Reservoir(kReservoirCapacity, 0x5eed0000u + static_cast<uint64_t>(t))});
    }
    std::atomic<int> ready {0};
    std::atomic<bool> go {false};
    double start_us = 0;
    const double span_us = seconds * 1e6;

    auto body = [&](int t) {
        PerThread& mine = per[t];
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        const double end_at = start_us + span_us;
        for (uint64_t i = 0;; i++) {
            const double begin = now_us();
            if (begin >= end_at) {
                break;
            }
            uint64_t launched = 0;
            bool ok = true;
            try {
                launched = op(t, i);
            } catch (...) {
                ok = false;
            }
            const double end = now_us();
            mine.ops++;
            if (!ok) {
                mine.failed++;
                continue;
            }
            mine.launches += launched;
            mine.reservoir.add(end - begin);
        }
    };

    std::vector<std::thread> pool;
    for (int t = 1; t < threads; t++) {
        pool.emplace_back(body, t);
    }

    while (ready.load() < threads - 1) {
        std::this_thread::yield();
    }
    start_us = now_us();
    go.store(true, std::memory_order_release);
    body(0);
    for (std::thread& thread : pool) {
        thread.join();
    }

    LoopResult result;
    result.seconds = (now_us() - start_us) * 1e-6;
    for (const PerThread& mine : per) {
        result.ops += mine.ops;
        result.failed += mine.failed;
        result.launches += mine.launches;
        result.samples.push_back(LatencySample {mine.reservoir.samples(), mine.reservoir.seen()});
    }
    return result;
}

}  // namespace perfbench
