#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "metrics.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_process_start = std::chrono::steady_clock::now();

/// Spans beyond this many per thread are dropped (and counted), which
/// bounds the recorder's memory in long traced windows.
constexpr size_t kMaxSpansPerThread = 400'000;

struct ThreadBuffer {
    uint32_t index = 0;
    uint64_t next_id = 0;
    uint64_t dropped = 0;
    std::vector<uint64_t> open;  ///< ids of the spans open on this thread
    std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mutex

ThreadBuffer& thread_buffer() {
    thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
        auto created = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(g_buffers_mutex);
        created->index = static_cast<uint32_t>(g_buffers.size());
        g_buffers.push_back(created);
        return created;
    }();
    return *buffer;
}

std::string format_number(double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

}  // namespace

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - g_process_start)
        .count();
}

std::atomic<bool> Recorder::enabled_ {false};

void Recorder::enable(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
}

std::vector<Span> Recorder::drain() {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    std::vector<Span> all;
    for (const auto& buffer : g_buffers) {
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
        buffer->spans.clear();
    }
    return all;
}

uint64_t Recorder::dropped() {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    uint64_t total = 0;
    for (const auto& buffer : g_buffers) {
        total += buffer->dropped;
    }
    return total;
}

void Recorder::write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        throw std::runtime_error("cannot write " + path);
    }
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); i++) {
        const Span& s = spans[i];
        std::fprintf(
            out,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"id\":%llu,\"parent\":%llu,\"count\":%u,\"tag\":%d}}%s\n",
            s.name,
            static_cast<unsigned>((s.id >> 40) - 1),
            s.start_us,
            s.end_us - s.start_us,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            s.count,
            s.tag,
            i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(out, "],\"dropped\":%llu}\n", static_cast<unsigned long long>(dropped()));
    std::fclose(out);
}

void ScopedSpan::begin(const char* name, uint32_t count) {
    ThreadBuffer& buffer = thread_buffer();
    span_.id = (static_cast<uint64_t>(buffer.index + 1) << 40) | ++buffer.next_id;
    span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
    span_.name = name;
    span_.count = count;
    buffer.open.push_back(span_.id);
    span_.start_us = now_us();
}

void ScopedSpan::end() {
    span_.end_us = now_us();
    ThreadBuffer& buffer = thread_buffer();
    buffer.open.pop_back();
    if (buffer.spans.size() < kMaxSpansPerThread) {
        buffer.spans.push_back(span_);
    } else {
        buffer.dropped++;
    }
}

Reservoir::Reservoir(size_t capacity, uint64_t seed): capacity_(capacity), state_(seed | 1) {
    // Touch the whole buffer up front so its page faults fall before the
    // measured window.
    samples_.reserve(capacity_);
    samples_.resize(capacity_);
    samples_.clear();
}

void Reservoir::add(double value) noexcept {
    seen_++;
    if (samples_.size() < capacity_) {
        samples_.push_back(static_cast<float>(value));
        return;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const uint64_t slot = state_ % seen_;
    if (slot < capacity_) {
        samples_[slot] = static_cast<float>(value);
    }
}

void LoopResult::merge(const LoopResult& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    ops += other.ops;
    failed += other.failed;
    launches += other.launches;
    seconds += other.seconds;
}

double LoopResult::latency_percentile_us(double q) const {
    std::vector<std::pair<float, double>> weighted;  // (latency, ops it stands for)
    double total = 0;
    for (const LatencySample& sample : samples) {
        if (sample.values_us.empty()) {
            continue;
        }
        const double weight =
            static_cast<double>(sample.seen) / static_cast<double>(sample.values_us.size());
        for (float value : sample.values_us) {
            weighted.emplace_back(value, weight);
        }
        total += static_cast<double>(sample.seen);
    }
    std::sort(weighted.begin(), weighted.end());
    size_t rank = weighted.size();
    double below = 0;
    for (size_t i = 0; i < weighted.size(); i++) {
        below += weighted[i].second;
        // The tolerance keeps equal weights on the nearest-rank answer
        // despite rounding in the running sum.
        if (below >= q * total * (1 - 1e-12)) {
            rank = i + 1;
            break;
        }
    }
    if (weighted.empty() || weighted.size() - rank < kMinBeyond) {
        throw TooFewSamples(
            "p" + std::to_string(static_cast<int>(std::lround(q * 100))) + " of "
            + std::to_string(weighted.size()) + " sampled ops has "
            + std::to_string(weighted.size() - std::min(rank, weighted.size()))
            + " above it; at least " + std::to_string(kMinBeyond) + " are required");
    }
    return weighted[rank - 1].first;
}

void Report::set(const std::string& name, double value) {
    values_[name] = value;
}

double Report::get(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
        throw std::runtime_error("metric not measured: " + name);
    }
    return it->second;
}

std::string Report::result_json(
    bool trace,
    bool correct,
    uint64_t attempted,
    uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : kMetrics) {
        if (def.end_to_end == trace) {
            continue;
        }
        const double value = get(def.name);
        if (!std::isfinite(value)) {
            throw std::runtime_error(std::string("metric ") + def.name + " is not finite");
        }
        out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
            << format_number(value) << ", \"unit\": \"" << def.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

std::string Report::listing(bool trace) const {
    std::ostringstream out;
    for (const MetricDef& def : kMetrics) {
        if (def.end_to_end == trace) {
            continue;
        }
        char line[160];
        std::snprintf(line, sizeof(line), "  %-32s %16.6g %s\n", def.name, get(def.name), def.unit);
        out << line;
    }
    return out.str();
}

double peak_rss_mb() {
    rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
