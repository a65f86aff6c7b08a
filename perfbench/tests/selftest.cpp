// Tests of the benchmark's own logic: the percentile rule, span self time,
// and the metric table against BENCHMARK.json.
//
//   perfbench_selftest <path to BENCHMARK.json>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "../src/harness.hpp"
#include "../src/metrics.hpp"
#include "../src/stats.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        g_failures++;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

bool throws_too_few(const std::vector<double>& samples, double q) {
    try {
        perfbench::percentile(samples, q);
    } catch (const perfbench::TooFewSamples&) {
        return true;
    }
    return false;
}

std::vector<double> ramp(size_t n) {
    std::vector<double> v;
    for (size_t i = 0; i < n; i++) {
        v.push_back(static_cast<double>(n - i));  // descending: order must not matter
    }
    return v;
}

void test_percentile_rule() {
    check(throws_too_few(ramp(999), 0.99), "p99 of 999 samples must refuse");
    check(!throws_too_few(ramp(1000), 0.99), "p99 of 1000 samples is allowed");
    check(perfbench::percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is the 990th value");
    check(throws_too_few(ramp(19), 0.5), "p50 of 19 samples must refuse");
    check(!throws_too_few(ramp(20), 0.5), "p50 of 20 samples is allowed");
    check(perfbench::percentile(ramp(21), 0.5) == 11.0, "p50 of 1..21 is 11");
    check(throws_too_few({}, 0.5), "no samples must refuse");
    check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "plain median needs no tail");
}

std::vector<float> as_floats(const std::vector<double>& values) {
    return std::vector<float>(values.begin(), values.end());
}

/// Window percentiles pool every thread's reservoir, each weighted by the
/// ops it saw, and refuse a p99 of fewer than 1000 sampled ops.
void test_window_percentiles() {
    perfbench::LoopResult small;
    small.samples = {{as_floats(ramp(999)), 999}};
    bool refused = false;
    try {
        small.latency_percentile_us(0.99);
    } catch (const perfbench::TooFewSamples&) {
        refused = true;
    }
    check(refused, "a window of 999 sampled ops must refuse p99");

    perfbench::LoopResult pooled;
    pooled.samples = {{as_floats(ramp(1000)), 1000}, {as_floats(ramp(1000)), 1000}};
    check(pooled.latency_percentile_us(0.99) == 990.0, "two equal threads pooled: p99 of 2000 ops");
    check(pooled.latency_percentile_us(0.5) == 500.0, "two equal threads pooled: p50 of 2000 ops");

    // Thread A saw 3000 ops at 1 us and kept 1000; thread B saw 1000 at 2 us.
    perfbench::LoopResult weighted;
    weighted.samples = {
        {std::vector<float>(1000, 1.0f), 3000}, {std::vector<float>(1000, 2.0f), 1000}};
    check(weighted.latency_percentile_us(0.6) == 1.0, "75% of ops took 1 us, so p60 is 1 us");
    check(weighted.latency_percentile_us(0.8) == 2.0, "p80 falls among thread B's ops");

    perfbench::LoopResult a, b;
    a.launches = 300;
    a.seconds = 1;
    b.launches = 100;
    b.seconds = 1;
    a.merge(b);
    check(a.launches_per_s() == 200.0, "launches per second over the merged windows");
    check(a.samples.empty(), "merging windows without samples keeps none");
}

void test_self_times() {
    using perfbench::Span;
    const std::vector<Span> spans = {
        {1, 0, "op", 0, 10},
        {2, 1, "a", 1, 3},
        {3, 1, "b", 2, 5},    // overlaps a: counted once
        {4, 1, "c", 8, 12},   // runs past the parent: clipped to 10
        {5, 3, "b.child", 2, 4},
        {6, 99, "orphan", 0, 1},  // parent not recorded
    };
    const std::vector<double> self = perfbench::self_times(spans);
    check(std::fabs(self[0] - 4.0) < 1e-12, "parent self = 10 - |[1,5] u [8,10]| = 4");
    check(std::fabs(self[1] - 2.0) < 1e-12, "leaf self = its duration");
    check(std::fabs(self[2] - 1.0) < 1e-12, "b self = 3 - 2");
    check(std::fabs(self[3] - 4.0) < 1e-12, "c self = its own duration, unclipped");
    check(std::fabs(self[5] - 1.0) < 1e-12, "orphan self = its duration");
}

void test_metric_names(const std::string& benchmark_json) {
    const kl::json::Value root = kl::json::parse(kl::read_text_file(benchmark_json));
    std::map<std::string, std::string> listed[2];  // [end_to_end]
    for (int e2e = 0; e2e < 2; e2e++) {
        const kl::json::Value& entries = root[e2e ? "end_to_end" : "per_layer"];
        for (size_t i = 0; i < entries.size(); i++) {
            listed[e2e][entries.at(i)["name"].as_string()] = entries.at(i)["unit"].as_string();
        }
    }
    size_t printed[2] = {0, 0};
    for (const perfbench::MetricDef& def : perfbench::kMetrics) {
        const auto& table = listed[def.end_to_end ? 1 : 0];
        auto it = table.find(def.name);
        check(it != table.end(), std::string(def.name) + " is printed but not in BENCHMARK.json");
        check(it == table.end() || it->second == def.unit, std::string(def.name) + " unit differs");
        printed[def.end_to_end ? 1 : 0]++;
    }
    check(printed[0] == listed[0].size(), "BENCHMARK.json lists per-layer metrics never printed");
    check(printed[1] == listed[1].size(), "BENCHMARK.json lists end-to-end metrics never printed");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest <BENCHMARK.json>\n");
        return 2;
    }
    test_percentile_rule();
    test_window_percentiles();
    test_self_times();
    test_metric_names(argv[1]);
    if (g_failures == 0) {
        std::printf("perfbench selftest: all passed\n");
    }
    return g_failures == 0 ? 0 : 1;
}
