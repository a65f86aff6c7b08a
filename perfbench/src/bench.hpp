#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

inline const char* const kWorkloads[] = {"eager", "replay"};

struct RunOptions {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    int threads = 1;
    std::string work_dir;  ///< scratch space, removed by the caller
};

/// What a run measured and how many of its ops and checks failed. A failed
/// op or a mismatching check makes the run incorrect.
struct RunOutcome {
    Report report;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;  ///< one line per failure
    std::vector<std::string> notes;     ///< extra detail for the text report
    std::vector<Span> spans;            ///< written to the span file

    void fail(std::string problem) {
        failed++;
        problems.push_back(std::move(problem));
    }
};

/// Runs one workload: end-to-end metrics with tracing off, or the traced
/// run with per-layer metrics (the workload's own traced window plus the
/// layer probes).
void run_workload(const RunOptions& options, RunOutcome& out);

/// Per-layer probes: times each module's public calls in isolation and
/// fills every per-layer metric the workload loop itself cannot give.
void run_probes(const RunOptions& options, RunOutcome& out);

/// Functional-mode pass on a small grid, on both devices: eager and graph
/// replay results must be bit-equal and match microhh::reference, and every
/// launched instance must carry the wisdom-selected configuration.
void check_functional(uint64_t seed, const std::string& wisdom_dir, RunOutcome& out);

/// Median per-call duration, in microseconds, of the spans named `name`.
double span_p50_us(const std::vector<Span>& spans, const char* name);

}  // namespace perfbench
