// perfbench: the launch-path benchmark. Usually started through run.py,
// which builds it; see BENCHMARK.json for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--spans-out <file>] [--git-sha <sha>]
//
// Both workloads run min(4, nproc) threads.
//
// Prints run metadata and every metric with its unit, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any op failed or any output check mismatched, and 2 on bad
// arguments or an error that left no result.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
    std::map<std::string, std::string> values;

    const std::string& need(const std::string& key) const {
        auto it = values.find(key);
        if (it == values.end()) {
            throw std::invalid_argument("missing --" + key);
        }
        return it->second;
    }
    std::string get(const std::string& key, const std::string& fallback) const {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }
};

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
            throw std::invalid_argument("expected --<name> <value>, got '" + flag + "'");
        }
        args.values[flag.substr(2)] = argv[++i];
    }
    return args;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions options;
    std::string spans_out;
    std::string git_sha;
    try {
        const Args args = parse(argc, argv);
        options.workload = args.need("workload");
        if (std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload)
            == std::end(kWorkloads)) {
            throw std::invalid_argument("unknown workload '" + options.workload + "'");
        }
        options.seed = std::stoull(args.need("seed"));
        options.seconds = std::stod(args.need("seconds"));
        const std::string trace = args.need("trace");
        if (trace != "0" && trace != "1") {
            throw std::invalid_argument("--trace takes 0 or 1");
        }
        options.trace = trace == "1";
        if (!(options.seconds > 0)) {
            throw std::invalid_argument("--seconds must be positive");
        }
        options.threads = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
        options.work_dir = args.get("work-dir", ".perfbench-work") + "/" + options.workload + "-"
            + std::to_string(options.seed) + "-" + std::to_string(::getpid());
        spans_out = args.get("spans-out", "");
        git_sha = args.get("git-sha", "unknown");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    std::printf("# workload: %s\n", options.workload.c_str());
    std::printf("# seed: %llu\n", static_cast<unsigned long long>(options.seed));
    std::printf("# trace: %d\n", options.trace ? 1 : 0);
    std::printf("# seconds: %g\n", options.seconds);
    std::printf("# threads: %d\n", options.threads);
    std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
    std::printf("# git_sha: %s\n", git_sha.c_str());
    std::printf("# build_type: %s\n", PERFBENCH_BUILD_TYPE);
    std::printf("# compiler: %s\n", __VERSION__);
    if (!optimized_build()) {
        std::printf("# WARNING: not an optimized build; host timings are not comparable\n");
        std::fprintf(stderr, "perfbench: WARNING: not an optimized build\n");
    }
    std::fflush(stdout);

    RunOutcome out;
    std::error_code ignored;
    try {
        std::filesystem::remove_all(options.work_dir, ignored);
        run_workload(options, out);
        std::filesystem::remove_all(options.work_dir, ignored);
        if (!spans_out.empty() && options.trace) {
            Recorder::write_chrome_trace(spans_out, out.spans);
        }
        const bool correct = out.failed == 0;
        for (const std::string& note : out.notes) {
            std::printf("# %s\n", note.c_str());
        }
        for (const std::string& problem : out.problems) {
            std::printf("# MISMATCH: %s\n", problem.c_str());
        }
        std::printf("%s", out.report.listing(options.trace).c_str());
        if (options.trace) {
            std::printf(
                "# sim_overhead_us reference (paper): ~3 us per warm launch; 294 ms first launch"
                " (Fig. 5)\n");
        }
        std::printf("%s\n", out.report.result_json(options.trace, correct, out.attempted, out.failed).c_str());
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::filesystem::remove_all(options.work_dir, ignored);
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 2;
    }
}
