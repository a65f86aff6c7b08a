#pragma once

namespace perfbench {

/// Every metric the benchmark prints. BENCHMARK.json lists the same names
/// and units; the self-test and run.py hold the two together.
struct MetricDef {
    const char* name;
    const char* unit;
    bool end_to_end;  ///< printed by untraced runs; per-layer otherwise
};

inline constexpr MetricDef kMetrics[] = {
    // End to end, tracing off. An op is one workload step (see workloads.cpp).
    {"op_p50_us", "us", true},
    {"op_p99_us", "us", true},
    {"launches_per_s", "1/s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},

    // core: the WisdomKernel launch path.
    {"core.launch_us", "us", false},
    {"core.eval_problem_size_us", "us", false},
    {"core.eval_geometry_us", "us", false},
    {"core.bake_launch_us", "us", false},
    {"core.launch_unattributed_us", "us", false},
    {"core.contention_x", "ratio", false},
    {"core.select_config_us", "us", false},
    {"core.warm_hits", "count", false},
    {"core.cold_launches", "count", false},
    {"core.launch_waits", "count", false},
    {"core.match_exact_frac", "ratio", false},
    // analysis: argument, registration and graph lint.
    {"analysis.lint_launch_args_us", "us", false},
    {"analysis.lint_registration_us", "us", false},
    {"analysis.graph_lint_us", "us", false},
    // cudasim: the simulated driver and its performance model.
    {"cudasim.validate_geometry_us", "us", false},
    {"cudasim.perf_estimate_us", "us", false},
    {"cudasim.context_launch_us", "us", false},
    {"cudasim.alloc_async_us", "us", false},
    {"cudasim.free_async_us", "us", false},
    {"cudasim.memcpy_dtoh_us", "us", false},
    {"cudasim.sim_kernel_us", "us", false},
    {"cudasim.launches", "count", false},
    // graph: capture, instantiate and replay.
    {"graph.replay_us", "us", false},
    {"graph.replay_node_ns", "ns", false},
    {"graph.contention_x", "ratio", false},
    {"graph.capture_us", "us", false},
    {"graph.instantiate_us", "us", false},
    // trace: counters and spans.
    {"trace.counter_add_ns", "ns", false},
    {"trace.counter_add_contended_ns", "ns", false},
    {"trace.hostspan_off_ns", "ns", false},
    {"trace.counters_x", "ratio", false},
    // nvrtcsim: lowering and compiling a configuration.
    {"nvrtcsim.lower_us", "us", false},
    {"nvrtcsim.compile_us", "us", false},
    {"nvrtcsim.compile_frac", "ratio", false},
    // rtccache: the on-disk compile cache.
    {"rtccache.load_us", "us", false},
    {"rtccache.store_us", "us", false},
    {"rtccache.hit_frac", "ratio", false},
    // netwisdom: the wisdom server client on loopback.
    {"netwisdom.wisdom_get_us", "us", false},
    {"netwisdom.artifact_get_us", "us", false},
    {"netwisdom.artifact_put_us", "us", false},
    {"netwisdom.hit_frac", "ratio", false},
    {"netwisdom.failures", "count", false},
    // SimClock: modelled host overhead per op of the workload (mean of the
    // deterministic pass), and the split of a cold-start first launch
    // (OverheadBreakdown means over the cold probe's ops).
    {"sim_overhead_us", "us", false},
    {"sim.wisdom_ms", "ms", false},
    {"sim.cache_ms", "ms", false},
    {"sim.net_ms", "ms", false},
    {"sim.compile_ms", "ms", false},
    {"sim.module_load_ms", "ms", false},
    {"sim.launch_us", "us", false},
    // First-launch host latency per serving tier.
    {"cold.compile_op_us", "us", false},
    {"cold.disk_op_us", "us", false},
    {"cold.net_op_us", "us", false},
    // The harness itself.
    {"harness.trace_overhead_frac", "ratio", false},
    {"harness.op_self_us", "us", false},
};

}  // namespace perfbench
