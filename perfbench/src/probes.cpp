// Per-layer probes of the traced run. Each probe times one module's public
// calls from outside the library, as spans; the metrics are medians of
// those spans. Every traced run, whatever its workload, runs all probes,
// so every per-layer metric is present in every traced result.

#include <cstring>
#include <optional>
#include <thread>

#include "analysis/lint.hpp"
#include "bench.hpp"
#include "fixture.hpp"
#include "netwisdom/client.hpp"
#include "ops.hpp"
#include "rtccache/rtccache.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

constexpr int kStageIterations = 8000;
constexpr int kSlowStageEvery = 8;  ///< lint and bake are ~100x a launch
constexpr int kGraphRounds = 24;
constexpr int kReplayRounds = 2000;
constexpr int kProductionRounds = 4000;
constexpr int kCounterBatches = 2000;
constexpr uint32_t kCounterBatch = 256;
constexpr uint32_t kHostSpanBatch = 100;
constexpr uint64_t kColdOps = 120;  ///< six blocks of the tier plan
constexpr int kDirectRounds = 30;
constexpr double kContentionSeconds = 0.3;

template<typename T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

std::vector<Span> named(const std::vector<Span>& spans, const char* name) {
    std::vector<Span> out;
    for (const Span& s : spans) {
        if (std::strcmp(s.name, name) == 0) {
            out.push_back(s);
        }
    }
    return out;
}

/// Median latency of `threads` threads running `op` closed loop.
template<typename Op>
double loop_p50_us(int threads, Op&& op) {
    const LoopResult loop = run_closed_loop(threads, kContentionSeconds, op);
    if (loop.failed != 0) {
        throw std::runtime_error("probe loop ops failed");
    }
    return loop.latency_percentile_us(0.5);
}

/// Splits warm launches into the public calls they are made of. The
/// stages of one iteration are children of its "probe.iteration" span.
void warm_stage_probe(
    const Inputs& inputs,
    Kernels& kernels,
    WarmFixture& fixture,
    Report& report,
    std::vector<Span>& kept) {
    sim::Context& context = fixture.context();
    const sim::DeviceProperties& device = context.device();
    std::vector<core::WisdomKernel::BakedLaunch> baked;
    std::vector<std::vector<void*>> slots;
    for (size_t v = 0; v < inputs.variants.size(); v++) {
        baked.push_back(kernels[inputs.variants[v].kind].bake_launch(fixture.args(v)));
        std::vector<void*> s;
        for (const core::KernelArg& arg : fixture.args(v)) {
            s.push_back(const_cast<void*>(arg.slot()));
        }
        slots.push_back(std::move(s));
    }

    for (int i = 0; i < 2000; i++) {
        ScopedSpan empty("harness.empty");
    }
    int exact = 0;
    std::vector<double> kernel_seconds;
    for (int i = 0; i < kStageIterations; i++) {
        ScopedSpan iteration("probe.iteration");
        const uint32_t v = inputs.sequences[0][static_cast<size_t>(i) % kSequenceLength];
        core::WisdomKernel& kernel = kernels[inputs.variants[v].kind];
        const core::KernelDef& def = kernel.def();
        const std::vector<core::KernelArg>& args = fixture.args(v);
        const core::WisdomKernel::BakedLaunch& bake = baked[v];
        {
            ScopedSpan span("core.launch_args");
            kernel.launch_args(args);
        }
        exact += kernel.last_match() == core::WisdomMatch::Exact ? 1 : 0;
        kernel_seconds.push_back(context.last_launch().timing.seconds);
        {
            ScopedSpan span("core.eval_problem_size");
            keep(def.eval_problem_size(args));
        }
        core::KernelDef::Geometry g;
        {
            ScopedSpan span("core.eval_geometry");
            g = def.eval_geometry(bake.config, args);
        }
        {
            ScopedSpan span("cudasim.validate_geometry");
            sim::validate_launch_geometry(device, *bake.image, g.grid, g.block, g.shared_mem_bytes);
        }
        {
            ScopedSpan span("cudasim.perf_estimate");
            keep(context.perf_model().estimate(device, *bake.image, g.grid, g.block, g.shared_mem_bytes));
        }
        {
            ScopedSpan span("cudasim.context_launch");
            context.launch(
                *bake.image, g.grid, g.block, g.shared_mem_bytes, context.default_stream(),
                slots[v].data(), slots[v].size());
        }
        {
            // The launch path builds this span's arguments even with
            // tracing off.
            ScopedSpan span("trace.hostspan_off", kHostSpanBatch);
            for (uint32_t k = 0; k < kHostSpanBatch; k++) {
                ::kl::trace::HostSpan host(
                    "launch", "args.marshal", {{"kernel", def.name}, {"args", std::to_string(args.size())}});
            }
        }
        if (i % kSlowStageEvery == 0) {
            {
                ScopedSpan span("analysis.lint_launch_args");
                keep(::kl::analysis::lint_launch_args(def, args));
            }
            ScopedSpan span("core.bake_launch");
            keep(kernel.bake_launch(args));
        }
    }
    std::vector<Span> spans = Recorder::drain();

    // Unattributed: the launch minus the stages it is made of. Each span
    // carries one timer read of overhead, so the three subtracted stage
    // spans and the launch span net out to two empty spans.
    const double empty_us = span_p50_us(spans, "harness.empty");
    std::map<uint64_t, double> launch_us, stage_us;
    for (const Span& s : spans) {
        const double d = (s.end_us - s.start_us) / s.count;
        if (std::strcmp(s.name, "core.launch_args") == 0) {
            launch_us[s.parent] = d;
        } else if (
            std::strcmp(s.name, "core.eval_problem_size") == 0
            || std::strcmp(s.name, "core.eval_geometry") == 0
            || std::strcmp(s.name, "cudasim.context_launch") == 0
            || std::strcmp(s.name, "trace.hostspan_off") == 0) {
            stage_us[s.parent] += d;
        }
    }
    std::vector<double> unattributed;
    for (const auto& [iteration, launch] : launch_us) {
        unattributed.push_back(launch - stage_us[iteration] + 2 * empty_us);
    }

    report.set("core.launch_us", span_p50_us(spans, "core.launch_args"));
    report.set("core.eval_problem_size_us", span_p50_us(spans, "core.eval_problem_size"));
    report.set("core.eval_geometry_us", span_p50_us(spans, "core.eval_geometry"));
    report.set("core.bake_launch_us", span_p50_us(spans, "core.bake_launch"));
    report.set("core.launch_unattributed_us", percentile(unattributed, 0.5));
    report.set("core.match_exact_frac", static_cast<double>(exact) / kStageIterations);
    report.set("analysis.lint_launch_args_us", span_p50_us(spans, "analysis.lint_launch_args"));
    report.set("cudasim.validate_geometry_us", span_p50_us(spans, "cudasim.validate_geometry"));
    report.set("cudasim.perf_estimate_us", span_p50_us(spans, "cudasim.perf_estimate"));
    report.set("cudasim.context_launch_us", span_p50_us(spans, "cudasim.context_launch"));
    report.set("cudasim.sim_kernel_us", mean(kernel_seconds) * 1e6);
    report.set("trace.hostspan_off_ns", span_p50_us(spans, "trace.hostspan_off") * 1e3);
    kept.insert(kept.end(), spans.begin(), spans.begin() + std::min<size_t>(spans.size(), 5000));
}

void graph_probe(
    const Inputs& inputs,
    Kernels& kernels,
    WarmFixture& fixture,
    Report& report,
    std::vector<Span>& kept) {
    for (int r = 0; r < kGraphRounds; r++) {
        std::optional<graph::LaunchGraph> recorded;
        {
            ScopedSpan span("graph.capture");
            recorded.emplace(fixture.capture_timestep(0, kReplayLaunches));
        }
        {
            ScopedSpan span("graph.instantiate");
            keep(recorded->instantiate());
        }
        // The analysis is memoized per recording, so lint a fresh one.
        const graph::LaunchGraph fresh = fixture.capture_timestep(0, kReplayLaunches);
        ScopedSpan span("analysis.graph_lint");
        keep(fresh.lint());
    }
    graph::GraphExec& exec = fixture.replay_graph(0);
    for (int r = 0; r < kReplayRounds; r++) {
        ScopedSpan span("graph.replay");
        exec.replay(&fixture.stream(0));
    }
    std::vector<Span> spans = Recorder::drain();
    const double replay_us = span_p50_us(spans, "graph.replay");
    report.set("graph.capture_us", span_p50_us(spans, "graph.capture"));
    report.set("graph.instantiate_us", span_p50_us(spans, "graph.instantiate"));
    report.set("analysis.graph_lint_us", span_p50_us(spans, "analysis.graph_lint"));
    report.set("graph.replay_us", replay_us);
    report.set("graph.replay_node_ns", replay_us * 1e3 / static_cast<double>(exec.node_count()));
    kept.insert(kept.end(), spans.begin(), spans.begin() + std::min<size_t>(spans.size(), 2000));

    Recorder::enable(false);
    WarmOps ops {inputs, kernels, fixture};
    auto replay = [&](int t, uint64_t i) { return ops.replay(t, i); };
    auto eager = [&](int t, uint64_t i) { return ops.eager(t, i); };
    report.set("graph.contention_x", loop_p50_us(inputs.threads, replay) / loop_p50_us(1, replay));
    report.set("core.contention_x", loop_p50_us(inputs.threads, eager) / loop_p50_us(1, eager));
    Recorder::enable(true);
}

void production_probe(
    const Inputs& inputs,
    Kernels& kernels,
    WarmFixture& fixture,
    Report& report,
    std::vector<Span>& kept) {
    WarmOps ops {inputs, kernels, fixture};
    for (int r = 0; r < kProductionRounds; r++) {
        ops.production(0, static_cast<uint64_t>(r));
    }
    std::vector<Span> spans = Recorder::drain();
    report.set("cudasim.alloc_async_us", span_p50_us(spans, "cudasim.alloc_async"));
    report.set("cudasim.free_async_us", span_p50_us(spans, "cudasim.free_async"));
    report.set("cudasim.memcpy_dtoh_us", span_p50_us(spans, "cudasim.memcpy_dtoh"));
    kept.insert(kept.end(), spans.begin(), spans.begin() + std::min<size_t>(spans.size(), 2000));

    Recorder::enable(false);
    auto production = [&](int t, uint64_t i) { return ops.production(t, i); };
    ::kl::trace::set_mode(::kl::trace::Mode::Off);
    const double off = loop_p50_us(inputs.threads, production);
    ::kl::trace::set_mode(::kl::trace::Mode::Counters);
    const double on = loop_p50_us(inputs.threads, production);
    ::kl::trace::set_mode(::kl::trace::Mode::Off);
    report.set("trace.counters_x", on / off);
    Recorder::enable(true);
}

/// By-name counter bumps, the way the library's call sites make them.
void counter_probe(int threads, Report& report) {
    ::kl::trace::set_mode(::kl::trace::Mode::Counters);
    auto bump = [](const char* span_name) {
        for (int b = 0; b < kCounterBatches; b++) {
            ScopedSpan span(span_name, kCounterBatch);
            for (uint32_t k = 0; k < kCounterBatch; k++) {
                ::kl::trace::counter("perfbench.probe").add(1);
            }
        }
    };
    bump("trace.counter_add");
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; t++) {
        pool.emplace_back(bump, "trace.counter_add_contended");
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    ::kl::trace::set_mode(::kl::trace::Mode::Off);
    const std::vector<Span> spans = Recorder::drain();
    report.set("trace.counter_add_ns", span_p50_us(spans, "trace.counter_add") * 1e3);
    report.set(
        "trace.counter_add_contended_ns", span_p50_us(spans, "trace.counter_add_contended") * 1e3);
}

/// First launches on fresh nodes (the cold-start plan from op 0), plus
/// direct calls into nvrtcsim, rtccache, netwisdom and wisdom selection.
void cold_probe(const RunOptions& options, RunOutcome& out) {
    Report& report = out.report;
    ColdEnv env(options.seed, options.work_dir + "/probe-cold");
    std::vector<double> wisdom, cache, net, compile, load, launch, compiled_ms;
    core::WisdomKernel::Stats total;
    uint64_t compiles = 0;
    for (uint64_t i = 0; i < kColdOps; i++) {
        out.attempted++;
        ColdEnv::Outcome o;
        try {
            o = env.first_launch(*env.make_node(i));
        } catch (const std::exception& e) {
            out.fail(e.what());
            continue;
        }
        wisdom.push_back(o.sim.wisdom_seconds * 1e3);
        cache.push_back(o.sim.cache_seconds * 1e3);
        net.push_back(o.sim.net_seconds * 1e3);
        compile.push_back(o.sim.compile_seconds * 1e3);
        load.push_back(o.sim.module_load_seconds * 1e3);
        launch.push_back(o.sim.launch_seconds * 1e6);
        if (o.tier == kCompile) {
            compiles++;
            compiled_ms.push_back(o.sim.total() * 1e3);
        }
        total.disk_hits += o.stats.disk_hits;
        total.disk_misses += o.stats.disk_misses;
        total.net_hits += o.stats.net_hits;
        total.net_misses += o.stats.net_misses;
    }
    report.set("sim.wisdom_ms", mean(wisdom));
    report.set("sim.cache_ms", mean(cache));
    report.set("sim.net_ms", mean(net));
    report.set("sim.compile_ms", mean(compile));
    report.set("sim.module_load_ms", mean(load));
    report.set("sim.launch_us", mean(launch));
    out.notes.push_back(
        "compile-tier first launch on the SimClock: mean " + std::to_string(mean(compiled_ms))
        + " ms (paper, Fig. 5: 294 ms)");
    report.set("nvrtcsim.compile_frac", static_cast<double>(compiles) / kColdOps);
    report.set(
        "rtccache.hit_frac",
        static_cast<double>(total.disk_hits) / static_cast<double>(total.disk_hits + total.disk_misses));
    report.set(
        "netwisdom.hit_frac",
        static_cast<double>(total.net_hits) / static_cast<double>(total.net_hits + total.net_misses));

    std::vector<Span> spans = Recorder::drain();
    std::map<int32_t, std::vector<double>> by_tier;
    for (const Span& s : named(spans, "cold.op")) {
        by_tier[s.tag].push_back(s.end_us - s.start_us);
    }
    report.set("cold.compile_op_us", percentile(by_tier[kCompile], 0.5));
    report.set("cold.disk_op_us", percentile(by_tier[kDisk], 0.5));
    report.set("cold.net_op_us", percentile(by_tier[kNet], 0.5));
    for (int tier : {kCompile, kDisk, kNet}) {
        out.notes.push_back(
            std::string("cold-start ") + tier_name(tier) + " tier: "
            + std::to_string(by_tier[tier].size()) + " ops, p50 "
            + std::to_string(percentile(by_tier[tier], 0.5)) + " us");
    }
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());

    // Direct calls, on one device, over the pools' instances.
    auto context = sim::Context::create(kDevices[0], sim::ExecutionMode::TimingOnly);
    const sim::DeviceProperties& device = context->device();
    ::kl::rtccache::DiskCache reader({::kl::rtccache::Mode::Read, env.disk_dir()});
    ::kl::rtccache::DiskCache writer({::kl::rtccache::Mode::ReadWrite, env.dir() + "/store"});
    ::kl::netwisdom::Client client(::kl::netwisdom::Settings {env.server_address()});
    std::vector<std::unique_ptr<core::WisdomKernel>> kernels;
    for (int kind = 0; kind < kKindCount; kind++) {
        kernels.push_back(std::make_unique<core::WisdomKernel>(
            make_def(kind), env.node_settings(kDisk, env.disk_dir()).lint_mode(core::LintMode::Off)));
    }
    // select_config() selects for the current context's device.
    std::vector<ColdEnv::Plan> pool;
    for (const ColdEnv::Plan& entry : env.disk_pool()) {
        if (entry.device == 0) {
            pool.push_back(entry);
        }
    }
    uint64_t loads = 0, load_hits = 0;
    for (int r = 0; r < kDirectRounds; r++) {
        const ColdEnv::Plan& entry = pool[static_cast<size_t>(r) % pool.size()];
        core::WisdomKernel& kernel = *kernels[entry.kind];
        const core::KernelDef& def = kernel.def();
        const core::ProblemSize problem(entry.grid.itot, entry.grid.jtot, entry.grid.ktot);
        {
            ScopedSpan span("core.select_config");
            // Selection is never cached; an off-record size takes the
            // nearest-size path.
            keep(kernel.select_config(
                core::ProblemSize(entry.grid.itot + 8, entry.grid.jtot, entry.grid.ktot)));
        }
        {
            ScopedSpan span("analysis.lint_registration");
            keep(::kl::analysis::lint_registration(def, env.node_settings(kDisk, env.disk_dir())));
        }
        const core::Config config = kernel.select_config(problem);
        core::KernelCompiler::Lowered lowered;
        {
            ScopedSpan span("nvrtcsim.lower");
            lowered = core::KernelCompiler::lower(def, config, device, &problem);
        }
        core::KernelCompiler::Output compiled;
        {
            ScopedSpan span("nvrtcsim.compile");
            compiled = core::KernelCompiler::compile_lowered(def, lowered);
        }
        const ::kl::rtccache::CacheKey key {
            def.name, device.architecture, lowered.source, lowered.options,
            lowered.name_expression};
        {
            ScopedSpan span("rtccache.load");
            load_hits += reader.load(key).has_value() ? 1 : 0;
            loads++;
        }
        const std::string text = ::kl::rtccache::encode_entry(
            key, compiled.image, compiled.log, compiled.compile_seconds);
        {
            ScopedSpan span("rtccache.store");
            writer.store_text(key, text);
        }
        {
            ScopedSpan span("netwisdom.wisdom_get");
            keep(client.wisdom_get(def.key(), device.name, device.architecture, problem.to_json()));
        }
        {
            ScopedSpan span("netwisdom.artifact_get");
            keep(client.artifact_get(key.id()));
        }
        {
            ScopedSpan span("netwisdom.artifact_put");
            keep(client.artifact_put(key.id(), text));
        }
    }
    if (load_hits != loads) {
        out.fail(std::to_string(loads - load_hits) + " of " + std::to_string(loads)
                 + " disk-pool entries missed in the direct rtccache probe");
    }
    spans = Recorder::drain();
    report.set("core.select_config_us", span_p50_us(spans, "core.select_config"));
    report.set("analysis.lint_registration_us", span_p50_us(spans, "analysis.lint_registration"));
    report.set("nvrtcsim.lower_us", span_p50_us(spans, "nvrtcsim.lower"));
    report.set("nvrtcsim.compile_us", span_p50_us(spans, "nvrtcsim.compile"));
    report.set("rtccache.load_us", span_p50_us(spans, "rtccache.load"));
    report.set("rtccache.store_us", span_p50_us(spans, "rtccache.store"));
    report.set("netwisdom.wisdom_get_us", span_p50_us(spans, "netwisdom.wisdom_get"));
    report.set("netwisdom.artifact_get_us", span_p50_us(spans, "netwisdom.artifact_get"));
    report.set("netwisdom.artifact_put_us", span_p50_us(spans, "netwisdom.artifact_put"));
    const ::kl::netwisdom::ClientStats direct = client.stats();
    const ::kl::netwisdom::ClientStats shared =
        ::kl::netwisdom::client_for(::kl::netwisdom::Settings {env.server_address()})->stats();
    report.set(
        "netwisdom.failures",
        static_cast<double>(direct.errors + direct.timeouts + shared.errors + shared.timeouts));
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
}

}  // namespace

void run_probes(const RunOptions& options, RunOutcome& out) {
    ::kl::trace::set_mode(::kl::trace::Mode::Off);
    const Inputs inputs = Inputs::make(options.seed, options.threads);
    const std::string wisdom_dir = options.work_dir + "/probe/wisdom";
    write_wisdom(inputs, wisdom_dir);
    Kernels kernels(core::WisdomSettings().wisdom_dir(wisdom_dir));
    std::vector<Span> kept;
    Recorder::enable(true);
    {
        WarmFixture fixture(inputs, kernels, kDevices[1], kReplayLaunches, kProductionLaunches);
        warm_stage_probe(inputs, kernels, fixture, out.report, kept);
        graph_probe(inputs, kernels, fixture, out.report, kept);
        production_probe(inputs, kernels, fixture, out.report, kept);
    }
    counter_probe(options.threads, out.report);
    cold_probe(options, out);
    Recorder::enable(false);
    out.spans.insert(out.spans.end(), kept.begin(), kept.end());
}

}  // namespace perfbench
