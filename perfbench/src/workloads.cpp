// The two workloads. Each op is a closed-loop call into the public API;
// BENCHMARK.json says why each exists.
//
//   eager   one warm WisdomKernel::launch_args          T threads
//   replay  one GraphExec::replay of a 512-launch graph  T threads
//
// The production timestep (ops.hpp) and cold-start first launches
// (ColdEnv) are not end-to-end workloads: on a shared 4-CPU machine their
// figures were not steady enough to list. The probes of every traced run
// time their layers.
//
// Both workloads spend half the window on each device. The library has one
// process-wide current context, so the devices alternate by phase: both
// are set up, then each is measured and torn down in turn.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "fixture.hpp"
#include "ops.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

constexpr int kSlices = 10;          ///< timed slices per run, devices alternating
constexpr int kSetupsPerSlice = 3;
constexpr uint64_t kSimOps = 512;  ///< deterministic ops per device
constexpr double kWarmupSeconds = 0.2;
constexpr int kTraceAlternations = 3;

/// Per-layer counts read before and after the traced window.
struct Counts {
    uint64_t warm_hits = 0;
    uint64_t cold_launches = 0;
    uint64_t launch_waits = 0;
    uint64_t launches = 0;

    Counts operator-(const Counts& o) const {
        return {warm_hits - o.warm_hits, cold_launches - o.cold_launches,
                launch_waits - o.launch_waits, launches - o.launches};
    }
    Counts& operator+=(const Counts& o) {
        warm_hits += o.warm_hits;
        cold_launches += o.cold_launches;
        launch_waits += o.launch_waits;
        launches += o.launches;
        return *this;
    }
};

enum class WarmMode { Eager, Replay };

WarmMode warm_mode(const std::string& workload) {
    if (workload == "eager") {
        return WarmMode::Eager;
    }
    if (workload == "replay") {
        return WarmMode::Replay;
    }
    throw std::invalid_argument("unknown workload: " + workload);
}

/// One set-up of a workload: the seed's inputs, wisdom files, registered
/// kernels and a warm fixture per device. Phases measure the devices
/// newest first, each tearing one down.
class WarmWorkload {
  public:
    WarmWorkload(WarmMode mode, const RunOptions& options, const std::string& dir):
        mode_(mode),
        inputs_(Inputs::make(options.seed, options.threads)),
        wisdom_dir_(dir + "/wisdom"),
        exact_(write_wisdom(inputs_, wisdom_dir_)),
        kernels_(core::WisdomSettings().wisdom_dir(wisdom_dir_)) {
        for (int d = 0; d < kDeviceCount; d++) {
            fixtures_.push_back(std::make_unique<WarmFixture>(
                inputs_,
                kernels_,
                kDevices[d],
                mode == WarmMode::Replay ? kReplayLaunches : 0,
                0));
        }
    }

    ~WarmWorkload() {
        // Contexts restore the previous current context: newest first.
        while (!fixtures_.empty()) {
            fixtures_.pop_back();
        }
    }

    int phases() const {
        return kDeviceCount;
    }
    int threads() const {
        return inputs_.threads;
    }
    const std::string& wisdom_dir() const {
        return wisdom_dir_;
    }

    /// Deterministic single-threaded op `i` of the phase; returns the
    /// modelled host overhead it was charged on the SimClock, in seconds.
    double sim_op(uint64_t i, RunOutcome& out) {
        sim::Context& context = fixtures_.back()->context();
        const double before = context.clock().now();
        op(0, i);
        const double charged = context.clock().now() - before;
        if (mode_ == WarmMode::Eager) {
            // The launch must use the geometry of the wisdom-selected config.
            const uint32_t v = inputs_.sequences[0][i % kSequenceLength];
            const Expected& want = expected(v);
            const sim::LaunchRecord& got = context.last_launch();
            if (!(got.grid == want.geometry.grid && got.block == want.geometry.block)) {
                out.fail("eager op " + std::to_string(i) + " on " + context.device().name
                         + " launched block " + got.block.to_string() + ", wisdom selects "
                         + want.geometry.block.to_string());
            }
        }
        return charged;
    }

    uint64_t op(int thread, uint64_t i) {
        WarmOps ops {inputs_, kernels_, *fixtures_.back()};
        return mode_ == WarmMode::Eager ? ops.eager(thread, i) : ops.replay(thread, i);
    }

    /// Checks the phase's launched configs and tears the phase down.
    void end_phase(RunOutcome& out) {
        WarmFixture& fixture = *fixtures_.back();
        const int device = static_cast<int>(fixtures_.size()) - 1;
        for (size_t v = 0; v < inputs_.variants.size(); v++) {
            const Variant& variant = inputs_.variants[v];
            const Expected& want = expected(v);
            out.attempted++;
            const core::Config launched = kernels_[variant.kind].bake_launch(fixture.args(v)).config;
            bool ok = launched == want.config;
            auto it = exact_.find({device, v});
            if (it != exact_.end()) {
                ok = ok && it->second == launched;
            }
            if (!ok) {
                out.fail("variant " + std::to_string(v) + " on " + kDevices[device]
                         + " runs config " + launched.to_string() + ", wisdom selects "
                         + want.config.to_string());
            }
        }
        expected_.clear();
        fixtures_.pop_back();
    }

    Counts counts() const {
        const core::WisdomKernel::Stats s = kernels_.total_stats();
        return Counts {
            s.warm_hits, s.cold_launches, s.launch_waits,
            fixtures_.empty() ? 0 : fixtures_.back()->context().launch_count()};
    }

  private:
    struct Expected {
        core::Config config;
        core::KernelDef::Geometry geometry;
    };

    /// The wisdom selection for variant `v` on the current device.
    const Expected& expected(size_t v) {
        if (expected_.empty()) {
            const sim::DeviceProperties& device = fixtures_.back()->context().device();
            const core::WisdomSettings settings = core::WisdomSettings().wisdom_dir(wisdom_dir_);
            for (size_t k = 0; k < inputs_.variants.size(); k++) {
                const Variant& variant = inputs_.variants[k];
                const core::KernelDef& def = kernels_[variant.kind].def();
                const core::WisdomFile wisdom =
                    core::WisdomFile::load(settings.wisdom_path(def.key()), def.key());
                const core::WisdomFile::Selection selection = wisdom.select(
                    device.name,
                    device.architecture,
                    core::ProblemSize(variant.grid.itot, variant.grid.jtot, variant.grid.ktot));
                Expected e;
                e.config = selection.record != nullptr ? selection.record->config
                                                       : def.space.default_config();
                e.geometry = def.eval_geometry(e.config, fixtures_.back()->args(k));
                expected_.push_back(std::move(e));
            }
        }
        return expected_[v];
    }

    WarmMode mode_;
    Inputs inputs_;
    std::string wisdom_dir_;
    std::map<std::pair<int, size_t>, core::Config> exact_;
    Kernels kernels_;
    std::vector<std::unique_ptr<WarmFixture>> fixtures_;
    std::vector<Expected> expected_;
};

LoopResult window(WarmWorkload& workload, double seconds) {
    return run_closed_loop(
        workload.threads(), seconds, [&](int t, uint64_t i) { return workload.op(t, i); });
}

void count_ops(const LoopResult& loop, const char* label, RunOutcome& out) {
    out.attempted += loop.ops;
    if (loop.failed != 0) {
        out.fail(std::to_string(loop.failed) + " of " + std::to_string(loop.ops) + " " + label
                 + " ops threw");
    }
}

/// The phase's deterministic single-threaded pass, then a warm-up window.
/// Appends the SimClock overhead of each pass op to `sim_overheads`.
void sim_pass(WarmWorkload& workload, std::vector<double>& sim_overheads, RunOutcome& out) {
    for (uint64_t i = 0; i < kSimOps; i++) {
        out.attempted++;
        sim_overheads.push_back(workload.sim_op(i, out));
    }
    count_ops(window(workload, kWarmupSeconds), "warm-up", out);
}

/// Set-up time of a fresh workload, in seconds; the first of the run is
/// timed from process start.
std::unique_ptr<WarmWorkload> timed_setup(
    const RunOptions& options,
    std::vector<double>& setup_seconds) {
    const std::string dir = options.work_dir + "/setup-" + std::to_string(setup_seconds.size());
    const double start = setup_seconds.empty() ? 0 : now_us();
    auto workload = std::make_unique<WarmWorkload>(warm_mode(options.workload), options, dir);
    setup_seconds.push_back((now_us() - start) * 1e-6);
    return workload;
}

std::string join(const std::vector<double>& values) {
    std::string text;
    for (double v : values) {
        if (!text.empty()) {
            text += ' ';
        }
        text += std::to_string(v);
    }
    return text;
}

/// Untraced run: the window is cut into kSlices slices that alternate
/// between the devices. Each slice runs on a fresh workload, the last of
/// kSetupsPerSlice timed set-ups, after its sim pass and warm-up. Set-ups
/// are thus spread over the whole run, like the ops, so that set-up time
/// and op times see the same stretches of a shared machine. Only one
/// workload is alive at a time, so set-up never stacks on a window's memory.
void run_untraced(const RunOptions& options, RunOutcome& out) {
    std::vector<double> setup_seconds;
    std::vector<double> sim_overheads;
    LoopResult timed;
    std::vector<LoopResult> by_device(kDeviceCount);  // rates only; samples stay in `timed`
    std::string wisdom_dir;
    int threads = 0;
    for (int k = 0; k < kSlices; k++) {
        std::unique_ptr<WarmWorkload> workload;
        for (int r = 0; r < kSetupsPerSlice; r++) {
            workload.reset();
            workload = timed_setup(options, setup_seconds);
        }
        // Phases run the devices newest first; earlier ones are checked
        // and torn down to reach the slice's device.
        const int phase = k % workload->phases();
        for (int done = 0; done < phase; done++) {
            workload->end_phase(out);
        }
        sim_pass(*workload, sim_overheads, out);
        const LoopResult slice = window(*workload, options.seconds / kSlices);
        LoopResult& device = by_device[phase];
        device.launches += slice.launches;
        device.seconds += slice.seconds;
        timed.merge(slice);
        workload->end_phase(out);
        wisdom_dir = workload->wisdom_dir();
        threads = workload->threads();
    }
    // Peak memory covers every set-up and timed slice, not the checks.
    const double rss_mb = peak_rss_mb();
    count_ops(timed, "timed", out);
    check_functional(options.seed, wisdom_dir, out);
    std::string device_rates;
    for (int phase = 0; phase < kDeviceCount; phase++) {
        device_rates += std::string(" ") + kDevices[kDeviceCount - 1 - phase] + ": "
            + std::to_string(by_device[phase].launches_per_s());
    }

    Report& report = out.report;
    report.set("op_p50_us", timed.latency_percentile_us(0.50));
    report.set("op_p99_us", timed.latency_percentile_us(0.99));
    report.set("launches_per_s", timed.launches_per_s());
    report.set("setup_s", median(setup_seconds));
    report.set("peak_rss_mb", rss_mb);
    out.notes.push_back("launches per s by device:" + device_rates);
    out.notes.push_back("set-up s, in order: " + join(setup_seconds));
    size_t sampled = 0;
    for (const LatencySample& sample : timed.samples) {
        sampled += sample.values_us.size();
    }
    out.notes.push_back(
        std::to_string(timed.ops) + " ops in " + std::to_string(timed.seconds) + " s on "
        + std::to_string(threads) + " thread(s), " + std::to_string(sampled)
        + " latency samples");
}

/// Traced run: the sim pass of every phase, the first phase's window
/// untraced and then traced (their throughput ratio is the tracing
/// overhead), then the layer probes.
void run_traced(const RunOptions& options, RunOutcome& out) {
    const double window_seconds = options.seconds * 0.1;
    auto workload = std::make_unique<WarmWorkload>(
        warm_mode(options.workload), options, options.work_dir + "/setup-0");
    std::vector<double> sim_overheads;
    sim_pass(*workload, sim_overheads, out);
    // Untraced and traced windows alternate so that drift hits both alike.
    // The first traced window's spans are kept; later ones only count.
    std::vector<double> plain_rates, traced_rates;
    std::vector<Span> spans;
    Counts traced_counts;
    for (int k = 0; k < kTraceAlternations; k++) {
        const LoopResult plain = window(*workload, window_seconds);
        const Counts start = workload->counts();
        Recorder::enable(true);
        const LoopResult traced = window(*workload, window_seconds);
        Recorder::enable(false);
        traced_counts += workload->counts() - start;
        std::vector<Span> recorded = Recorder::drain();
        if (k == 0) {
            spans = std::move(recorded);
        }
        count_ops(plain, "untraced", out);
        count_ops(traced, "traced", out);
        plain_rates.push_back(plain.launches_per_s());
        traced_rates.push_back(traced.launches_per_s());
    }
    workload->end_phase(out);
    for (int p = 1; p < workload->phases(); p++) {
        sim_pass(*workload, sim_overheads, out);
        workload->end_phase(out);
    }
    const std::string wisdom_dir = workload->wisdom_dir();
    check_functional(options.seed, wisdom_dir, out);
    workload.reset();

    Report& report = out.report;
    report.set("sim_overhead_us", mean(sim_overheads) * 1e6);
    report.set("core.warm_hits", static_cast<double>(traced_counts.warm_hits));
    report.set("core.cold_launches", static_cast<double>(traced_counts.cold_launches));
    report.set("core.launch_waits", static_cast<double>(traced_counts.launch_waits));
    report.set("cudasim.launches", static_cast<double>(traced_counts.launches));
    report.set("harness.trace_overhead_frac", 1.0 - median(traced_rates) / median(plain_rates));

    // The op spans' self time is what the harness adds around the calls.
    const std::vector<double> self = self_times(spans);
    std::vector<double> op_self;
    for (size_t i = 0; i < spans.size(); i++) {
        const std::string name = spans[i].name;
        if (name.size() > 3 && name.compare(name.size() - 3, 3, ".op") == 0) {
            op_self.push_back(self[i]);
        }
    }
    report.set("harness.op_self_us", percentile(op_self, 0.5));
    constexpr size_t kKeptWindowSpans = 20'000;
    if (spans.size() > kKeptWindowSpans) {
        spans.resize(kKeptWindowSpans);
    }
    out.spans = std::move(spans);

    run_probes(options, out);
}

}  // namespace

void run_workload(const RunOptions& options, RunOutcome& out) {
    ::kl::trace::set_mode(::kl::trace::Mode::Off);
    if (options.trace) {
        run_traced(options, out);
    } else {
        run_untraced(options, out);
    }
}

double span_p50_us(const std::vector<Span>& spans, const char* name) {
    std::vector<double> per_call;
    for (const Span& s : spans) {
        if (std::strcmp(s.name, name) == 0) {
            per_call.push_back((s.end_us - s.start_us) / s.count);
        }
    }
    try {
        return percentile(std::move(per_call), 0.5);
    } catch (const TooFewSamples& e) {
        throw TooFewSamples(std::string(name) + ": " + e.what());
    }
}

}  // namespace perfbench
