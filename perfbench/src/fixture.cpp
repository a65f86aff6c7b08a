#include "fixture.hpp"

#include <filesystem>
#include <stdexcept>

#include "cudasim/device_props.hpp"
#include "netwisdom/client.hpp"
#include "util/fs.hpp"

namespace perfbench {

namespace {

using ::kl::Rng;
using ::kl::hash_combine;

template<typename T>
std::vector<core::KernelArg> typed_args(
    int kind,
    const microhh::Grid& grid,
    const std::vector<sim::DevicePtr>& fields) {
    const core::ScalarType type = core::scalar_type_of<T>();
    const auto cells = static_cast<size_t>(grid.ncells());
    std::vector<core::KernelArg> args;
    for (int f = 0; f < field_count(kind); f++) {
        args.push_back(core::KernelArg::buffer(fields.at(f), type, cells));
    }
    if (std::string(kKinds[kind].kernel) == "diff_uvw") {
        args.push_back(core::KernelArg::scalar(T(0.01)));  // visc
    }
    args.push_back(core::KernelArg::scalar(T(grid.itot)));
    args.push_back(core::KernelArg::scalar(T(grid.jtot)));
    args.push_back(core::KernelArg::scalar(T(grid.ktot)));
    args.push_back(core::KernelArg::scalar(grid.itot));
    args.push_back(core::KernelArg::scalar(grid.jtot));
    args.push_back(core::KernelArg::scalar(grid.ktot));
    args.push_back(core::KernelArg::scalar(grid.icells()));
    args.push_back(core::KernelArg::scalar(static_cast<int>(grid.kstride())));
    return args;
}

std::vector<sim::DevicePtr> allocate_fields(sim::Context& context, int kind, const microhh::Grid& grid) {
    const uint64_t bytes =
        static_cast<uint64_t>(grid.ncells()) * microhh::precision_size(kKinds[kind].precision);
    std::vector<sim::DevicePtr> fields;
    for (int f = 0; f < field_count(kind); f++) {
        fields.push_back(context.malloc(bytes));
    }
    return fields;
}

void free_fields(sim::Context& context, const std::vector<sim::DevicePtr>& fields) {
    for (sim::DevicePtr ptr : fields) {
        context.free(ptr);
    }
}

/// A seeded configuration that compiles and launches on `device` for
/// `problem`; the record's time is its modelled kernel time.
std::pair<core::Config, double> launchable_config(
    const core::KernelDef& def,
    int kind,
    const sim::DeviceProperties& device,
    const microhh::Grid& grid,
    Rng& rng) {
    const core::ProblemSize problem(grid.itot, grid.jtot, grid.ktot);
    const std::vector<core::KernelArg> args =
        make_args(kind, grid, std::vector<sim::DevicePtr>(field_count(kind), 0));
    for (int attempt = 0; attempt < 64; attempt++) {
        std::optional<core::Config> config = def.space.random_config(rng);
        if (!config.has_value()) {
            continue;
        }
        try {
            core::KernelCompiler::Output compiled =
                core::KernelCompiler::compile(def, *config, device, &problem);
            core::KernelDef::Geometry geometry = def.eval_geometry(*config, args);
            sim::validate_launch_geometry(
                device, compiled.image, geometry.grid, geometry.block, geometry.shared_mem_bytes);
            sim::TimingEstimate timing = sim::PerfModel().estimate(
                device, compiled.image, geometry.grid, geometry.block, geometry.shared_mem_bytes);
            return {*config, timing.seconds};
        } catch (const std::exception&) {
            // Not launchable on this device (e.g. zero occupancy): draw again.
        }
    }
    throw std::runtime_error(std::string("no launchable configuration for ") + def.key());
}

core::WisdomRecord make_record(
    const core::KernelDef& def,
    int kind,
    const sim::DeviceProperties& device,
    const microhh::Grid& grid,
    Rng& rng) {
    auto [config, seconds] = launchable_config(def, kind, device, grid, rng);
    core::WisdomRecord record;
    record.problem_size = core::ProblemSize(grid.itot, grid.jtot, grid.ktot);
    record.device_name = device.name;
    record.device_architecture = device.architecture;
    record.config = std::move(config);
    record.time_seconds = seconds;
    // A fixed provenance keeps the file, and so its modelled read cost,
    // identical for a given seed.
    record.provenance = ::kl::json::Value::object();
    record.provenance["strategy"] = "perfbench";
    return record;
}

microhh::Grid random_grid(Rng& rng, int ilo, int ihi, int step) {
    return microhh::Grid(
        static_cast<int>(rng.next_between(ilo, ihi)) * step,
        static_cast<int>(rng.next_between(2, 8)) * 32,
        static_cast<int>(rng.next_between(2, 8)) * 16);
}

}  // namespace

core::KernelDef make_def(int kind) {
    const Kind& k = kKinds[kind];
    return std::string(k.kernel) == "advec_u" ? microhh::make_advec_u_builder(k.precision).build()
                                              : microhh::make_diff_uvw_builder(k.precision).build();
}

int field_count(int kind) {
    return std::string(kKinds[kind].kernel) == "advec_u" ? 2 : 6;
}

std::vector<core::KernelArg> make_args(
    int kind,
    const microhh::Grid& grid,
    const std::vector<sim::DevicePtr>& fields) {
    return kKinds[kind].precision == microhh::Precision::Float32
        ? typed_args<float>(kind, grid, fields)
        : typed_args<double>(kind, grid, fields);
}

Inputs Inputs::make(uint64_t seed, int threads) {
    constexpr int kVariants = 8;
    Inputs in;
    in.seed = seed;
    in.threads = threads;
    Rng rng(seed);
    // Kinds keep the same popularity ranks on every seed, so that seeds
    // vary sizes, configs and match quality but not the kernel mix.
    constexpr int kinds[kVariants] = {0, 2, 1, 3, 2, 0, 3, 1};
    std::vector<bool> exact;
    for (int v = 0; v < kVariants; v++) {
        exact.push_back(v % 2 == 0);
    }
    rng.shuffle(exact);
    for (int v = 0; v < kVariants; v++) {
        microhh::Grid grid;
        bool fresh = false;
        while (!fresh) {
            grid = random_grid(rng, 2, 8, 32);
            fresh = true;
            for (const Variant& other : in.variants) {
                fresh = fresh
                    && !(other.kind == kinds[v] && other.grid.itot == grid.itot
                         && other.grid.jtot == grid.jtot && other.grid.ktot == grid.ktot);
            }
        }
        in.variants.push_back(Variant {kinds[v], grid, exact[v]});
    }

    // Zipf(1) popularity over the variants' ranks.
    std::vector<double> cdf;
    double total = 0;
    for (int r = 0; r < kVariants; r++) {
        total += 1.0 / (r + 1);
        cdf.push_back(total);
    }
    for (double& c : cdf) {
        c /= total;
    }
    for (int t = 0; t < threads; t++) {
        Rng thread_rng(hash_combine(seed, static_cast<uint64_t>(t) + 1));
        std::vector<uint32_t> sequence, scratch, dtoh;
        for (size_t i = 0; i < kSequenceLength; i++) {
            const double u = thread_rng.next_double();
            uint32_t rank = 0;
            while (rank + 1 < cdf.size() && cdf[rank] <= u) {
                rank++;
            }
            sequence.push_back(rank);
            scratch.push_back(static_cast<uint32_t>(thread_rng.next_between(1, 256)) * 256);
            dtoh.push_back(static_cast<uint32_t>(thread_rng.next_between(1, kScratchBytes / 64)) * 64);
        }
        in.sequences.push_back(std::move(sequence));
        in.scratch_bytes.push_back(std::move(scratch));
        in.dtoh_bytes.push_back(std::move(dtoh));
    }
    return in;
}

std::map<std::pair<int, size_t>, core::Config> write_wisdom(
    const Inputs& inputs,
    const std::string& dir) {
    std::map<std::pair<int, size_t>, core::Config> exact;
    ::kl::create_directories(dir);
    const core::WisdomSettings settings = core::WisdomSettings().wisdom_dir(dir);
    for (int kind = 0; kind < kKindCount; kind++) {
        const core::KernelDef def = make_def(kind);
        core::WisdomFile file(def.key());
        for (int d = 0; d < kDeviceCount; d++) {
            const sim::DeviceProperties& device = sim::DeviceRegistry::global().by_name(kDevices[d]);
            Rng rng(hash_combine(inputs.seed, static_cast<uint64_t>(kind * kDeviceCount + d) + 101));
            for (size_t i = 0; i < inputs.variants.size(); i++) {
                const Variant& v = inputs.variants[i];
                if (v.kind != kind) {
                    continue;
                }
                const microhh::Grid at = v.exact_wisdom
                    ? v.grid
                    : microhh::Grid(v.grid.itot + 32, v.grid.jtot, v.grid.ktot + 16);
                core::WisdomRecord record = make_record(def, kind, device, at, rng);
                if (v.exact_wisdom) {
                    exact.emplace(std::make_pair(d, i), record.config);
                }
                file.add(std::move(record), true);
            }
        }
        file.save(settings.wisdom_path(def.key()));
    }
    return exact;
}

Kernels::Kernels(const core::WisdomSettings& settings) {
    for (int kind = 0; kind < kKindCount; kind++) {
        by_kind.push_back(std::make_unique<core::WisdomKernel>(make_def(kind), settings));
    }
}

core::WisdomKernel::Stats Kernels::total_stats() const {
    core::WisdomKernel::Stats total;
    for (const auto& kernel : by_kind) {
        const core::WisdomKernel::Stats s = kernel->stats();
        total.compiles_started += s.compiles_started;
        total.cold_launches += s.cold_launches;
        total.launch_waits += s.launch_waits;
        total.warm_hits += s.warm_hits;
        total.disk_hits += s.disk_hits;
        total.disk_misses += s.disk_misses;
        total.net_hits += s.net_hits;
        total.net_misses += s.net_misses;
    }
    return total;
}

WarmFixture::WarmFixture(
    const Inputs& inputs,
    Kernels& kernels,
    const char* device,
    int replay_launches,
    int production_launches):
    inputs_(inputs),
    kernels_(kernels),
    context_(sim::Context::create(device, sim::ExecutionMode::TimingOnly)) {
    for (const Variant& v : inputs.variants) {
        fields_.push_back(allocate_fields(*context_, v.kind, v.grid));
        args_.push_back(make_args(v.kind, v.grid, fields_.back()));
    }
    for (int t = 0; t < inputs.threads; t++) {
        streams_.push_back(&context_->create_stream());
        scratch_.push_back(context_->malloc(kScratchBytes));
        scratch_.push_back(context_->malloc(kScratchBytes));
        host_.emplace_back(kScratchBytes, 0);
    }
    // First launches compile; everything timed afterwards is warm.
    for (size_t v = 0; v < inputs.variants.size(); v++) {
        kernels_[inputs.variants[v].kind].launch_args(args_[v]);
    }
    for (int t = 0; t < inputs.threads; t++) {
        if (replay_launches > 0) {
            replay_graphs_.push_back(capture_timestep(t, replay_launches).instantiate());
        }
        if (production_launches > 0) {
            production_graphs_.push_back(capture_timestep(t, production_launches).instantiate());
        }
    }
}

WarmFixture::~WarmFixture() {
    replay_graphs_.clear();
    production_graphs_.clear();
    for (const auto& fields : fields_) {
        free_fields(*context_, fields);
    }
    free_fields(*context_, scratch_);
}

graph::LaunchGraph WarmFixture::capture_timestep(int thread, int launches) {
    const sim::DevicePtr a = scratch_[2 * thread];
    const sim::DevicePtr b = scratch_[2 * thread + 1];
    const std::vector<uint32_t>& sequence = inputs_.sequences[thread];
    graph::GraphCapture capture;
    graph::NodeId prev = capture.add_memset(a, 0, kScratchBytes);
    for (int j = 0; j < launches; j++) {
        const uint32_t v = sequence[static_cast<size_t>(j) % sequence.size()];
        prev = capture.add_launch(kernels_[inputs_.variants[v].kind], args_[v], {prev});
    }
    prev = capture.add_memcpy_dtod(b, a, kScratchBytes, {prev});
    capture.add_memcpy_dtoh(host_[thread].data(), b, kScratchBytes, {prev});
    return capture.finish();
}

sim::DevicePtr WarmFixture::scratch(int thread) const {
    return scratch_[2 * thread + 1];
}

const char* tier_name(int tier) {
    switch (tier) {
        case kCompile: return "compile";
        case kDisk: return "disk";
        case kNet: return "net";
        default: return "?";
    }
}

ColdEnv::ColdEnv(uint64_t seed, const std::string& dir):
    seed_(seed),
    dir_(dir),
    wisdom_dir_(::kl::path_join(dir, "wisdom")),
    disk_dir_(::kl::path_join(dir, "disk")) {
    ::kl::create_directories(wisdom_dir_);
    ::kl::create_directories(disk_dir_);
    server_ = std::make_unique<::kl::netwisdom::Server>(::kl::netwisdom::ServerOptions {});
    server_->start();
    address_ = "127.0.0.1:" + std::to_string(server_->port());

    // Pool sizes start at 256 along x; never-seen compile sizes stay below.
    Rng rng(hash_combine(seed, 0xc01d));
    constexpr int kPool = 12;
    for (int i = 0; i < 2 * kPool; i++) {
        Plan entry;
        entry.tier = i < kPool ? kDisk : kNet;
        entry.kind = i % kKindCount;
        entry.device = (i / kKindCount) % kDeviceCount;
        entry.grid = microhh::Grid(256 + 16 * i, static_cast<int>(rng.next_between(2, 8)) * 16,
                                   static_cast<int>(rng.next_between(1, 4)) * 16);
        (i < kPool ? disk_pool_ : net_pool_).push_back(entry);
    }

    // Wisdom: every third pool size exactly, the rest by nearest size. The
    // server holds the same records.
    std::vector<Plan> pool = disk_pool_;
    pool.insert(pool.end(), net_pool_.begin(), net_pool_.end());
    ::kl::netwisdom::Client client(::kl::netwisdom::Settings {address_});
    const core::WisdomSettings settings = core::WisdomSettings().wisdom_dir(wisdom_dir_);
    for (int kind = 0; kind < kKindCount; kind++) {
        const core::KernelDef def = make_def(kind);
        core::WisdomFile file(def.key());
        for (size_t i = 0; i < pool.size(); i += 3) {
            if (pool[i].kind != kind) {
                continue;
            }
            const sim::DeviceProperties& device =
                sim::DeviceRegistry::global().by_name(kDevices[pool[i].device]);
            core::WisdomRecord record = make_record(def, kind, device, pool[i].grid, rng);
            client.wisdom_put(def.key(), record.to_json());
            file.add(std::move(record), true);
        }
        file.save(settings.wisdom_path(def.key()));
    }

    // Fill the pools through the library itself: disk entries land in the
    // shared cache directory, net entries only on the server.
    for (int d = 0; d < kDeviceCount; d++) {
        auto context = sim::Context::create(kDevices[d], sim::ExecutionMode::TimingOnly);
        for (const Plan& entry : pool) {
            if (entry.device != d) {
                continue;
            }
            core::WisdomSettings fill = node_settings(entry.tier, disk_dir_);
            fill.lint_mode(core::LintMode::Off)
                .cache_mode(entry.tier == kNet ? ::kl::rtccache::Mode::Off : ::kl::rtccache::Mode::ReadWrite);
            core::WisdomKernel kernel(make_def(entry.kind), fill);
            const std::vector<sim::DevicePtr> fields = allocate_fields(*context, entry.kind, entry.grid);
            kernel.launch_args(make_args(entry.kind, entry.grid, fields));
            free_fields(*context, fields);
        }
    }
}

ColdEnv::~ColdEnv() {
    server_->stop();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
}

core::WisdomSettings ColdEnv::node_settings(Tier tier, const std::string& cache_dir) const {
    return core::WisdomSettings()
        .wisdom_dir(wisdom_dir_)
        .net_server(address_)
        .cache_mode(tier == kDisk ? ::kl::rtccache::Mode::Read : ::kl::rtccache::Mode::ReadWrite)
        .cache_dir(cache_dir);
}

ColdEnv::Plan ColdEnv::plan(uint64_t i) const {
    constexpr uint64_t kBlock = 20;
    std::vector<Tier> order;
    order.insert(order.end(), 5, kCompile);
    order.insert(order.end(), 9, kDisk);
    order.insert(order.end(), 6, kNet);
    Rng block_rng(hash_combine(seed_, 0xb10c000000ull + i / kBlock));
    block_rng.shuffle(order);
    const Tier tier = order[i % kBlock];

    Rng op_rng(hash_combine(seed_ ^ 0x0b5e55ull, i));
    if (tier == kDisk) {
        return disk_pool_[op_rng.next_below(disk_pool_.size())];
    }
    if (tier == kNet) {
        return net_pool_[op_rng.next_below(net_pool_.size())];
    }
    Plan plan;
    plan.tier = kCompile;
    plan.kind = static_cast<int>(op_rng.next_below(kKindCount));
    plan.device = static_cast<int>(op_rng.next_below(kDeviceCount));
    // A size no earlier op used: x below every pool size, unique per i.
    plan.grid = microhh::Grid(
        static_cast<int>(16 + i % 97),
        static_cast<int>(16 + (i / 97) % 89),
        static_cast<int>(8 + (i / (97 * 89)) % 50));
    return plan;
}

ColdEnv::Node::~Node() {
    if (context != nullptr) {
        free_fields(*context, fields);
    }
    kernel.reset();
    context.reset();
    if (private_dir) {
        std::error_code ignored;
        std::filesystem::remove_all(cache_dir, ignored);
    }
}

std::unique_ptr<ColdEnv::Node> ColdEnv::make_node(uint64_t i) {
    auto node = std::make_unique<Node>();
    node->plan = plan(i);
    node->index = i;
    node->private_dir = node->plan.tier != kDisk;
    node->cache_dir = node->private_dir ? ::kl::path_join(dir_, "node-" + std::to_string(i)) : disk_dir_;
    {
        ScopedSpan span("cudasim.context_create");
        node->context = sim::Context::create(kDevices[node->plan.device], sim::ExecutionMode::TimingOnly);
    }
    {
        // Registration lint (~10 ms, timed by its own probe) would leave
        // the loop few first launches to measure, so nodes register without it.
        ScopedSpan span("core.register");
        core::WisdomSettings settings = node_settings(node->plan.tier, node->cache_dir);
        settings.lint_mode(core::LintMode::Off);
        node->kernel = std::make_unique<core::WisdomKernel>(make_def(node->plan.kind), settings);
    }
    node->fields = allocate_fields(*node->context, node->plan.kind, node->plan.grid);
    node->args = make_args(node->plan.kind, node->plan.grid, node->fields);
    return node;
}

ColdEnv::Outcome ColdEnv::first_launch(Node& node) {
    Outcome out;
    out.tier = node.plan.tier;
    {
        ScopedSpan span("cold.op");
        span.set_tag(node.plan.tier);
        node.kernel->launch_args(node.args);
    }
    out.sim = node.kernel->last_cold_overhead();
    out.stats = node.kernel->stats();
    const core::WisdomKernel::Stats& s = out.stats;
    const bool served = out.tier == kDisk ? s.disk_hits == 1
        : out.tier == kNet                ? s.net_hits == 1 && s.disk_hits == 0
                                          : s.disk_hits == 0 && s.net_hits == 0 && s.net_misses == 1;
    if (!served || s.cold_launches != 1) {
        throw std::runtime_error(
            "cold op " + std::to_string(node.index) + ": planned tier " + tier_name(out.tier)
            + " but disk_hits=" + std::to_string(s.disk_hits) + " net_hits="
            + std::to_string(s.net_hits) + " net_misses=" + std::to_string(s.net_misses));
    }
    return out;
}

}  // namespace perfbench
