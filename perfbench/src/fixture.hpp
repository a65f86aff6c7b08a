#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "cudasim/context.hpp"
#include "graph/graph.hpp"
#include "microhh/definitions.hpp"
#include "microhh/grid.hpp"
#include "netwisdom/server.hpp"
#include "util/rng.hpp"

#include "harness.hpp"

namespace perfbench {

namespace core = ::kl::core;
namespace sim = ::kl::sim;
namespace graph = ::kl::graph;
namespace microhh = ::kl::microhh;

/// The two devices every warm workload alternates between.
inline const char* const kDevices[] = {"NVIDIA A100-PCIE-40GB", "NVIDIA RTX A4000"};
inline constexpr int kDeviceCount = 2;

/// A kernel variant: one of the paper's two MicroHH kernels at one precision.
struct Kind {
    const char* kernel;
    microhh::Precision precision;
};
inline constexpr Kind kKinds[] = {
    {"advec_u", microhh::Precision::Float32},
    {"advec_u", microhh::Precision::Float64},
    {"diff_uvw", microhh::Precision::Float32},
    {"diff_uvw", microhh::Precision::Float64},
};
inline constexpr int kKindCount = 4;

core::KernelDef make_def(int kind);
/// Device fields a kind takes: (ut, u) or (ut, vt, wt, u, v, w).
int field_count(int kind);
/// Launch arguments of `kind` on `grid` over the given device fields.
std::vector<core::KernelArg> make_args(
    int kind,
    const microhh::Grid& grid,
    const std::vector<sim::DevicePtr>& fields);

/// One warm-workload input: a kind at one grid size.
struct Variant {
    int kind = 0;
    microhh::Grid grid;
    bool exact_wisdom = false;  ///< wisdom holds this size; otherwise nearest
};

/// Ops draw variants from a fixed cyclic sequence per thread.
inline constexpr size_t kSequenceLength = 4096;

/// Everything the warm workloads derive from the seed.
struct Inputs {
    uint64_t seed = 0;
    int threads = 1;
    std::vector<Variant> variants;  ///< Zipf rank order: 0 is drawn most
    std::vector<std::vector<uint32_t>> sequences;  ///< per thread: variant per op
    std::vector<std::vector<uint32_t>> scratch_bytes;  ///< per thread: allocation size per op
    std::vector<std::vector<uint32_t>> dtoh_bytes;     ///< per thread: readback size per op

    static Inputs make(uint64_t seed, int threads);
};

/// Writes one wisdom file per kind into `dir`: on each device, one record
/// per variant of that kind, at its size when `exact_wisdom` and at a
/// nearby size otherwise. Record configurations are drawn from the seed
/// and checked to compile and launch on the device. Returns the configs
/// of the exact records, by (device index, variant index).
std::map<std::pair<int, size_t>, core::Config> write_wisdom(
    const Inputs& inputs,
    const std::string& dir);

/// The four registered kernels, one per kind, reading wisdom from `dir`.
struct Kernels {
    explicit Kernels(const core::WisdomSettings& settings);
    core::WisdomKernel& operator[](int kind) {
        return *by_kind[kind];
    }
    core::WisdomKernel::Stats total_stats() const;

    std::vector<std::unique_ptr<core::WisdomKernel>> by_kind;
};

/// One simulated device with every variant's fields allocated and warm,
/// plus the per-thread streams and timestep graphs of the graph workloads.
/// Its context is the current one from construction until destruction,
/// so fixtures must be destroyed in reverse order of construction.
class WarmFixture {
  public:
    WarmFixture(
        const Inputs& inputs,
        Kernels& kernels,
        const char* device,
        int replay_launches,
        int production_launches);
    ~WarmFixture();
    WarmFixture(const WarmFixture&) = delete;
    WarmFixture& operator=(const WarmFixture&) = delete;

    sim::Context& context() {
        return *context_;
    }
    const std::vector<core::KernelArg>& args(size_t variant) const {
        return args_[variant];
    }
    sim::Stream& stream(int thread) {
        return *streams_[thread];
    }
    graph::GraphExec& replay_graph(int thread) {
        return replay_graphs_[thread];
    }
    graph::GraphExec& production_graph(int thread) {
        return production_graphs_[thread];
    }
    /// Device buffer the thread's timestep graph copies into last.
    sim::DevicePtr scratch(int thread) const;
    void* host_buffer(int thread) {
        return host_[thread].data();
    }

    /// Records the timestep graph of `thread`: a memset, a dependency
    /// chain of `launches` launches over the thread's variant sequence,
    /// then a device-to-device and a device-to-host copy.
    graph::LaunchGraph capture_timestep(int thread, int launches);

  private:
    const Inputs& inputs_;
    Kernels& kernels_;
    std::unique_ptr<sim::Context> context_;
    std::vector<std::vector<sim::DevicePtr>> fields_;
    std::vector<std::vector<core::KernelArg>> args_;
    std::vector<sim::Stream*> streams_;
    std::vector<sim::DevicePtr> scratch_;
    std::vector<std::vector<uint8_t>> host_;
    std::vector<graph::GraphExec> replay_graphs_;
    std::vector<graph::GraphExec> production_graphs_;
};

inline constexpr uint32_t kScratchBytes = 4096;

/// Tiers a first launch can be served from.
enum Tier : int32_t { kCompile = 0, kDisk = 1, kNet = 2 };
const char* tier_name(int tier);

/// A fleet of simulated nodes sharing a wisdom server on loopback: the
/// cold-start environment. Each op creates a fresh node (context plus
/// WisdomKernel) and launches one instance for the first time.
class ColdEnv {
  public:
    /// Starts the server and fills the disk and network pools under `dir`.
    ColdEnv(uint64_t seed, const std::string& dir);
    ~ColdEnv();
    ColdEnv(const ColdEnv&) = delete;
    ColdEnv& operator=(const ColdEnv&) = delete;

    struct Plan {
        Tier tier = kCompile;
        int kind = 0;
        int device = 0;
        microhh::Grid grid;
    };
    /// Op `i`: every block of 20 ops holds 5 compiles, 9 disk hits and 6
    /// net hits in a seeded order; compile ops use never-seen grid sizes.
    Plan plan(uint64_t i) const;

    struct Outcome {
        Tier tier = kCompile;
        core::OverheadBreakdown sim;
        core::WisdomKernel::Stats stats;
    };

    /// A fresh node for op `i`: a new context and a newly registered
    /// WisdomKernel with its argument buffers. Destroying it tears the
    /// node down and removes its private cache directory.
    class Node {
      public:
        ~Node();
        Plan plan;
        uint64_t index = 0;
        std::string cache_dir;
        bool private_dir = false;
        std::unique_ptr<sim::Context> context;
        std::unique_ptr<core::WisdomKernel> kernel;
        std::vector<sim::DevicePtr> fields;
        std::vector<core::KernelArg> args;
    };
    std::unique_ptr<Node> make_node(uint64_t i);

    /// The op: the node's first launch. Throws when the instance was not
    /// served by the planned tier.
    Outcome first_launch(Node& node);

    const std::string& server_address() const {
        return address_;
    }
    const std::string& wisdom_dir() const {
        return wisdom_dir_;
    }
    const std::string& disk_dir() const {
        return disk_dir_;
    }
    const std::string& dir() const {
        return dir_;
    }
    core::WisdomSettings node_settings(Tier tier, const std::string& cache_dir) const;
    /// Entries of the disk pool.
    const std::vector<Plan>& disk_pool() const {
        return disk_pool_;
    }

  private:
    uint64_t seed_;
    std::string dir_;
    std::string wisdom_dir_;
    std::string disk_dir_;
    std::unique_ptr<::kl::netwisdom::Server> server_;
    std::string address_;
    std::vector<Plan> disk_pool_;
    std::vector<Plan> net_pool_;
};

}  // namespace perfbench
