#pragma once

#include "fixture.hpp"
#include "harness.hpp"

namespace perfbench {

/// Launch nodes in the replay workload's timestep graph: enough that one
/// replay takes microseconds, far above the cost of timing it.
inline constexpr int kReplayLaunches = 512;
/// Launch nodes in the production timestep's graph (timed by the probes).
inline constexpr int kProductionLaunches = 32;

/// The warm ops. Each returns the kernel launches it completed; while the
/// recorder is on, every public call it makes is a child span of the op's
/// span.
struct WarmOps {
    const Inputs& inputs;
    Kernels& kernels;
    WarmFixture& fixture;

    uint32_t variant(int thread, uint64_t i) const {
        return inputs.sequences[thread][i % kSequenceLength];
    }

    /// One warm WisdomKernel launch on the default stream.
    uint64_t eager(int thread, uint64_t i) {
        ScopedSpan op("eager.op");
        const uint32_t v = variant(thread, i);
        ScopedSpan span("core.launch_args");
        kernels[inputs.variants[v].kind].launch_args(fixture.args(v));
        return 1;
    }

    /// One replay of the thread's timestep graph on its own stream.
    uint64_t replay(int thread, uint64_t) {
        ScopedSpan op("replay.op");
        ScopedSpan span("graph.replay");
        fixture.replay_graph(thread).replay(&fixture.stream(thread));
        return kReplayLaunches;
    }

    /// One application timestep: graph replay, an eager diagnostic launch,
    /// a stream-ordered scratch allocation and a small readback.
    uint64_t production(int thread, uint64_t i) {
        ScopedSpan op("production.op");
        sim::Context& context = fixture.context();
        sim::Stream& stream = fixture.stream(thread);
        {
            ScopedSpan span("graph.replay");
            fixture.production_graph(thread).replay(&stream);
        }
        const uint32_t v = variant(thread, i);
        {
            ScopedSpan span("core.launch_args");
            kernels[inputs.variants[v].kind].launch_args(fixture.args(v), &stream);
        }
        const size_t k = i % kSequenceLength;
        sim::DevicePtr scratch = 0;
        {
            ScopedSpan span("cudasim.alloc_async");
            scratch = context.memory().allocate_async(
                inputs.scratch_bytes[thread][k], stream, context.clock().now());
        }
        {
            ScopedSpan span("cudasim.free_async");
            context.memory().free_async(scratch, stream, context.clock().now());
        }
        {
            ScopedSpan span("cudasim.memcpy_dtoh");
            context.memcpy_dtoh(
                fixture.host_buffer(thread), fixture.scratch(thread), inputs.dtoh_bytes[thread][k]);
        }
        return kProductionLaunches + 1;
    }
};

}  // namespace perfbench
