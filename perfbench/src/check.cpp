// Correctness pass of every run, in Functional mode on a small grid.

#include <cstring>

#include "bench.hpp"
#include "core/device_buffer.hpp"
#include "fixture.hpp"
#include "microhh/reference.hpp"

namespace perfbench {

namespace {

template<typename T>
void check_kind(
    core::WisdomKernel& kernel,
    int kind,
    const microhh::Grid& grid,
    uint64_t seed,
    const std::string& wisdom_dir,
    RunOutcome& out) {
    sim::Context& context = sim::Context::current();
    const bool advec = field_count(kind) == 2;
    const std::string label = std::string(kKinds[kind].kernel) + "/"
        + microhh::precision_name(kKinds[kind].precision) + " on " + context.device().name;
    const T dxi = T(grid.itot), dyi = T(grid.jtot), dzi = T(grid.ktot), visc = T(0.01);

    microhh::Field3d<T> u(grid), v(grid), w(grid);
    u.fill_turbulent(seed + 1);
    v.fill_turbulent(seed + 2);
    w.fill_turbulent(seed + 3);
    microhh::Field3d<T> ref_ut(grid), ref_vt(grid), ref_wt(grid);
    if (advec) {
        microhh::advec_u_reference<T>(ref_ut, u, dxi, dyi, dzi);
    } else {
        microhh::diff_uvw_reference<T>(ref_ut, ref_vt, ref_wt, u, v, w, visc, dxi, dyi, dzi);
    }

    const auto cells = static_cast<size_t>(grid.ncells());
    core::DeviceArray<T> d_u(u.vec()), d_v(v.vec()), d_w(w.vec());
    core::DeviceArray<T> d_ut(cells), d_vt(cells), d_wt(cells);
    std::vector<core::DeviceArray<T>*> outputs {&d_ut};
    std::vector<const microhh::Field3d<T>*> references {&ref_ut};
    std::vector<sim::DevicePtr> fields {d_ut.ptr(), d_u.ptr()};
    if (!advec) {
        outputs = {&d_ut, &d_vt, &d_wt};
        references = {&ref_ut, &ref_vt, &ref_wt};
        fields = {d_ut.ptr(), d_vt.ptr(), d_wt.ptr(), d_u.ptr(), d_v.ptr(), d_w.ptr()};
    }
    const std::vector<core::KernelArg> args = make_args(kind, grid, fields);

    // Outputs are poisoned before each run so untouched points show.
    auto run = [&](auto&& launch) {
        for (core::DeviceArray<T>* o : outputs) {
            context.memset_d8(o->ptr(), 0xCD, o->byte_size());
        }
        launch();
        std::vector<std::vector<T>> result;
        for (core::DeviceArray<T>* o : outputs) {
            result.push_back(o->copy_to_host());
        }
        return result;
    };
    const auto eager = run([&] { kernel.launch_args(args); });
    const auto replayed = run([&] {
        graph::GraphCapture capture;
        capture.add_launch(kernel, args);
        capture.finish().instantiate().replay();
    });

    for (size_t o = 0; o < outputs.size(); o++) {
        out.attempted += 2;
        if (std::memcmp(eager[o].data(), replayed[o].data(), cells * sizeof(T)) != 0) {
            out.fail(label + ": eager and replay output " + std::to_string(o) + " differ");
        }
        bool matches = true;
        for (int k = 0; k < grid.ktot && matches; k++) {
            for (int j = 0; j < grid.jtot && matches; j++) {
                for (int i = 0; i < grid.itot && matches; i++) {
                    const auto at = static_cast<size_t>(grid.index(i, j, k));
                    matches = std::memcmp(&eager[o][at], &references[o]->vec()[at], sizeof(T)) == 0;
                }
            }
        }
        if (!matches) {
            out.fail(label + ": output " + std::to_string(o) + " differs from microhh::reference");
        }
    }

    out.attempted++;
    const core::KernelDef& def = kernel.def();
    const core::WisdomFile wisdom = core::WisdomFile::load(
        core::WisdomSettings().wisdom_dir(wisdom_dir).wisdom_path(def.key()), def.key());
    const core::WisdomFile::Selection selection = wisdom.select(
        context.device().name,
        context.device().architecture,
        core::ProblemSize(grid.itot, grid.jtot, grid.ktot));
    const core::Config want =
        selection.record != nullptr ? selection.record->config : def.space.default_config();
    const core::Config got = kernel.bake_launch(args).config;
    if (!(got == want)) {
        out.fail(label + ": launched config " + got.to_string() + ", wisdom selects " + want.to_string());
    }
}

}  // namespace

void check_functional(uint64_t seed, const std::string& wisdom_dir, RunOutcome& out) {
    ::kl::Rng rng(::kl::hash_combine(seed, 0xc4ec));
    // Odd extents exercise every tiling's bounds checks.
    const microhh::Grid grid(
        static_cast<int>(rng.next_between(9, 27)),
        static_cast<int>(rng.next_between(7, 17)),
        static_cast<int>(rng.next_between(3, 9)));
    for (int d = 0; d < kDeviceCount; d++) {
        auto context = sim::Context::create(kDevices[d], sim::ExecutionMode::Functional);
        Kernels kernels(core::WisdomSettings().wisdom_dir(wisdom_dir).lint_mode(core::LintMode::Off));
        for (int kind = 0; kind < kKindCount; kind++) {
            if (kKinds[kind].precision == microhh::Precision::Float32) {
                check_kind<float>(kernels[kind], kind, grid, seed, wisdom_dir, out);
            } else {
                check_kind<double>(kernels[kind], kind, grid, seed, wisdom_dir, out);
            }
        }
    }
}

}  // namespace perfbench
