/**
 * @file
 * Run a real RISC-V program on the Assassyn-described 5-stage CPU and
 * on the out-of-order variant, and compare against the functional ISS —
 * the paper's progressive CPU case study (Sec. 7, Q6) in miniature.
 *
 *   build/examples/cpu_demo [workload]       (default: towers)
 */
#include <cstdio>
#include <string>

#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "sim/simulator.h"

using namespace assassyn;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "towers";
    const isa::Workload &wl = isa::workload(name);
    auto image = isa::buildMemoryImage(wl);

    // Golden functional run.
    isa::Iss iss(image);
    isa::IssStats golden = iss.run();
    std::printf("workload %s: %llu instructions, %llu branches "
                "(%.1f%% taken)\n",
                name.c_str(), (unsigned long long)golden.retired,
                (unsigned long long)golden.branches,
                100.0 * double(golden.branches_taken) /
                    double(golden.branches));

    auto report = [&](const char *label, uint64_t cycles, uint64_t retired,
                      bool verified) {
        std::printf("%-22s %8llu cycles  IPC %.3f  memory check %s\n",
                    label, (unsigned long long)cycles,
                    double(retired) / double(cycles),
                    verified ? "PASS" : "FAIL");
    };

    for (int policy = 0; policy < 3; ++policy) {
        static const char *names[] = {"in-order (base)", "in-order (bp.f)",
                                      "in-order (bp.t)"};
        auto cpu = designs::buildCpu(
            static_cast<designs::BranchPolicy>(policy), image);
        sim::Simulator s(*cpu.sys);
        s.run(10'000'000);
        std::vector<uint32_t> mem(image.size());
        for (size_t i = 0; i < mem.size(); ++i)
            mem[i] = uint32_t(s.readArray(cpu.mem, i));
        report(names[policy], s.cycle(), s.readArray(cpu.retired, 0),
               wl.verify(mem));
    }
    {
        auto ooo = designs::buildOoo(image);
        sim::Simulator s(*ooo.sys);
        s.run(10'000'000);
        std::vector<uint32_t> mem(image.size());
        for (size_t i = 0; i < mem.size(); ++i)
            mem[i] = uint32_t(s.readArray(ooo.mem, i));
        report("out-of-order (bp.t)", s.cycle(),
               s.readArray(ooo.retired, 0), wl.verify(mem));
        std::printf("  ooo profile: dispatched %llu, mispredicts %llu, "
                    "issue idle %llu cycles\n",
                    (unsigned long long)s.readArray(ooo.dispatched, 0),
                    (unsigned long long)s.readArray(ooo.br_mispred, 0),
                    (unsigned long long)s.readArray(ooo.issue_idle, 0));
    }
    return 0;
}
