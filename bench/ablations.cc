/**
 * @file
 * Ablations for the design choices DESIGN.md calls out:
 *  - FIFO depth (Sec. 3.9): stage-buffer area vs depth, and the depth-1
 *    fallback to a plain stage register;
 *  - arbiter policy (Sec. 4.2): round-robin vs priority under sustained
 *    two-way contention;
 *  - randomized stage order (Sec. 5.1): result invariance and the cost
 *    of the shuffle.
 */
#include "bench/common.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/cpu.h"
#include "isa/workloads.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;
using namespace assassyn::dsl;

std::unique_ptr<System>
depthProbe(unsigned depth)
{
    SysBuilder sb("depth_probe");
    Stage sink = sb.stage("sink", {{"x", uintType(32)}});
    sink.fifoDepth("x", depth);
    Stage d = sb.driver();
    Reg out = sb.reg("out", uintType(32));
    Reg n = sb.reg("n", uintType(32));
    {
        StageScope scope(sink);
        out.write(sink.arg("x"));
    }
    {
        StageScope scope(d);
        Val v = n.read();
        n.write(v + 1);
        asyncCall(sink, {v});
        when(v == 64, [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

std::unique_ptr<System>
arbiterProbe(bool round_robin, RegArray **grants_a, RegArray **grants_b)
{
    SysBuilder sb("arb_probe");
    Stage sink = sb.stage("sink", {{"who", uintType(1)}});
    if (round_robin)
        sink.roundRobinArbiter();
    else
        sink.priorityArbiter({"a", "b"});
    Stage a = sb.stage("a");
    Stage b = sb.stage("b");
    Stage d = sb.driver();
    Reg ga = sb.reg("grants_a", uintType(32));
    Reg gb = sb.reg("grants_b", uintType(32));
    Reg n = sb.reg("n", uintType(32));
    {
        StageScope scope(sink);
        Val who = sink.arg("who");
        when(who == 0, [&] { ga.write(ga.read() + 1); });
        when(who == 1, [&] { gb.write(gb.read() + 1); });
    }
    {
        StageScope scope(a);
        asyncCall(sink, {lit(0, 1)});
    }
    {
        StageScope scope(b);
        asyncCall(sink, {lit(1, 1)});
    }
    {
        StageScope scope(d);
        Val v = n.read();
        n.write(v + 1);
        // Sustained two-way contention: both callers fire every other
        // cycle so the arbiter sees simultaneous requests.
        when((v.bit(0) == 0) & (v < 64), [&] {
            asyncCall(a, {});
            asyncCall(b, {});
        });
        when(v == 220, [&] { finish(); });
    }
    compile(sb.sys());
    *grants_a = sb.sys().array("grants_a");
    *grants_b = sb.sys().array("grants_b");
    return sb.take();
}

void
printTable()
{
    std::printf("=== Ablation: FIFO depth vs stage-buffer area "
                "(Sec. 3.9) ===\n");
    std::printf("%-8s %12s %12s\n", "depth", "fifo um^2", "cycles");
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
        auto sys = depthProbe(depth);
        auto rep = areaOf(*sys);
        uint64_t cycles = cyclesOf(*sys);
        std::printf("%-8u %12.1f %12llu\n", depth, rep.fifo,
                    (unsigned long long)cycles);
    }

    std::printf("\n=== Ablation: arbiter policy under contention "
                "(Sec. 4.2) ===\n");
    std::printf("%-12s %10s %10s\n", "policy", "grants(a)", "grants(b)");
    for (bool rr : {true, false}) {
        RegArray *ga = nullptr, *gb = nullptr;
        auto sys = arbiterProbe(rr, &ga, &gb);
        sim::Simulator s(*sys);
        s.run(1000);
        std::printf("%-12s %10llu %10llu\n",
                    rr ? "round-robin" : "priority(a>b)",
                    (unsigned long long)s.readArray(ga, 0),
                    (unsigned long long)s.readArray(gb, 0));
    }
    std::printf("(both policies drain all requests; fairness differs "
                "only in grant order)\n");

    std::printf("\n=== Ablation: the bypass network's worth ===\n");
    std::printf("(cross-stage combinational references ARE the bypass "
                "network; removing them\n interlocks decode until "
                "writeback -- Sec. 3.4's expressiveness, quantified)\n");
    std::printf("%-10s %10s %12s %9s\n", "workload", "bypassed",
                "interlocked", "speedup");
    for (const char *name : {"vvadd", "qsort", "towers"}) {
        auto wl_image = isa::buildMemoryImage(isa::workload(name));
        auto with_cpu =
            designs::buildCpu(designs::BranchPolicy::kTaken, wl_image);
        auto without_cpu = designs::buildCpu(designs::BranchPolicy::kTaken,
                                             wl_image, /*bypass=*/false);
        uint64_t with_c = cyclesOf(*with_cpu.sys);
        uint64_t without_c = cyclesOf(*without_cpu.sys);
        std::printf("%-10s %10llu %12llu %8.2fx\n", name,
                    (unsigned long long)with_c,
                    (unsigned long long)without_c,
                    double(without_c) / double(with_c));
    }

    std::printf("\n=== Ablation: randomized stage order (Sec. 5.1) ===\n");
    auto image = isa::buildMemoryImage(isa::workload("towers"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    TimedRun ordered = runEventSim(*cpu.sys);
    uint64_t retired_ref = 0;
    {
        sim::Simulator s(*cpu.sys);
        s.run(5000000);
        retired_ref = s.readArray(cpu.retired, 0);
    }
    std::printf("%-14s %10s %12s %10s\n", "mode", "cycles", "retired",
                "kcyc/s");
    std::printf("%-14s %10llu %12llu %10.0f\n", "topo order",
                (unsigned long long)ordered.cycles,
                (unsigned long long)retired_ref, ordered.kcps());
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.shuffle = true;
        opts.shuffle_seed = seed;
        auto t0 = std::chrono::steady_clock::now();
        sim::Simulator s(*cpu.sys, opts);
        s.run(5000000);
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        uint64_t retired = s.readArray(cpu.retired, 0);
        if (s.cycle() != ordered.cycles || retired != retired_ref)
            fatal("shuffle changed results: the randomization must be "
                  "observationally invariant");
        std::printf("shuffle(%llu)  %10llu %12llu %10.0f\n",
                    (unsigned long long)seed,
                    (unsigned long long)s.cycle(),
                    (unsigned long long)retired,
                    double(s.cycle()) / secs / 1e3);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectLeftoverArgs(argc, argv, "");
    printTable();
    return 0;
}
