/**
 * @file
 * Integration tests for the 5-stage CPU: architectural correctness
 * against the functional ISS on every Sodor workload, for every branch
 * policy, plus pipeline-behaviour checks (IPC bounds, variant ordering)
 * and sim-vs-RTL alignment of the whole core.
 */
#include <gtest/gtest.h>

#include "designs/cpu.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using designs::BranchPolicy;
using designs::CpuDesign;
using designs::buildCpu;

struct CpuRun {
    uint64_t cycles = 0;
    uint64_t retired = 0;
    uint64_t br_total = 0;
    uint64_t br_taken = 0;
    uint64_t br_mispred = 0;
    double ipc = 0;
};

CpuRun
runCpu(const CpuDesign &cpu, sim::Simulator &s, uint64_t max_cycles = 2000000)
{
    s.run(max_cycles);
    if (!s.finished())
        fatal("CPU did not halt within ", max_cycles, " cycles");
    CpuRun r;
    r.cycles = s.cycle();
    r.retired = s.readArray(cpu.retired, 0);
    r.br_total = s.readArray(cpu.br_total, 0);
    r.br_taken = s.readArray(cpu.br_taken, 0);
    r.br_mispred = s.readArray(cpu.br_mispred, 0);
    r.ipc = double(r.retired) / double(r.cycles);
    return r;
}

class CpuWorkloadTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CpuWorkloadTest, MatchesIssArchitecturally)
{
    const auto &[name, policy_int] = GetParam();
    auto policy = static_cast<BranchPolicy>(policy_int);
    const isa::Workload &wl = isa::workload(name);
    auto image = isa::buildMemoryImage(wl);

    // Golden run.
    isa::Iss iss(image);
    isa::IssStats golden = iss.run();

    // Pipeline run.
    CpuDesign cpu = buildCpu(policy, image);
    sim::Simulator s(*cpu.sys);
    CpuRun r = runCpu(cpu, s);

    // Retired instruction count must match the ISS exactly.
    EXPECT_EQ(r.retired, golden.retired) << name;
    EXPECT_EQ(r.br_total, golden.branches) << name;
    EXPECT_EQ(r.br_taken, golden.branches_taken) << name;

    // Registers must match (x0..x31).
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(s.readArray(cpu.rf, i), iss.reg(i)) << name << " x" << i;

    // Final memory must verify against the workload's golden model.
    std::vector<uint32_t> memout(iss.memory().size());
    for (size_t i = 0; i < memout.size(); ++i)
        memout[i] = uint32_t(s.readArray(cpu.mem, i));
    EXPECT_TRUE(wl.verify(memout)) << name << " memory mismatch";

    // Sanity: a single-issue pipeline cannot exceed IPC 1.
    EXPECT_LE(r.ipc, 1.0) << name;
    EXPECT_GT(r.ipc, 0.2) << name;
}

std::string
cpuCaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, int>> &info)
{
    static const char *policies[] = {"base", "bpf", "bpt"};
    return std::get<0>(info.param) + "_" + policies[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CpuWorkloadTest,
    ::testing::Combine(::testing::Values("vvadd", "median", "multiply",
                                         "qsort", "rsort", "towers"),
                       ::testing::Values(0, 1, 2)),
    cpuCaseName);

TEST(CpuVariantTest, BranchPredictionImprovesIpc)
{
    // bp.t must beat base on every workload; bp.f must be between them
    // or equal (Fig. 17a shape).
    for (const char *name : {"vvadd", "qsort", "towers"}) {
        const isa::Workload &wl = isa::workload(name);
        auto image = isa::buildMemoryImage(wl);
        CpuDesign base = buildCpu(BranchPolicy::kInterlock, image);
        CpuDesign bpf = buildCpu(BranchPolicy::kNotTaken, image);
        CpuDesign bpt = buildCpu(BranchPolicy::kTaken, image);
        sim::Simulator s0(*base.sys), s1(*bpf.sys), s2(*bpt.sys);
        CpuRun r0 = runCpu(base, s0);
        CpuRun r1 = runCpu(bpf, s1);
        CpuRun r2 = runCpu(bpt, s2);
        EXPECT_GT(r2.ipc, r0.ipc) << name;
        EXPECT_GE(r1.ipc, r0.ipc) << name;
        EXPECT_GE(r2.ipc, r1.ipc) << name; // taken-heavy loop branches
    }
}

TEST(CpuVariantTest, AlwaysTakenSuccessRateMatchesIss)
{
    // The Q6 success-rate table: success of always-taken = taken/total.
    const isa::Workload &wl = isa::workload("towers");
    auto image = isa::buildMemoryImage(wl);
    isa::Iss iss(image);
    isa::IssStats golden = iss.run();
    CpuDesign cpu = buildCpu(BranchPolicy::kTaken, image);
    sim::Simulator s(*cpu.sys);
    CpuRun r = runCpu(cpu, s);
    double rate_cpu = double(r.br_taken) / double(r.br_total);
    double rate_iss =
        double(golden.branches_taken) / double(golden.branches);
    EXPECT_NEAR(rate_cpu, rate_iss, 1e-12);
}

TEST(CpuAlignmentTest, WholeCoreAlignsWithRtl)
{
    // Q5: the event-driven simulator and the RTL netlist simulator agree
    // cycle-for-cycle on an entire CPU running a real program.
    const isa::Workload &wl = isa::workload("towers");
    auto image = isa::buildMemoryImage(wl);
    CpuDesign cpu = buildCpu(BranchPolicy::kTaken, image);

    sim::Simulator esim(*cpu.sys);
    esim.run(2000000);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(*cpu.sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(2000000);
    ASSERT_TRUE(rsim.finished());

    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.readArray(cpu.retired, 0), rsim.readArray(cpu.retired, 0));
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(esim.readArray(cpu.rf, i), rsim.readArray(cpu.rf, i));
    for (size_t i = 0x1000 / 4; i < 0x1100 / 4; ++i)
        EXPECT_EQ(esim.readArray(cpu.mem, i), rsim.readArray(cpu.mem, i));
}

TEST(CpuVariantTest, InterlockedDatapathCorrectButSlower)
{
    // The no-bypass ablation: still architecturally exact, markedly
    // lower IPC (decode interlocks until writeback).
    const isa::Workload &wl = isa::workload("towers");
    auto image = isa::buildMemoryImage(wl);
    isa::Iss iss(image);
    uint64_t golden = iss.run().retired;

    CpuDesign with = buildCpu(BranchPolicy::kTaken, image);
    CpuDesign without = buildCpu(BranchPolicy::kTaken, image, false);
    sim::Simulator s1(*with.sys), s0(*without.sys);
    CpuRun r1 = runCpu(with, s1);
    CpuRun r0 = runCpu(without, s0);
    EXPECT_EQ(r0.retired, golden);
    std::vector<uint32_t> mem(image.size());
    for (size_t i = 0; i < mem.size(); ++i)
        mem[i] = uint32_t(s0.readArray(without.mem, i));
    EXPECT_TRUE(wl.verify(mem));
    EXPECT_GT(r1.ipc, 1.25 * r0.ipc);
}

TEST(CpuStatsTest, MispredictsOnlyWithSpeculation)
{
    const isa::Workload &wl = isa::workload("vvadd");
    auto image = isa::buildMemoryImage(wl);
    // base: every control transfer "redirects" (resume-from-stall).
    CpuDesign base = buildCpu(BranchPolicy::kInterlock, image);
    sim::Simulator s0(*base.sys);
    CpuRun r0 = runCpu(base, s0);
    EXPECT_GT(r0.br_mispred, 0u);
    // bp.t on vvadd: only the loop exit mispredicts per loop.
    CpuDesign bpt = buildCpu(BranchPolicy::kTaken, image);
    sim::Simulator s2(*bpt.sys);
    CpuRun r2 = runCpu(bpt, s2);
    EXPECT_LT(r2.br_mispred, r0.br_mispred);
}

} // namespace
} // namespace assassyn
