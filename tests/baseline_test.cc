/**
 * @file
 * Unit tests for the baseline substrates: the generic event queue
 * (Fig. 2b style) and the gem5-like CPU timing model, including the
 * deliberately reproduced misalignments of paper Q5.
 */
#include <gtest/gtest.h>

#include "baseline/eventsim.h"
#include "baseline/gem5like.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using baseline::EventQueue;
using baseline::Gem5LikeCpu;

TEST(EventQueueTest, OrdersByTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(5); });
    eq.schedule(1, [&] { order.push_back(1); });
    eq.schedule(3, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
}

TEST(EventQueueTest, StableAtEqualTimes)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(7, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(EventQueueTest, HandlersCanReschedule)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> tick = [&] {
        ++fired;
        if (fired < 10)
            eq.scheduleIn(2, tick);
    };
    eq.schedule(0, tick);
    uint64_t last = eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(last, 18u);
}

TEST(EventQueueTest, HorizonStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

class Gem5WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Gem5WorkloadTest, FunctionallyCorrectAndIpcPlausible)
{
    const isa::Workload &wl = isa::workload(GetParam());
    Gem5LikeCpu cpu(isa::buildMemoryImage(wl));
    auto r = cpu.run();
    EXPECT_TRUE(wl.verify(cpu.memory())) << wl.name;
    EXPECT_GT(r.ipc, 0.3);
    EXPECT_LE(r.ipc, 1.0);
    // Same dynamic instruction count as the golden ISS.
    isa::Iss iss(isa::buildMemoryImage(wl));
    EXPECT_EQ(r.instructions, iss.run().retired);
}

INSTANTIATE_TEST_SUITE_P(Sodor, Gem5WorkloadTest,
                         ::testing::Values("vvadd", "median", "multiply",
                                           "qsort", "rsort", "towers"),
                         [](const auto &info) { return info.param; });

TEST(Gem5MisalignmentTest, NeverMatchesRtlCyclesExactly)
{
    // The paper's point: gem5's mean IPC looks right but per-workload
    // cycles never line up with the RTL, while the Assassyn-generated
    // simulator matches it exactly (tested elsewhere). Check that the
    // gem5-like model diverges from the cycle-exact CPU on at least
    // some workloads in *both* directions.
    int faster = 0, slower = 0;
    for (const char *name :
         {"vvadd", "median", "multiply", "qsort", "rsort", "towers"}) {
        const isa::Workload &wl = isa::workload(name);
        auto image = isa::buildMemoryImage(wl);
        Gem5LikeCpu gem5(image);
        auto g = gem5.run();

        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
        sim::Simulator s(*cpu.sys);
        s.run(5000000);
        ASSERT_TRUE(s.finished());
        uint64_t rtl_cycles = s.cycle();

        if (g.cycles < rtl_cycles)
            ++faster;
        if (g.cycles > rtl_cycles)
            ++slower;
    }
    EXPECT_GT(faster, 0); // same-cycle branch visibility wins somewhere
    EXPECT_GT(slower, 0); // the missed WB bypass loses somewhere
}

} // namespace
} // namespace assassyn
