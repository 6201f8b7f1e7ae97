/**
 * @file
 * Depth coverage for corners the main suites do not reach: arbiter
 * fairness over time and 3-way contention, event-counter saturation,
 * Verilog emission for every flagship design, netlist determinism,
 * priority-queue overflow semantics, HLS division, printer forms, and
 * area-model scaling.
 */
#include <gtest/gtest.h>

#include "baseline/eventsim.h"
#include "baseline/hls.h"
#include "baseline/catalog.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "core/ir/printer.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "rtl/verilog.h"
#include "sim/simulator.h"
#include "synth/area.h"

namespace assassyn {
namespace {

using namespace dsl;

// ---- Arbiter depth ----------------------------------------------------------

struct ArbFixture {
    SysBuilder sb{"arb"};
    Stage sink, d;
    std::vector<Stage> callers;
    Arr grants; ///< grants[i] counts grants to caller i

    explicit ArbFixture(size_t n, ArbiterPolicy policy)
    {
        sink = sb.stage("sink", {{"who", uintType(4)}});
        if (policy == ArbiterPolicy::kPriority) {
            std::vector<std::string> order;
            for (size_t i = 0; i < n; ++i)
                order.push_back("c" + std::to_string(i));
            sink.priorityArbiter(order);
        } else {
            sink.roundRobinArbiter();
        }
        grants = sb.arr("grants", uintType(32), n);
        Reg cyc = sb.reg("cyc", uintType(32));
        for (size_t i = 0; i < n; ++i)
            callers.push_back(sb.stage("c" + std::to_string(i)));
        d = sb.driver();
        {
            StageScope scope(sink);
            Val who = sink.arg("who");
            grants.write(who.trunc(std::max(1u, log2ceil(n))),
                         grants.read(who.trunc(std::max(
                             1u, log2ceil(n)))) +
                             1);
        }
        for (size_t i = 0; i < n; ++i) {
            StageScope scope(callers[i]);
            asyncCall(sink, {lit(i, 4)});
        }
        {
            StageScope scope(d);
            Val v = cyc.read();
            cyc.write(v + 1);
            // Every caller requests every n-th cycle so the arbiter
            // always faces full contention but queues stay bounded.
            when((v % lit(n, 32) == 0) & (v < 60), [&] {
                for (size_t i = 0; i < n; ++i)
                    asyncCall(callers[i], {});
            });
            when(v == 200, [&] { finish(); });
        }
        compile(sb.sys());
    }
};

TEST(ArbiterDepthTest, RoundRobinIsFair)
{
    ArbFixture f(2, ArbiterPolicy::kRoundRobin);
    sim::Simulator s(f.sb.sys());
    s.run(300);
    ASSERT_TRUE(s.finished());
    uint64_t a = s.readArray(f.grants.array(), 0);
    uint64_t b = s.readArray(f.grants.array(), 1);
    EXPECT_EQ(a + b, 60u);
    // Round robin alternates: equal split under symmetric contention.
    EXPECT_EQ(a, b);
}

TEST(ArbiterDepthTest, ThreeWayContentionDrains)
{
    ArbFixture f(3, ArbiterPolicy::kRoundRobin);
    sim::Simulator s(f.sb.sys());
    s.run(300);
    ASSERT_TRUE(s.finished());
    uint64_t total = 0;
    for (size_t i = 0; i < 3; ++i)
        total += s.readArray(f.grants.array(), i);
    EXPECT_EQ(total, 60u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_GT(s.readArray(f.grants.array(), i), 10u) << i;
}

TEST(ArbiterDepthTest, PriorityThreeWayAligns)
{
    ArbFixture f(3, ArbiterPolicy::kPriority);
    sim::Simulator esim(f.sb.sys());
    esim.run(300);
    rtl::Netlist nl(f.sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(300);
    EXPECT_EQ(esim.cycle(), rsim.cycle());
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(esim.readArray(f.grants.array(), i),
                  rsim.readArray(f.grants.array(), i));
}

// ---- Event counter saturation ------------------------------------------------

TEST(EventCounterTest, OverflowIsAnError)
{
    SysBuilder sb("ovf");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 1024);
    Stage d = sb.driver();
    {
        StageScope scope(sink);
        waitUntil([&] { return litFalse(); }); // never executes
        sink.arg("x");
    }
    {
        StageScope scope(d);
        asyncCall(sink, {lit(1, 8)});
    }
    compile(sb.sys());
    sim::SimOptions opts;
    opts.max_pending_events = 16; // tighten the 8-bit default
    sim::Simulator s(sb.sys(), opts);
    sim::RunResult res = s.run(100);
    EXPECT_EQ(res.status, sim::RunStatus::kFault);
    EXPECT_NE(res.error.find("event counter overflow"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("pending events > bound 16"),
              std::string::npos)
        << res.error;
}

// ---- Verilog emission over the flagship designs --------------------------------

TEST(VerilogDesignsTest, EmitsForCpuAndOoo)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    for (bool ooo : {false, true}) {
        std::unique_ptr<System> sys;
        if (ooo)
            sys = designs::buildOoo(image).sys;
        else
            sys = designs::buildCpu(designs::BranchPolicy::kTaken, image)
                      .sys;
        rtl::Netlist nl(*sys);
        std::string sv = rtl::emitVerilog(nl);
        EXPECT_GT(sv.size(), 10000u);
        // Structural sanity: balanced module/endmodule, a blackboxed
        // memory, and the library templates.
        size_t mods = 0, ends = 0;
        for (size_t pos = 0;
             (pos = sv.find("\nmodule ", pos)) != std::string::npos; ++pos)
            ++mods;
        for (size_t pos = 0;
             (pos = sv.find("endmodule", pos)) != std::string::npos; ++pos)
            ++ends;
        EXPECT_EQ(mods, ends);
        EXPECT_NE(sv.find("(* blackbox_memory *)"), std::string::npos);
        EXPECT_NE(sv.find("assassyn_event_counter"), std::string::npos);
    }
}

TEST(NetlistTest, ElaborationIsDeterministic)
{
    auto build = [] {
        auto image = isa::buildMemoryImage(isa::workload("towers"));
        return designs::buildCpu(designs::BranchPolicy::kTaken, image).sys;
    };
    auto s1 = build();
    auto s2 = build();
    rtl::Netlist n1(*s1), n2(*s2);
    EXPECT_EQ(n1.cells().size(), n2.cells().size());
    EXPECT_EQ(n1.numNets(), n2.numNets());
    EXPECT_EQ(rtl::emitVerilog(n1), rtl::emitVerilog(n2));
}

// ---- Priority queue overflow ----------------------------------------------------

TEST(PqSemanticsTest, OverflowDropsLargest)
{
    // Push 9 values into an 8-slot ladder: the largest falls off the
    // end; popping returns the 8 smallest in order.
    std::vector<designs::PqOp> script;
    for (uint32_t v : {50u, 10u, 90u, 30u, 70u, 20u, 80u, 40u, 60u})
        script.push_back({designs::PqCmd::kPush, v});
    for (int i = 0; i < 8; ++i)
        script.push_back({designs::PqCmd::kPop, 0});
    auto design = designs::buildPriorityQueue(8, script);
    sim::Simulator s(*design.sys);
    s.run(100);
    ASSERT_TRUE(s.finished());
    std::vector<std::string> want;
    for (uint32_t v : {10u, 20u, 30u, 40u, 50u, 60u, 70u, 80u})
        want.push_back("pop " + std::to_string(v));
    EXPECT_EQ(s.logOutput(), want);
}

// ---- HLS division & modulo --------------------------------------------------------

TEST(HlsDepthTest, DivisionAndModulo)
{
    baseline::HlsBuilder hb("divmod");
    int a = hb.vreg(), b = hb.vreg(), q = hb.vreg(), r = hb.vreg(),
        addr = hb.vreg();
    hb.constant(a, 1234);
    hb.constant(b, 37);
    hb.bin(BinOpcode::kDiv, q, a, b);
    hb.bin(BinOpcode::kMod, r, a, b);
    hb.constant(addr, 0);
    hb.store(addr, q);
    hb.constant(addr, 1);
    hb.store(addr, r);
    hb.halt();
    auto design =
        baseline::generateHls(hb.finish(), std::vector<uint32_t>(4, 0));
    sim::Simulator s(*design.sys);
    s.run(10);
    ASSERT_TRUE(s.finished());
    EXPECT_EQ(s.readArray(design.mem, 0), 1234u / 37u);
    EXPECT_EQ(s.readArray(design.mem, 1), 1234u % 37u);
}

// ---- Printer forms pre-lowering ------------------------------------------------

TEST(PrinterDepthTest, RendersCallsAndBinds)
{
    SysBuilder sb("p");
    Stage callee = sb.stage("callee", {{"a", uintType(8)},
                                       {"b", uintType(8)}});
    Stage caller = sb.stage("caller");
    {
        StageScope scope(caller);
        BindHandle h = bind(callee, {{"a", lit(1, 8)}});
        asyncCall(h, {{"b", lit(2, 8)}});
    }
    std::string text = printSystem(sb.sys());
    EXPECT_NE(text.find("bind callee"), std::string::npos);
    EXPECT_NE(text.find("async_call"), std::string::npos);
    // After compiling, the printed form shows pushes and subscribes.
    compile(sb.sys());
    std::string lowered = printSystem(sb.sys());
    EXPECT_NE(lowered.find("fifo.push"), std::string::npos);
    EXPECT_NE(lowered.find("subscribe callee"), std::string::npos);
    EXPECT_EQ(lowered.find("async_call"), std::string::npos);
}

// ---- Area model scaling -----------------------------------------------------------

TEST(AreaDepthTest, WidthScalesAdderArea)
{
    auto build = [](unsigned bits) {
        SysBuilder sb("w");
        Stage d = sb.driver();
        Reg a = sb.reg("a", uintType(bits));
        Reg b = sb.reg("b", uintType(bits));
        {
            StageScope scope(d);
            a.write(a.read() + b.read());
        }
        compile(sb.sys());
        return sb.take();
    };
    auto s8 = build(8);
    auto s64 = build(64);
    rtl::Netlist n8(*s8), n64(*s64);
    double a8 = synth::estimateArea(n8).total();
    double a64 = synth::estimateArea(n64).total();
    EXPECT_GT(a64, 4.0 * a8);
}

TEST(AreaDepthTest, ConfigScalesLinearly)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    rtl::Netlist nl(*cpu.sys);
    synth::AreaConfig base_cfg;
    synth::AreaConfig doubled = base_cfg;
    doubled.um2_per_ge *= 2.0;
    double a1 = synth::estimateArea(nl, base_cfg).total();
    double a2 = synth::estimateArea(nl, doubled).total();
    EXPECT_NEAR(a2, 2.0 * a1, 1e-6 * a2);
}

// ---- Cross-stage bind handles end to end (the Fig. 5 pattern) ----------------

TEST(BindHandleTest, ExposedBindRunsAndAligns)
{
    // producer binds one port of a two-port sink and exposes the handle;
    // a separate caller invokes the handle with the other argument —
    // the paper's systolic construction, exercised at runtime.
    SysBuilder sb("xbind");
    Stage sink = sb.stage("sink", {{"n", uintType(16)},
                                   {"w", uintType(16)}});
    Stage producer = sb.stage("producer");
    Stage caller = sb.stage("caller");
    Stage d = sb.driver();
    Reg acc = sb.reg("acc", uintType(32));
    Reg cyc = sb.reg("cyc", uintType(8));
    {
        StageScope scope(sink);
        acc.write(acc.read() + sink.arg("n") * sink.arg("w"));
    }
    {
        StageScope scope(producer);
        Val t = cyc.read();
        BindHandle h = bind(sink, {{"n", (t + 1).zext(16)}});
        expose("h", h);
    }
    {
        StageScope scope(caller);
        Val t = cyc.read();
        BindHandle h = producer.exposedBind("h");
        asyncCall(h, {{"w", (t + 2).zext(16)}});
    }
    {
        StageScope scope(d);
        Val t = cyc.read();
        cyc.write(t + 1);
        when(t < 5, [&] {
            asyncCall(producer, {});
            asyncCall(caller, {});
        });
        when(t == 12, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(50);
    ASSERT_TRUE(esim.finished());
    // producer and caller both fire at cycles 1..5 reading cyc=t, so the
    // sink accumulates (t+1)*(t+2) for t in 1..5.
    uint64_t want = 0;
    for (uint64_t t = 1; t <= 5; ++t)
        want += (t + 1) * (t + 2);
    EXPECT_EQ(esim.readArray(acc.array(), 0), want);

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(50);
    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.readArray(acc.array(), 0),
              rsim.readArray(acc.array(), 0));
}

// ---- gem5 event queue corner ------------------------------------------------------

TEST(EventQueueDepthTest, ResumesAfterHorizon)
{
    baseline::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace assassyn
