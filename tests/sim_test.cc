/**
 * @file
 * Unit tests for the cycle-accurate simulator: the two-phase engine,
 * event bookkeeping, FIFO semantics, write-once registers, wait_until
 * retention, cross-stage references, and randomized stage order.
 */
#include <gtest/gtest.h>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using namespace dsl;
using sim::SimOptions;
using sim::Simulator;

/** Builds the inc-and-add pipeline of Fig. 7 and returns the system. */
struct IncAdd {
    SysBuilder sb{"inc_add"};
    Stage adder, inc;
    Reg cnt, out;

    IncAdd()
    {
        adder = sb.stage("adder", {{"a", uintType(32)}, {"b", uintType(32)}});
        inc = sb.driver("inc");
        cnt = sb.reg("cnt", uintType(32));
        out = sb.reg("out", uintType(32));
        {
            StageScope scope(adder);
            Val c = adder.arg("a") + adder.arg("b");
            out.write(c);
            log("c = {}", {c});
        }
        {
            StageScope scope(inc);
            Val v = cnt.read();
            cnt.write(v + 1);
            asyncCall(adder, {v, v});
        }
        compile(sb.sys());
    }
};

TEST(SimTest, IncAddPipeline)
{
    IncAdd design;
    Simulator s(design.sb.sys());
    s.run(5);
    // Cycle 0: driver pushes 0,0; cycle 1: adder computes 0; ...
    ASSERT_EQ(s.logOutput().size(), 4u);
    EXPECT_EQ(s.logOutput()[0], "c = 0");
    EXPECT_EQ(s.logOutput()[1], "c = 2");
    EXPECT_EQ(s.logOutput()[2], "c = 4");
    EXPECT_EQ(s.logOutput()[3], "c = 6");
    // out committed at end of cycle 4 holds 2*3 = 6.
    EXPECT_EQ(s.readArray(design.out.array(), 0), 6u);
    EXPECT_EQ(s.readArray(design.cnt.array(), 0), 5u);
}

TEST(SimTest, AsyncCallTakesOneCycle)
{
    // The callee must observe caller data no earlier than the next cycle.
    IncAdd design;
    Simulator s(design.sb.sys());
    s.run(1);
    EXPECT_EQ(s.logOutput().size(), 0u); // nothing in the driver's cycle
    s.run(1);
    EXPECT_EQ(s.logOutput().size(), 1u);
}

TEST(SimTest, FinishStopsAtEndOfCycle)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Reg cnt = sb.reg("cnt", uintType(8));
    {
        StageScope scope(d);
        Val v = cnt.read();
        cnt.write(v + 1);
        when(v == 3, [&] { finish(); });
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(100);
    EXPECT_TRUE(s.finished());
    EXPECT_EQ(s.cycle(), 4u);
    // The write in the finishing cycle still commits.
    EXPECT_EQ(s.readArray(cnt.array(), 0), 4u);
}

TEST(SimTest, RegisterWriteOnceEnforced)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Reg r = sb.reg("r", uintType(8));
    {
        StageScope scope(d);
        r.write(lit(1, 8));
        r.write(lit(2, 8)); // same cycle: to_write must reject
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    sim::RunResult res = s.run(1);
    EXPECT_EQ(res.status, sim::RunStatus::kFault);
    EXPECT_NE(res.error.find("written twice"), std::string::npos)
        << res.error;
}

TEST(SimTest, ExclusiveBranchesWriteOk)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Reg r = sb.reg("r", uintType(8));
    Reg c = sb.reg("c", uintType(8));
    {
        StageScope scope(d);
        Val v = c.read();
        c.write(v + 1);
        Val odd = v.bit(0);
        when(odd, [&] { r.write(lit(1, 8)); });
        when(!odd, [&] { r.write(lit(2, 8)); });
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(3); // last cycle saw v=2 (even) -> r=2
    EXPECT_EQ(s.readArray(r.array(), 0), 2u);
    s.run(1); // v=3 (odd) -> r=1
    EXPECT_EQ(s.readArray(r.array(), 0), 1u);
}

TEST(SimTest, FifoOverflowDetected)
{
    SysBuilder sb("t");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 2);
    Stage d = sb.driver();
    {
        StageScope scope(sink);
        // Body never consumes: waits forever on a condition that never
        // holds, so pushes accumulate.
        waitUntil([&] { return litFalse(); });
        sink.arg("x");
    }
    {
        StageScope scope(d);
        asyncCall(sink, {lit(1, 8)});
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    sim::RunResult res = s.run(10);
    EXPECT_EQ(res.status, sim::RunStatus::kFault);
    // The enriched overflow message names the FIFO, its occupancy, and
    // the producing stage (satellite 1).
    EXPECT_NE(res.error.find("FIFO overflow"), std::string::npos)
        << res.error;
    EXPECT_NE(res.error.find("occupancy"), std::string::npos) << res.error;
    EXPECT_NE(res.error.find("push from stage '"), std::string::npos)
        << res.error;
}

TEST(SimTest, WaitUntilRetainsEvent)
{
    SysBuilder sb("t");
    Stage worker = sb.stage("worker", {{"x", uintType(8)}});
    Stage d = sb.driver();
    Reg go = sb.reg("go", uintType(1));
    Reg got = sb.reg("got", uintType(8));
    Reg cycles = sb.reg("cycles", uintType(8));
    {
        StageScope scope(worker);
        waitUntil([&] { return worker.argValid("x") & (go.read() == 1); });
        got.write(worker.arg("x"));
    }
    {
        StageScope scope(d);
        Val c = cycles.read();
        cycles.write(c + 1);
        when(c == 0, [&] { asyncCall(worker, {lit(42, 8)}); });
        when(c == 5, [&] { go.write(lit(1, 1)); });
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(4);
    EXPECT_EQ(s.stageCounters(worker.mod()).execs, 0u); // spinning
    s.run(4);
    EXPECT_EQ(s.stageCounters(worker.mod()).execs, 1u); // released by go
    EXPECT_EQ(s.readArray(got.array(), 0), 42u);
}

TEST(SimTest, EventCounterQueuesMultipleCalls)
{
    // Two subscriptions in one cycle: the callee executes twice, on
    // consecutive cycles (Fig. 10b gathers by addition).
    SysBuilder sb("t");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    Stage a = sb.stage("a");
    Stage b = sb.stage("b");
    Stage d = sb.driver();
    Reg sum = sb.reg("sum", uintType(8));
    Reg fired = sb.reg("fired", uintType(1));
    {
        StageScope scope(sink);
        sum.write(sum.read() + sink.arg("x"));
    }
    {
        StageScope scope(a);
        asyncCall(sink, {lit(10, 8)});
    }
    {
        StageScope scope(b);
        asyncCall(sink, {lit(20, 8)});
    }
    {
        StageScope scope(d);
        when(fired.read() == 0, [&] {
            fired.write(lit(1, 1));
            asyncCall(a, {});
            asyncCall(b, {});
        });
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(6);
    EXPECT_EQ(s.stageCounters(sink.mod()).execs, 2u);
    EXPECT_EQ(s.readArray(sum.array(), 0), 30u);
}

TEST(SimTest, CrossStageCombRefSameCycle)
{
    // Consumer reads producer's combinational output in the same cycle.
    SysBuilder sb("t");
    Stage prod = sb.stage("prod");
    Stage cons = sb.driver("cons");
    Reg c = sb.reg("c", uintType(8));
    Reg seen = sb.reg("seen", uintType(8));
    {
        StageScope scope(prod);
        expose("double", c.read() * 2);
    }
    {
        StageScope scope(cons);
        Val v = c.read();
        c.write(v + 1);
        seen.write(prod.exposed("double", uintType(8)));
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(1);
    EXPECT_EQ(s.readArray(seen.array(), 0), 0u);
    s.run(1);
    EXPECT_EQ(s.readArray(seen.array(), 0), 2u); // c was 1 this cycle
    s.run(1);
    EXPECT_EQ(s.readArray(seen.array(), 0), 4u);
    // prod itself never executes: only its shadow cone runs.
    EXPECT_EQ(s.stageCounters(prod.mod()).execs, 0u);
}

TEST(SimTest, ArbiterSerializesContendedCalls)
{
    SysBuilder sb("t");
    Stage wb = sb.stage("wb", {{"id", uintType(5)}, {"res", uintType(32)}});
    wb.priorityArbiter({"ma", "ex"});
    Stage ex = sb.stage("ex");
    Stage ma = sb.stage("ma");
    Stage d = sb.driver();
    Arr rf = sb.arr("rf", uintType(32), 32);
    Reg fired = sb.reg("fired", uintType(1));
    {
        StageScope scope(wb);
        rf.write(wb.arg("id"), wb.arg("res"));
    }
    {
        StageScope scope(ex);
        asyncCall(wb, {lit(1, 5), lit(100, 32)});
    }
    {
        StageScope scope(ma);
        asyncCall(wb, {lit(2, 5), lit(200, 32)});
    }
    {
        StageScope scope(d);
        when(fired.read() == 0, [&] {
            fired.write(lit(1, 1));
            asyncCall(ex, {});
            asyncCall(ma, {});
        });
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(8);
    // Both writes landed despite colliding in the same cycle.
    EXPECT_EQ(s.readArray(rf.array(), 1), 100u);
    EXPECT_EQ(s.readArray(rf.array(), 2), 200u);
    EXPECT_EQ(s.stageCounters(wb.mod()).execs, 2u);
}

TEST(SimTest, ShuffleIsResultInvariant)
{
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        IncAdd design;
        SimOptions opts;
        opts.shuffle = true;
        opts.shuffle_seed = seed;
        Simulator s(design.sb.sys(), opts);
        s.run(5);
        ASSERT_EQ(s.logOutput().size(), 4u);
        EXPECT_EQ(s.logOutput()[3], "c = 6");
        EXPECT_EQ(s.readArray(design.out.array(), 0), 6u);
    }
}

TEST(SimTest, StructViewRoundTrip)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Reg payload = sb.reg("payload", uintType(32));
    Reg valid = sb.reg("valid", uintType(1));
    {
        StageScope scope(d);
        StructType entry({{"valid", 1}, {"payload", 32}});
        Val packed = entry.pack({{"valid", lit(1, 1)},
                                 {"payload", lit(0xdeadbeef, 32)}});
        payload.write(entry.field(packed, "payload"));
        valid.write(entry.field(packed, "valid"));
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(1);
    EXPECT_EQ(s.readArray(payload.array(), 0), 0xdeadbeefu);
    EXPECT_EQ(s.readArray(valid.array(), 0), 1u);
}

TEST(SimTest, ArithmeticSemantics)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Reg a = sb.reg("a", uintType(32));
    Reg b = sb.reg("b", uintType(32));
    Reg c = sb.reg("c", uintType(32));
    Reg e = sb.reg("e", uintType(32));
    Reg f = sb.reg("f", uintType(1));
    {
        StageScope scope(d);
        Val x = lit(0xffffffff, intType(32)); // -1 signed
        Val y = lit(2, intType(32));
        a.write((x + y).as(uintType(32)));            // 1
        b.write((x >> lit(1, 5)).as(uintType(32)));   // arithmetic: -1
        c.write((x / y).as(uintType(32)));            // signed: 0
        e.write((lit(7u, uintType(32)) % lit(3u, uintType(32))));
        f.write(x < y);                               // signed: true
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.run(1);
    EXPECT_EQ(s.readArray(a.array(), 0), 1u);
    EXPECT_EQ(s.readArray(b.array(), 0), 0xffffffffu);
    EXPECT_EQ(s.readArray(c.array(), 0), 0u);
    EXPECT_EQ(s.readArray(e.array(), 0), 1u);
    EXPECT_EQ(s.readArray(f.array(), 0), 1u);
}

TEST(SimTest, AssertionAborts)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    {
        StageScope scope(d);
        check(litFalse(), "boom");
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    sim::RunResult res = s.run(1);
    EXPECT_EQ(res.status, sim::RunStatus::kFault);
    EXPECT_NE(res.error.find("assertion failed: boom"), std::string::npos)
        << res.error;
}

TEST(SimTest, PokeAndPeekArrays)
{
    SysBuilder sb("t");
    Stage d = sb.driver();
    Arr memory = sb.mem("m", uintType(32), 16);
    Reg out = sb.reg("out", uintType(32));
    Reg pc = sb.reg("pc", uintType(8));
    {
        StageScope scope(d);
        Val addr = pc.read();
        pc.write(addr + 1);
        out.write(memory.read(addr.trunc(4)));
    }
    compile(sb.sys());
    Simulator s(sb.sys());
    s.writeArray(memory.array(), 3, 777);
    s.run(4);
    EXPECT_EQ(s.readArray(out.array(), 0), 777u);
}

TEST(SimTest, RequiresCompiledSystem)
{
    SysBuilder sb("t");
    sb.driver();
    EXPECT_THROW(Simulator s(sb.sys()), FatalError);
}

} // namespace
} // namespace assassyn
