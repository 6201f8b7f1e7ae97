/**
 * @file
 * The compile/run split of the event backend (docs/architecture.md):
 * a sim::Program is an immutable compiled artifact, a sim::Simulator is
 * cheap per-run state over it. These tests pin the three properties the
 * split promises:
 *
 *  - constructing Simulators from a prebuilt Program performs no
 *    compilation (counted through Program::compileCount());
 *  - N sequential Simulators over one shared Program behave exactly
 *    like N fresh compiles — metrics, logs, and architectural state;
 *  - RunResult's legacy uint64_t conversion still reports the cycles
 *    simulated by that run() call, struct-level and end-to-end.
 *
 * They also pin guard formation (an `x == K` guard that is its
 * compare's only reader tests x itself) and the shape of the FSM switch
 * pass (buildSwitches): every HLS accelerator's state chain becomes one
 * kSwitch plus a kJump per other state, while the CPU tapes, which have
 * no such chain, keep their length and form no switch.
 */
#include <gtest/gtest.h>

#include "baseline/hls.h"
#include "baseline/hls_workloads.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel_data.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "sim/program.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using namespace dsl;

/** Producer/consumer pipeline exercising FIFOs, arrays, and logs. */
std::unique_ptr<System>
buildPipeline(const char *name)
{
    SysBuilder sb(name);
    Stage sink = sb.stage("sink", {{"x", uintType(16)}});
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(16));
    Arr hist = sb.arr("hist", uintType(16), 8);
    {
        StageScope scope(sink);
        Val x = sink.arg("x");
        Val slot = x.trunc(3);
        hist.write(slot, hist.read(slot) + 1);
        log("got {}", {x});
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        when(v < lit(40, 16),
             [&] { asyncCall(sink, {(v * v).as(uintType(16))}); });
        when(v == lit(60, 16), [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

TEST(ProgramTest, SimulatorFromPrebuiltProgramDoesNotCompile)
{
    auto sys = buildPipeline("prog_nocompile");
    uint64_t before = sim::Program::compileCount();
    auto prog = sim::Program::compile(*sys);
    EXPECT_EQ(sim::Program::compileCount(), before + 1);

    // Any number of Simulators over the prebuilt artifact: zero
    // further compilations, full runs included.
    for (int i = 0; i < 3; ++i) {
        sim::Simulator s(prog);
        EXPECT_EQ(s.program().get(), prog.get());
        s.run(100);
        EXPECT_TRUE(s.finished());
    }
    EXPECT_EQ(sim::Program::compileCount(), before + 1);

    // The convenience constructor compiles exactly once per Simulator.
    sim::Simulator legacy(*sys);
    EXPECT_EQ(sim::Program::compileCount(), before + 2);
}

TEST(ProgramTest, SharedProgramMatchesFreshCompiles)
{
    auto sys = buildPipeline("prog_reuse");
    auto prog = sim::Program::compile(*sys);

    auto snapshot = [&](sim::Simulator &s) {
        s.run(100);
        EXPECT_TRUE(s.finished());
        return s.metrics().toJson("prog_reuse") + "\n---\n" +
               [&] {
                   std::string all;
                   for (const std::string &line : s.logOutput())
                       all += line + "\n";
                   return all;
               }();
    };

    sim::Simulator shared1(prog), shared2(prog);
    sim::Simulator fresh1(*sys), fresh2(*sys);
    std::string ref = snapshot(fresh1);
    EXPECT_EQ(snapshot(shared1), ref);
    EXPECT_EQ(snapshot(shared2), ref);
    EXPECT_EQ(snapshot(fresh2), ref);
}

TEST(ProgramTest, RunResultConvertsToCyclesStructLevel)
{
    sim::RunResult r;
    r.status = sim::RunStatus::kFinished;
    r.cycles = 42;
    EXPECT_TRUE(r.ok());

    r.status = sim::RunStatus::kMaxCycles;
    r.cycles = 7;
    EXPECT_FALSE(r.ok());
}

TEST(ProgramTest, RunResultConvertsToCyclesEndToEnd)
{
    auto sys = buildPipeline("prog_runresult");
    sim::Simulator s(*sys);

    // Call sites accumulate cycles from run()'s result; the count must
    // stay exact across chunked runs.
    uint64_t total = 0;
    total += s.run(10).cycles; // partial chunk: hits the budget
    EXPECT_EQ(total, 10u);
    EXPECT_EQ(s.cycle(), 10u);
    total += s.run(1000).cycles; // runs to finish()
    EXPECT_TRUE(s.finished());
    EXPECT_EQ(total, s.cycle());

    sim::Simulator s2(s.program());
    sim::RunResult res = s2.run(1000);
    EXPECT_EQ(res.status, sim::RunStatus::kFinished);
    EXPECT_EQ(res.cycles, s2.cycle());
}

size_t
countOp(const sim::Program &prog, sim::DOp op)
{
    size_t n = 0;
    for (const sim::DStep &s : prog.tape())
        n += s.op == uint8_t(op);
    return n;
}

/**
 * A driver counting cycles whose `when(cyc == 3)` region increments
 * `hits`; with @p logged the compare is also a log argument.
 */
std::unique_ptr<System>
buildGuard(bool logged)
{
    SysBuilder sb(logged ? "guard_logged" : "guard_only");
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg hits = sb.reg("hits", uintType(8));
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        Val hit = v == lit(3, 8);
        if (logged)
            log("hit {}", {hit});
        when(hit, [&] { hits.write(hits.read() + 1); });
    }
    compile(sb.sys());
    return sb.take();
}

/**
 * Guard formation: a region guard that is its `x == K` condition's only
 * reader tests x itself (kSkipIfNeImm) and the compare is never
 * emitted; a condition read elsewhere too keeps its kEqImm, which the
 * guard then tests (kSkipIfFalse). Both run the region once.
 */
TEST(ProgramTest, GuardFormsOnlyForASingleUseCompare)
{
    for (bool logged : {false, true}) {
        SCOPED_TRACE(logged ? "logged" : "guard only");
        auto sys = buildGuard(logged);
        auto prog = sim::Program::compile(*sys);
        EXPECT_EQ(countOp(*prog, sim::DOp::kSkipIfNeImm), logged ? 0u : 1u);
        EXPECT_EQ(countOp(*prog, sim::DOp::kEqImm), logged ? 1u : 0u);
        EXPECT_EQ(countOp(*prog, sim::DOp::kSkipIfFalse), logged ? 1u : 0u);
        for (const sim::DStep &s : prog->tape()) {
            if (s.op == uint8_t(sim::DOp::kSkipIfNeImm) ||
                s.op == uint8_t(sim::DOp::kEqImm)) {
                EXPECT_EQ(s.u.mask, 3u);
            }
        }
        sim::Simulator sim(prog);
        sim.run(10);
        ASSERT_EQ(sys->arrays()[1]->name(), "hits");
        EXPECT_EQ(sim.readArray(sys->arrays()[1].get(), 0), 1u);
        ASSERT_EQ(sim.logOutput().size(), logged ? 10u : 0u);
        if (logged) {
            EXPECT_EQ(sim.logOutput()[2], "hit 0");
            EXPECT_EQ(sim.logOutput()[3], "hit 1");
        }
    }
}

TEST(ProgramSwitchTest, HlsStateChainsCompileToOneSwitch)
{
    designs::KmpData kmp = designs::makeKmpData(2000, 5);
    designs::SpmvData spmv = designs::makeSpmvData(64, 10, 6);
    designs::SortData merge = designs::makeMergeSortData(256, 7);
    designs::SortData radix = designs::makeRadixSortData(256, 8);
    designs::StencilData st = designs::makeStencilData(16, 16, 9);
    std::vector<std::pair<const char *, baseline::HlsDesign>> accels;
    accels.emplace_back(
        "kmp", baseline::generateHls(baseline::hlsKmp(kmp), kmp.memory));
    accels.emplace_back(
        "spmv", baseline::generateHls(baseline::hlsSpmv(spmv), spmv.memory));
    accels.emplace_back(
        "merge",
        baseline::generateHls(baseline::hlsMergeSort(merge), merge.memory));
    accels.emplace_back(
        "radix",
        baseline::generateHls(baseline::hlsRadixSort(radix), radix.memory));
    accels.emplace_back(
        "st-2d", baseline::generateHls(baseline::hlsStencil(st), st.memory));
    for (const auto &[name, design] : accels) {
        auto prog = sim::Program::compile(*design.sys);
        ASSERT_EQ(countOp(*prog, sim::DOp::kSwitch), 1u) << name;
        EXPECT_EQ(countOp(*prog, sim::DOp::kJump), design.num_states - 1)
            << name;
        uint32_t state_slot = 0;
        for (const sim::DStep &s : prog->tape())
            if (s.op == uint8_t(sim::DOp::kSwitch))
                state_slot = s.a;
        for (const sim::DStep &s : prog->tape())
            EXPECT_FALSE(s.op == uint8_t(sim::DOp::kSkipIfNeImm) &&
                         s.a == state_slot)
                << name << ": a state guard survived the switch pass";
    }
}

TEST(ProgramSwitchTest, CpuTapesFormNoSwitch)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto ooo = designs::buildOoo(image);
    auto cprog = sim::Program::compile(*cpu.sys);
    auto oprog = sim::Program::compile(*ooo.sys);
    EXPECT_EQ(cprog->tape().size(), 375u);
    EXPECT_EQ(oprog->tape().size(), 1300u);
    for (const sim::Program *prog : {cprog.get(), oprog.get()}) {
        EXPECT_EQ(countOp(*prog, sim::DOp::kSwitch), 0u);
        EXPECT_EQ(countOp(*prog, sim::DOp::kJump), 0u);
        EXPECT_TRUE(prog->switchTable().empty());
    }
}

} // namespace
} // namespace assassyn
