/**
 * @file
 * Unit tests for the RTL backend: netlist elaboration (Fig. 10), the
 * netlist simulator, cycle alignment against the event-driven simulator,
 * the SystemVerilog emitter, and the area model.
 */
#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "baseline/hls.h"
#include "baseline/hls_workloads.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel_data.h"
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

/** The inc-and-add pipeline of Fig. 7, with a self-stopping driver. */
std::unique_ptr<System>
buildIncAdd(Reg *out_reg = nullptr)
{
    SysBuilder sb("inc_add");
    Stage adder = sb.stage("adder", {{"a", uintType(32)},
                                     {"b", uintType(32)}});
    Stage inc = sb.driver("inc");
    Reg cnt = sb.reg("cnt", uintType(32));
    Reg out = sb.reg("out", uintType(32));
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
        when(v == 20, [&] { finish(); });
    }
    compile(sb.sys());
    if (out_reg)
        *out_reg = out;
    return sb.take();
}

TEST(NetlistTest, ElaboratesBlocks)
{
    auto sys = buildIncAdd();
    rtl::Netlist nl(*sys);
    EXPECT_EQ(nl.fifos().size(), 2u);    // adder.a, adder.b
    EXPECT_EQ(nl.counters().size(), 1u); // adder only (driver has none)
    EXPECT_EQ(nl.arrays().size(), 2u);   // cnt, out
    EXPECT_FALSE(nl.cells().empty());
    // Each FIFO has exactly one pusher (the driver) and one dequeue site.
    for (const auto &fifo : nl.fifos()) {
        EXPECT_EQ(fifo.pushes.size(), 1u);
        EXPECT_EQ(fifo.deq_enables.size(), 1u);
    }
    // Monitors: the adder's log, the driver's finish.
    EXPECT_EQ(nl.monitors().size(), 2u);
}

TEST(NetlistTest, RequiresLoweredSystem)
{
    SysBuilder sb("t");
    sb.driver();
    EXPECT_THROW(rtl::Netlist nl(sb.sys()), FatalError);
}

TEST(NetlistTest, CellOrderIsTopological)
{
    auto sys = buildIncAdd();
    rtl::Netlist nl(*sys);
    // Every cell's inputs must be consts, state outputs, or outputs of
    // earlier cells.
    std::set<uint32_t> defined;
    for (const auto &[net, v] : nl.constNets())
        defined.insert(net);
    for (const auto &fifo : nl.fifos()) {
        defined.insert(fifo.pop_data);
        defined.insert(fifo.pop_valid);
    }
    for (const auto &ctr : nl.counters())
        defined.insert(ctr.nonzero);
    for (const auto &cell : nl.cells()) {
        for (uint32_t in : {cell.a, cell.b, cell.c}) {
            if (in == 0 && cell.op != rtl::CellOp::kMux)
                continue; // unused operand slots default to 0
            // Operand 0 may legitimately be net 0 (const0); that's in
            // `defined` already.
            if (in != 0) {
                EXPECT_TRUE(defined.count(in))
                    << "cell output " << cell.out << " uses undefined net "
                    << in;
            }
        }
        defined.insert(cell.out);
    }
}

/**
 * The pre-decoded cell tape is index-parallel to the cell list, so cone
 * ranges address both, and only div/mod take the generic kBinGeneric
 * handler (divMod, sim/tape.h); every other cell has a specialised one.
 */
void
expectTapeShape(const System &sys, const char *name)
{
    rtl::Netlist nl(sys);
    ASSERT_EQ(nl.tape().size(), nl.cells().size()) << name;
    for (size_t i = 0; i < nl.cells().size(); ++i) {
        const rtl::Cell &c = nl.cells()[i];
        const sim::DStep &s = nl.tape()[i];
        EXPECT_EQ(s.dest, c.out) << name << " cell " << i;
        const bool divmod =
            c.op == rtl::CellOp::kBin &&
            (c.sub == uint8_t(BinOpcode::kDiv) ||
             c.sub == uint8_t(BinOpcode::kMod));
        EXPECT_EQ(s.op == uint8_t(sim::DOp::kBinGeneric), divmod)
            << name << " cell " << i;
    }
}

TEST(CellTapeTest, OneRecordPerCellOnPaperDesigns)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto ooo = designs::buildOoo(image);
    expectTapeShape(*cpu.sys, "cpu");
    expectTapeShape(*ooo.sys, "ooo");

    designs::KmpData kmp = designs::makeKmpData(2000, 5);
    designs::SpmvData spmv = designs::makeSpmvData(64, 10, 6);
    designs::SortData merge = designs::makeMergeSortData(256, 7);
    designs::SortData radix = designs::makeRadixSortData(256, 8);
    designs::StencilData st = designs::makeStencilData(16, 16, 9);
    expectTapeShape(
        *baseline::generateHls(baseline::hlsKmp(kmp), kmp.memory).sys,
        "kmp");
    expectTapeShape(
        *baseline::generateHls(baseline::hlsSpmv(spmv), spmv.memory).sys,
        "spmv");
    expectTapeShape(*baseline::generateHls(baseline::hlsMergeSort(merge),
                                           merge.memory)
                         .sys,
                    "merge");
    expectTapeShape(*baseline::generateHls(baseline::hlsRadixSort(radix),
                                           radix.memory)
                         .sys,
                    "radix");
    expectTapeShape(
        *baseline::generateHls(baseline::hlsStencil(st), st.memory).sys,
        "st-2d");
}

TEST(NetlistSimTest, MatchesExpectedBehavior)
{
    Reg out;
    auto sys = buildIncAdd(&out);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim s(nl);
    s.run(100);
    EXPECT_TRUE(s.finished());
    ASSERT_GE(s.logOutput().size(), 2u);
    EXPECT_EQ(s.logOutput()[0], "c = 0");
    EXPECT_EQ(s.logOutput()[1], "c = 2");
}

/** Q5 alignment: both engines, cycle-for-cycle, byte-for-byte. */
TEST(AlignmentTest, IncAddPerfectAlignment)
{
    Reg out;
    auto sys = buildIncAdd(&out);

    sim::Simulator esim(*sys);
    esim.run(1000);

    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(1000);

    EXPECT_TRUE(esim.finished());
    EXPECT_TRUE(rsim.finished());
    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.logOutput(), rsim.logOutput());
    EXPECT_EQ(esim.readArray(out.array(), 0),
              rsim.readArray(out.array(), 0));
}

TEST(AlignmentTest, ArbiterDesignAligns)
{
    SysBuilder sb("arb");
    Stage wb = sb.stage("wb", {{"id", uintType(5)}, {"res", uintType(32)}});
    wb.roundRobinArbiter();
    Stage ex = sb.stage("ex");
    Stage ma = sb.stage("ma");
    Stage d = sb.driver();
    Arr rf = sb.arr("rf", uintType(32), 32);
    Reg cyc = sb.reg("cyc", uintType(8));
    {
        StageScope scope(wb);
        rf.write(wb.arg("id"), wb.arg("res"));
        log("wb id={} res={}", {wb.arg("id"), wb.arg("res")});
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
        Val c = cyc.read();
        cyc.write(c + 1);
        when(c == 0, [&] {
            asyncCall(ex, {});
            asyncCall(ma, {});
        });
        when(c == 10, [&] { finish(); });
    }
    compile(sb.sys());
    auto sys = sb.take();

    sim::Simulator esim(*sys);
    esim.run(100);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(100);

    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.logOutput(), rsim.logOutput());
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(esim.readArray(rf.array(), i), rsim.readArray(rf.array(), i));
}

TEST(AlignmentTest, CrossStageRefAligns)
{
    SysBuilder sb("xref");
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
        log("seen {}", {prod.exposed("double", uintType(8))});
        when(v == 9, [&] { finish(); });
    }
    compile(sb.sys());
    auto sys = sb.take();

    sim::Simulator esim(*sys);
    esim.run(100);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(100);

    EXPECT_EQ(esim.cycle(), rsim.cycle());
    EXPECT_EQ(esim.logOutput(), rsim.logOutput());
    EXPECT_EQ(esim.readArray(seen.array(), 0),
              rsim.readArray(seen.array(), 0));
}

TEST(VerilogTest, EmitsBalancedStructure)
{
    auto sys = buildIncAdd();
    rtl::Netlist nl(*sys);
    std::string sv = rtl::emitVerilog(nl);
    // Library templates plus the design top.
    size_t modules = 0, endmodules = 0, pos = 0;
    while ((pos = sv.find("\nmodule ", pos)) != std::string::npos) {
        ++modules;
        ++pos;
    }
    pos = 0;
    while ((pos = sv.find("endmodule", pos)) != std::string::npos) {
        ++endmodules;
        ++pos;
    }
    EXPECT_EQ(modules, endmodules);
    EXPECT_NE(sv.find("module inc_add_top"), std::string::npos);
    EXPECT_NE(sv.find("assassyn_fifo"), std::string::npos);
    EXPECT_NE(sv.find("assassyn_event_counter"), std::string::npos);
    EXPECT_NE(sv.find("$display"), std::string::npos);
    EXPECT_NE(sv.find("$finish"), std::string::npos);
}

TEST(VerilogTest, GuardsDivisionByZero)
{
    // SystemVerilog gives X for a zero divisor; the emitted cells must
    // follow the engines' contract instead: x / 0 is all-ones and
    // x % 0 is x, on unsigned and signed cells alike.
    SysBuilder sb("divmod");
    Stage drv = sb.driver("drv");
    Reg ua = sb.reg("ua", uintType(32));
    Reg ub = sb.reg("ub", uintType(32));
    Reg sa = sb.reg("sa", intType(32));
    Reg sb_ = sb.reg("sb", intType(32));
    Reg uq = sb.reg("uq", uintType(32));
    Reg ur = sb.reg("ur", uintType(32));
    Reg sq = sb.reg("sq", intType(32));
    Reg sr = sb.reg("sr", intType(32));
    {
        StageScope scope(drv);
        ua.write(ua.read() + 7);
        ub.write(ub.read() + 1);
        uq.write(ua.read() / ub.read());
        ur.write(ua.read() % ub.read());
        sq.write(sa.read() / sb_.read());
        sr.write(sa.read() % sb_.read());
        finish();
    }
    compile(sb.sys());
    rtl::Netlist nl(sb.sys());
    std::string sv = rtl::emitVerilog(nl);
    auto has = [&](const char *pattern) {
        return std::regex_search(sv, std::regex(pattern));
    };
    EXPECT_TRUE(has(R"(assign n\d+ = (n\d+) == 0 \? '1 : n\d+ / \1;)"))
        << sv;
    EXPECT_TRUE(
        has(R"(assign n\d+ = (n\d+) == 0 \? (n\d+) : \2 % \1;)"))
        << sv;
    EXPECT_TRUE(has(R"(assign n\d+ = (n\d+) == 0 \? -1 : )"
                    R"(\$signed\(n\d+\) / \$signed\(\1\);)"))
        << sv;
    EXPECT_TRUE(has(R"(assign n\d+ = (n\d+) == 0 \? \$signed\((n\d+)\) : )"
                    R"(\$signed\(\2\) % \$signed\(\1\);)"))
        << sv;
    // No cell is left with an unguarded quotient or remainder.
    std::istringstream lines(sv);
    for (std::string line; std::getline(lines, line);) {
        if (line.find("assign n") != std::string::npos &&
            (line.find(" / ") != std::string::npos ||
             line.find(" % ") != std::string::npos)) {
            EXPECT_NE(line.find(" == 0 ? "), std::string::npos) << line;
        }
    }
}

TEST(VerilogTest, Deterministic)
{
    auto sys1 = buildIncAdd();
    auto sys2 = buildIncAdd();
    rtl::Netlist nl1(*sys1), nl2(*sys2);
    EXPECT_EQ(rtl::emitVerilog(nl1), rtl::emitVerilog(nl2));
}

TEST(AreaTest, BreakdownSumsToTotal)
{
    auto sys = buildIncAdd();
    rtl::Netlist nl(*sys);
    synth::AreaReport rep = synth::estimateArea(nl);
    EXPECT_GT(rep.total(), 0.0);
    EXPECT_NEAR(rep.total(), rep.seq + rep.comb, 1e-9);
    EXPECT_GT(rep.fifo, 0.0); // two stage-buffer FIFOs
    EXPECT_GT(rep.sm, 0.0);   // one event counter
    EXPECT_GT(rep.func, 0.0);
}

TEST(AreaTest, MemoryIsBlackboxed)
{
    SysBuilder sb("m");
    Stage d = sb.driver();
    Arr big = sb.mem("big", uintType(32), 1024);
    Reg out = sb.reg("out", uintType(32));
    {
        StageScope scope(d);
        out.write(big.read(lit(3, 10)));
    }
    compile(sb.sys());
    auto sys = sb.take();
    rtl::Netlist nl(*sys);
    synth::AreaReport rep = synth::estimateArea(nl);
    // A 32Kb SRAM would dwarf everything; blackboxing keeps it out.
    EXPECT_LT(rep.total(), 1000.0);
}

TEST(AreaTest, FifoDepthScalesArea)
{
    auto build = [](unsigned depth) {
        SysBuilder sb("d");
        Stage sink = sb.stage("sink", {{"x", uintType(32)}});
        sink.fifoDepth("x", depth);
        Stage d = sb.driver();
        Reg out = sb.reg("out", uintType(32));
        {
            StageScope scope(sink);
            out.write(sink.arg("x"));
        }
        {
            StageScope scope(d);
            asyncCall(sink, {lit(1, 32)});
        }
        compile(sb.sys());
        return sb.take();
    };
    auto sys1 = build(1);
    auto sys8 = build(8);
    rtl::Netlist nl1(*sys1), nl8(*sys8);
    double a1 = synth::estimateArea(nl1).fifo;
    double a8 = synth::estimateArea(nl8).fifo;
    EXPECT_GT(a8, 2.0 * a1);
}

} // namespace
} // namespace assassyn
