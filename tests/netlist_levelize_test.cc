/**
 * @file
 * Levelization contract of the netlist (rtl/netlist.h):
 *  - elaboration always yields a topologically ordered cell list with
 *    per-stage activity-gating cones;
 *  - a mutated out-of-order (but acyclic) cell list is re-levelized by
 *    the Kahn fallback, with gating disabled, the cell tape rebuilt in
 *    the new order, and behavior unchanged;
 *  - a genuine combinational cycle is rejected with a structured
 *    diagnostic naming the cells, and the simulator returns a kFault
 *    RunResult instead of spinning in a settle loop (the bug this
 *    replaced: evalSweep would iterate 64 times and die with an
 *    unactionable "did not settle").
 */
#include <gtest/gtest.h>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "tests/netlist_test_peer.h"

namespace assassyn {
namespace {

using namespace dsl;

std::unique_ptr<System>
buildSmallPipeline()
{
    SysBuilder sb("lvl");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg acc = sb.reg("acc", uintType(16));
    {
        StageScope scope(sink);
        Val x = sink.arg("x");
        acc.write(acc.read() + x.zext(16) * lit(3, 16));
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        when(v < lit(20, 8), [&] { asyncCall(sink, {v + 2}); });
        when(v == lit(30, 8), [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

TEST(NetlistLevelizeTest, ElaborationIsLevelizedWithCones)
{
    auto sys = buildSmallPipeline();
    rtl::Netlist nl(*sys);
    EXPECT_TRUE(nl.levelized());
    EXPECT_TRUE(nl.combCycleDiag().empty());
    ASSERT_FALSE(nl.cones().empty());

    // Every cell input must be a state/const net or produced earlier.
    constexpr uint32_t kNone = 0xffffffffu;
    std::vector<uint32_t> producer(nl.numNets(), kNone);
    for (size_t i = 0; i < nl.cells().size(); ++i)
        producer[nl.cells()[i].out] = static_cast<uint32_t>(i);
    auto check = [&](uint32_t n, size_t i) {
        if (producer[n] != kNone) {
            EXPECT_LT(producer[n], i) << "net " << nl.netName(n);
        }
    };
    for (size_t i = 0; i < nl.cells().size(); ++i) {
        const rtl::Cell &c = nl.cells()[i];
        switch (c.op) {
          case rtl::CellOp::kBin:
          case rtl::CellOp::kConcat:
            check(c.a, i);
            check(c.b, i);
            break;
          case rtl::CellOp::kMux:
            check(c.a, i);
            check(c.b, i);
            check(c.c, i);
            break;
          default:
            check(c.a, i);
        }
    }

    // Cone ranges tile the cell list in stage order.
    uint32_t expect_begin = 0;
    for (const rtl::Cone &cone : nl.cones()) {
        EXPECT_EQ(cone.begin, expect_begin);
        EXPECT_LE(cone.begin, cone.end);
        expect_begin = cone.end;
    }
    EXPECT_EQ(expect_begin, nl.cells().size());
}

TEST(NetlistLevelizeTest, KahnFallbackReordersAndStaysAligned)
{
    auto sys = buildSmallPipeline();

    sim::Simulator esim(*sys);
    esim.run(100);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(*sys);
    auto &cells = rtl::NetlistTestPeer::cells(nl);
    ASSERT_GT(cells.size(), 2u);
    std::vector<uint32_t> before;
    for (const sim::DStep &s : nl.tape())
        before.push_back(s.dest);
    std::reverse(cells.begin(), cells.end());
    rtl::NetlistTestPeer::refinalize(nl);

    // Reordering succeeds (the graph is still acyclic) but the
    // creation-order cones are gone: full-sweep fallback.
    EXPECT_TRUE(nl.levelized());
    EXPECT_TRUE(nl.cones().empty());

    // The tape was rebuilt in the new cell order, record for record.
    ASSERT_EQ(nl.tape().size(), nl.cells().size());
    std::vector<uint32_t> after;
    for (size_t i = 0; i < nl.tape().size(); ++i) {
        EXPECT_EQ(nl.tape()[i].dest, nl.cells()[i].out) << "cell " << i;
        after.push_back(nl.tape()[i].dest);
    }
    EXPECT_NE(after, before);

    rtl::NetlistSim rsim(nl);
    auto res = rsim.run(100);
    EXPECT_EQ(res.status, sim::RunStatus::kFinished);
    EXPECT_EQ(rsim.cycle(), esim.cycle());
    EXPECT_EQ(rsim.metrics().toJson("lvl"), esim.metrics().toJson("lvl"));
}

TEST(NetlistLevelizeTest, CombinationalCycleIsRejectedStructurally)
{
    auto sys = buildSmallPipeline();
    rtl::Netlist nl(*sys);

    // Graft two mutually dependent 1-bit AND cells onto the netlist.
    uint32_t na = rtl::NetlistTestPeer::addNet(nl, 1, "cycle_a");
    uint32_t nb = rtl::NetlistTestPeer::addNet(nl, 1, "cycle_b");
    auto &cells = rtl::NetlistTestPeer::cells(nl);
    rtl::Cell c1;
    c1.op = rtl::CellOp::kBin;
    c1.sub = static_cast<uint8_t>(BinOpcode::kAnd);
    c1.bits = c1.opnd_bits = 1;
    c1.a = c1.b = nb;
    c1.out = na;
    c1.origin = sys->modules().front().get();
    rtl::Cell c2 = c1;
    c2.a = c2.b = na;
    c2.out = nb;
    cells.push_back(c1);
    cells.push_back(c2);
    rtl::NetlistTestPeer::refinalize(nl);

    EXPECT_FALSE(nl.levelized());
    EXPECT_NE(nl.combCycleDiag().find("combinational cycle through 2"),
              std::string::npos);
    EXPECT_NE(nl.combCycleDiag().find("cell#"), std::string::npos);
    EXPECT_NE(nl.combCycleDiag().find("cycle_a"), std::string::npos)
        << nl.combCycleDiag();

    // The simulator refuses to run it: structured fault, no settle spin.
    rtl::NetlistSim rsim(nl);
    auto res = rsim.run(100);
    EXPECT_EQ(res.status, sim::RunStatus::kFault);
    EXPECT_EQ(res.error, nl.combCycleDiag());
    EXPECT_EQ(res.cycles, 0u);
}

} // namespace
} // namespace assassyn
