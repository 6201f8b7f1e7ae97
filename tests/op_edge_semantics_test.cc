/**
 * @file
 * Deterministic operator edge-case tests, three-way checked.
 *
 * Where op_semantics_test.cc sweeps random vectors, this suite drives
 * exactly the operand pairs where C, Verilog, and hand-rolled simulator
 * code historically disagree — shift amounts at/over the operand width,
 * division and remainder by zero, and signed INT_MIN / -1 — at odd
 * widths (7, 13, 33) that straddle machine-word boundaries. Every result
 * must agree across the event simulator, the netlist simulator, and the
 * semantics kernel (sim/tape.h: encodeBin, then evalPure) the two are
 * built on; the kernel itself is independently pinned by
 * ops_cross_check_test.cc.
 */
#include <gtest/gtest.h>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "sim/tape.h"

namespace assassyn {
namespace {

using namespace dsl;

struct EdgeCase {
    const char *name;
    BinOpcode op;
};

const EdgeCase kEdgeOps[] = {
    {"div", BinOpcode::kDiv},
    {"mod", BinOpcode::kMod},
    {"shl", BinOpcode::kShl},
    {"shr", BinOpcode::kShr},
};

/** The operand pairs that historically diverge between implementations. */
std::vector<std::pair<uint64_t, uint64_t>>
edgeVectors(BinOpcode op, unsigned bits)
{
    uint64_t min_val = uint64_t(1) << (bits - 1); // signed minimum
    uint64_t mask = maskBits(bits);               // signed -1 / unsigned max
    if (op == BinOpcode::kShl || op == BinOpcode::kShr) {
        std::vector<std::pair<uint64_t, uint64_t>> v;
        for (uint64_t a : {min_val, mask, uint64_t(1), min_val | 1})
            for (uint64_t b : {uint64_t(0), uint64_t(bits - 1),
                               uint64_t(bits), uint64_t(bits + 1),
                               uint64_t(2 * bits)})
                v.emplace_back(a, b);
        return v;
    }
    return {
        {min_val, mask}, // INT_MIN / -1: the classic signed overflow
        {min_val, 0},    {mask, 0}, {1, 0}, {0, 0}, // x / 0, x % 0
        {mask, mask},    {min_val, 1}, {mask, min_val},
    };
}

class OpEdgeTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned, bool>> {};

TEST_P(OpEdgeTest, BackendsAndOpsLibraryAgree)
{
    const auto &[op_idx, bits, sgn] = GetParam();
    const EdgeCase &ec = kEdgeOps[size_t(op_idx)];
    bool shift = ec.op == BinOpcode::kShl || ec.op == BinOpcode::kShr;
    DataType ty = sgn ? intType(bits) : uintType(bits);

    auto pairs = edgeVectors(ec.op, bits);
    size_t n = pairs.size();
    std::vector<uint64_t> va(n), vb(n);
    for (size_t i = 0; i < n; ++i) {
        va[i] = truncate(pairs[i].first, bits);
        vb[i] = shift ? pairs[i].second : truncate(pairs[i].second, bits);
    }

    SysBuilder sb("edges");
    Arr rom_a = sb.mem("rom_a", ty, n, va);
    Arr rom_b = sb.mem("rom_b", shift ? uintType(8) : ty, n, vb);
    Arr out = sb.arr("out", uintType(bits), n);
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val sel = i.trunc(std::max(1u, log2ceil(n)));
        Val a = rom_a.read(sel);
        Val b = rom_b.read(sel);
        Val r;
        switch (ec.op) {
          case BinOpcode::kDiv: r = a / b; break;
          case BinOpcode::kMod: r = a % b; break;
          case BinOpcode::kShl: r = a << b; break;
          case BinOpcode::kShr: r = a >> b; break;
          default: FAIL();
        }
        out.write(sel, r.as(uintType(bits)));
        idx.write(i + 1);
        when(i == uint64_t(n - 1), [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(n + 2);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(n + 2);
    ASSERT_TRUE(rsim.finished());

    sim::DStep step;
    sim::encodeBin(step, ec.op, sgn, bits, bits);
    for (size_t i = 0; i < n; ++i) {
        uint64_t want = sim::evalPure(step, va[i], vb[i]);
        EXPECT_EQ(esim.readArray(out.array(), i), want)
            << ec.name << " bits=" << bits << " sgn=" << sgn
            << " a=" << va[i] << " b=" << vb[i];
        EXPECT_EQ(rsim.readArray(out.array(), i), want)
            << "(netlist) " << ec.name << " bits=" << bits
            << " sgn=" << sgn << " a=" << va[i] << " b=" << vb[i];
    }
}

std::string
edgeCaseName(
    const ::testing::TestParamInfo<std::tuple<int, unsigned, bool>> &info)
{
    const auto &[op_idx, bits, sgn] = info.param;
    return std::string(kEdgeOps[size_t(op_idx)].name) + "_w" +
           std::to_string(bits) + (sgn ? "_signed" : "_unsigned");
}

INSTANTIATE_TEST_SUITE_P(
    Edges, OpEdgeTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kEdgeOps))),
                       ::testing::Values(7u, 13u, 33u), ::testing::Bool()),
    edgeCaseName);

} // namespace
} // namespace assassyn
