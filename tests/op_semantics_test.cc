/**
 * @file
 * Property tests for operator semantics: for every binary operator, at
 * several widths and both signednesses, a design computes the operator
 * over random operand vectors; results must match a independently coded
 * C++ reference model in the event simulator AND the RTL netlist
 * simulator. This pins down the arithmetic contract (wrapping,
 * sign-extension, shift semantics, division-by-zero) across the whole
 * stack. A second suite repeats the binary operators with one operand a
 * literal, which the event tape lowers to immediate forms or keeps in a
 * slot. A third does the same for every other pure operation: the unary
 * operators, the four casts, slices at both ends of the operand, concat,
 * select and an array read past the end. A fourth gives select, concat
 * and the decode compare-select constant operands. Two more take the
 * binary operators to their edge operands (x / 0, INT_MIN / -1, shifts
 * by the width and beyond): one with both operands literals, folded by
 * the compiler's constant folder or by sim::Program's own, and one
 * checking the debugger's evaluator against both engines.
 */
#include <gtest/gtest.h>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "debug/eval.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace assassyn {
namespace {

using namespace dsl;

constexpr size_t kVectors = 24;

struct OpCase {
    const char *name;
    BinOpcode op;
};

const OpCase kOps[] = {
    {"add", BinOpcode::kAdd}, {"sub", BinOpcode::kSub},
    {"mul", BinOpcode::kMul}, {"div", BinOpcode::kDiv},
    {"mod", BinOpcode::kMod}, {"and", BinOpcode::kAnd},
    {"or", BinOpcode::kOr},   {"xor", BinOpcode::kXor},
    {"shl", BinOpcode::kShl}, {"shr", BinOpcode::kShr},
    {"eq", BinOpcode::kEq},   {"ne", BinOpcode::kNe},
    {"lt", BinOpcode::kLt},   {"le", BinOpcode::kLe},
    {"gt", BinOpcode::kGt},   {"ge", BinOpcode::kGe},
};

/** The reference model: the documented semantics of the IR. */
uint64_t
golden(BinOpcode op, uint64_t a, uint64_t b, unsigned bits, bool sgn)
{
    int64_t sa = signExtend(a, bits);
    int64_t sb = signExtend(b, bits);
    uint64_t r = 0;
    switch (op) {
      case BinOpcode::kAdd: r = a + b; break;
      case BinOpcode::kSub: r = a - b; break;
      case BinOpcode::kMul: r = a * b; break;
      case BinOpcode::kDiv:
        if (b == 0)
            r = ~uint64_t(0);
        else if (sgn && sb == -1)
            r = ~a + 1;
        else
            r = sgn ? uint64_t(sa / sb) : a / b;
        break;
      case BinOpcode::kMod:
        if (b == 0)
            r = a;
        else if (sgn && sb == -1)
            r = 0;
        else
            r = sgn ? uint64_t(sa % sb) : a % b;
        break;
      case BinOpcode::kAnd: r = a & b; break;
      case BinOpcode::kOr:  r = a | b; break;
      case BinOpcode::kXor: r = a ^ b; break;
      case BinOpcode::kShl: r = b >= 64 ? 0 : a << b; break;
      case BinOpcode::kShr:
        if (sgn)
            r = uint64_t(b >= 64 ? (sa < 0 ? -1 : 0) : (sa >> b));
        else
            r = b >= 64 ? 0 : a >> b;
        break;
      case BinOpcode::kEq: return a == b;
      case BinOpcode::kNe: return a != b;
      case BinOpcode::kLt: return sgn ? sa < sb : a < b;
      case BinOpcode::kLe: return sgn ? sa <= sb : a <= b;
      case BinOpcode::kGt: return sgn ? sa > sb : a > b;
      case BinOpcode::kGe: return sgn ? sa >= sb : a >= b;
    }
    return truncate(r, bits);
}

bool
isComparison(BinOpcode op)
{
    switch (op) {
      case BinOpcode::kEq: case BinOpcode::kNe: case BinOpcode::kLt:
      case BinOpcode::kLe: case BinOpcode::kGt: case BinOpcode::kGe:
        return true;
      default:
        return false;
    }
}

bool
isShift(BinOpcode op)
{
    return op == BinOpcode::kShl || op == BinOpcode::kShr;
}

/** The operator as the DSL spells it. */
Val
applyOp(BinOpcode op, Val a, Val b)
{
    switch (op) {
      case BinOpcode::kAdd: return a + b;
      case BinOpcode::kSub: return a - b;
      case BinOpcode::kMul: return a * b;
      case BinOpcode::kDiv: return a / b;
      case BinOpcode::kMod: return a % b;
      case BinOpcode::kAnd: return a & b;
      case BinOpcode::kOr:  return a | b;
      case BinOpcode::kXor: return a ^ b;
      case BinOpcode::kShl: return a << b;
      case BinOpcode::kShr: return a >> b;
      case BinOpcode::kEq:  return a == b;
      case BinOpcode::kNe:  return a != b;
      case BinOpcode::kLt:  return a < b;
      case BinOpcode::kLe:  return a <= b;
      case BinOpcode::kGt:  return a > b;
      case BinOpcode::kGe:  return a >= b;
    }
    return a;
}

class OpSemanticsTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned, bool>> {};

TEST_P(OpSemanticsTest, BothBackendsMatchReference)
{
    const auto &[op_idx, bits, sgn] = GetParam();
    const OpCase &oc = kOps[size_t(op_idx)];
    DataType ty = sgn ? intType(bits) : uintType(bits);

    Rng rng(uint64_t(op_idx) * 1000 + bits * 10 + sgn);
    std::vector<uint64_t> va(kVectors), vb(kVectors);
    for (size_t i = 0; i < kVectors; ++i) {
        va[i] = truncate(rng.next(), bits);
        // Shift amounts and the occasional zero divisor.
        if (isShift(oc.op))
            vb[i] = rng.below(bits + 2);
        else
            vb[i] = i % 7 == 0 ? 0 : truncate(rng.next(), bits);
    }

    // The design: stream operand pairs from ROMs through the operator.
    SysBuilder sb("ops");
    Arr rom_a = sb.mem("rom_a", ty, kVectors, va);
    Arr rom_b = sb.mem("rom_b", isShift(oc.op) ? uintType(8) : ty,
                       kVectors, vb);
    unsigned out_bits = isComparison(oc.op) ? 1 : bits;
    Arr out = sb.arr("out", uintType(out_bits), kVectors);
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val sel = i.trunc(std::max(1u, log2ceil(kVectors)));
        Val a = rom_a.read(sel);
        Val b = rom_b.read(sel);
        Val r = applyOp(oc.op, a, b);
        out.write(sel, r.as(uintType(out_bits)));
        idx.write(i + 1);
        when(i == kVectors - 1, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(kVectors + 2);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(kVectors + 2);
    ASSERT_TRUE(rsim.finished());

    for (size_t i = 0; i < kVectors; ++i) {
        uint64_t want =
            truncate(golden(oc.op, va[i], vb[i], bits, sgn), out_bits);
        EXPECT_EQ(esim.readArray(out.array(), i), want)
            << oc.name << " bits=" << bits << " sgn=" << sgn << " i=" << i
            << " a=" << va[i] << " b=" << vb[i];
        EXPECT_EQ(rsim.readArray(out.array(), i), want)
            << "(netlist) " << oc.name << " bits=" << bits
            << " sgn=" << sgn << " i=" << i;
    }
}

std::string
opCaseName(
    const ::testing::TestParamInfo<std::tuple<int, unsigned, bool>> &info)
{
    const auto &[op_idx, bits, sgn] = info.param;
    return std::string(kOps[size_t(op_idx)].name) + "_w" +
           std::to_string(bits) + (sgn ? "_signed" : "_unsigned");
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpSemanticsTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kOps))),
                       ::testing::Values(1u, 7u, 32u, 64u),
                       ::testing::Bool()),
    opCaseName);

// ---- One operand a literal ------------------------------------------------

/**
 * The same operators with one operand a literal k, on the rhs or the
 * lhs. The event tape lowers and to kMask, shr to kSlice, add and sub
 * to an add of k or -k, == and != to immediate compares, and keeps the
 * rest in the two-slot form with k in its slot, so each k checks a
 * lowering against golden() on both engines. k runs over 0, 1, the
 * all-ones value and the signed minimum and maximum of the literal's
 * type, plus the in-range edges bits-1 and bits for a constant shift
 * amount. The variable operand sweeps the same edge values and their
 * neighbours, so every compare boundary k+-1 is crossed.
 */
class ConstOperandSemanticsTest
    : public ::testing::TestWithParam<
          std::tuple<int, unsigned, bool, bool>> {};

/** 0, 1, all-ones, signed min and signed max of a @p bits-wide type. */
std::vector<uint64_t>
edgeValues(unsigned bits)
{
    const uint64_t m = maskBits(bits);
    return {0, 1, m, uint64_t(1) << (bits - 1), m >> 1};
}

/** Every edge value of a @p bits-wide type and its two neighbours, so
 *  a compare against an edge constant both hits and misses. */
std::vector<uint64_t>
edgeNeighbours(unsigned bits)
{
    std::vector<uint64_t> vx;
    for (uint64_t e : edgeValues(bits))
        for (uint64_t d : {uint64_t(0), uint64_t(1), ~uint64_t(0)})
            vx.push_back(truncate(e + d, bits));
    return vx;
}

TEST_P(ConstOperandSemanticsTest, BothBackendsMatchReference)
{
    const auto &[op_idx, bits, sgn, lhs_const] = GetParam();
    const OpCase &oc = kOps[size_t(op_idx)];
    const DataType ty = sgn ? intType(bits) : uintType(bits);
    // A shift amount is an 8-bit unsigned operand on either side.
    const bool shift = isShift(oc.op);
    const DataType kty = shift && !lhs_const ? uintType(8) : ty;
    const DataType xty = shift && lhs_const ? uintType(8) : ty;

    std::vector<uint64_t> ks = edgeValues(kty.bits());
    if (shift && !lhs_const) {
        ks.push_back(bits - 1);
        ks.push_back(bits);
    }
    // The variable operand: every k, its neighbours, then random.
    Rng rng(uint64_t(op_idx) * 1000 + bits * 10 + sgn * 2 + lhs_const);
    std::vector<uint64_t> vx = edgeNeighbours(xty.bits());
    while (vx.size() < kVectors)
        vx.push_back(shift && lhs_const ? rng.below(bits + 2)
                                        : truncate(rng.next(), bits));
    vx.resize(kVectors);

    SysBuilder sb("ops_imm");
    Arr rom = sb.mem("rom_x", xty, kVectors, vx);
    unsigned out_bits = isComparison(oc.op) ? 1 : bits;
    std::vector<Arr> outs;
    for (size_t j = 0; j < ks.size(); ++j)
        outs.push_back(
            sb.arr("out" + std::to_string(j), uintType(out_bits), kVectors));
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val sel = i.trunc(std::max(1u, log2ceil(kVectors)));
        Val x = rom.read(sel);
        for (size_t j = 0; j < ks.size(); ++j) {
            Val k = lit(ks[j], kty);
            Val r = lhs_const ? applyOp(oc.op, k, x) : applyOp(oc.op, x, k);
            outs[j].write(sel, r.as(uintType(out_bits)));
        }
        idx.write(i + 1);
        when(i == kVectors - 1, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(kVectors + 2);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(kVectors + 2);
    ASSERT_TRUE(rsim.finished());

    for (size_t j = 0; j < ks.size(); ++j) {
        for (size_t i = 0; i < kVectors; ++i) {
            const uint64_t a = lhs_const ? ks[j] : vx[i];
            const uint64_t b = lhs_const ? vx[i] : ks[j];
            uint64_t want = truncate(golden(oc.op, a, b, bits, sgn), out_bits);
            EXPECT_EQ(esim.readArray(outs[j].array(), i), want)
                << oc.name << " bits=" << bits << " sgn=" << sgn
                << " a=" << a << " b=" << b;
            EXPECT_EQ(rsim.readArray(outs[j].array(), i), want)
                << "(netlist) " << oc.name << " bits=" << bits
                << " sgn=" << sgn << " a=" << a << " b=" << b;
        }
    }
}

std::string
constCaseName(const ::testing::TestParamInfo<
              std::tuple<int, unsigned, bool, bool>> &info)
{
    const auto &[op_idx, bits, sgn, lhs_const] = info.param;
    return std::string(kOps[size_t(op_idx)].name) + "_w" +
           std::to_string(bits) + (sgn ? "_signed" : "_unsigned") +
           (lhs_const ? "_lhs" : "_rhs");
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ConstOperandSemanticsTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kOps))),
                       ::testing::Values(1u, 7u, 32u, 64u),
                       ::testing::Bool(), ::testing::Bool()),
    constCaseName);

// ---- Both operands literals, and the debugger's evaluator ---------------

/**
 * Every edge pair of @p op at @p bits: the edge values of the lhs type
 * against those of the rhs type (an 8-bit shift amount for shifts, plus
 * the in-range edges bits-1 and bits). This takes in x / 0, x % 0,
 * INT_MIN / -1 (the signed minimum over all-ones) and shifts by the
 * width and beyond.
 */
std::vector<std::pair<uint64_t, uint64_t>>
edgePairs(BinOpcode op, unsigned bits)
{
    std::vector<uint64_t> ks = edgeValues(isShift(op) ? 8 : bits);
    if (isShift(op)) {
        ks.push_back(bits - 1);
        ks.push_back(bits);
    }
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t a : edgeValues(bits))
        for (uint64_t b : ks)
            pairs.emplace_back(a, b);
    return pairs;
}

/**
 * The operators with both operands literals, one register per edge
 * pair. Nothing is left for the engines to compute: the compiler's
 * constant folder (core/compiler/fold.cc) folds each op by default, and
 * with CompileOptions::run_fold off sim::Program folds it into a slot
 * initial value while the netlist evaluates the literal cells every
 * cycle. Both engines are checked against golden().
 */
class ConstFoldSemanticsTest
    : public ::testing::TestWithParam<
          std::tuple<int, unsigned, bool, bool>> {};

TEST_P(ConstFoldSemanticsTest, BothBackendsMatchReference)
{
    const auto &[op_idx, bits, sgn, run_fold] = GetParam();
    const OpCase &oc = kOps[size_t(op_idx)];
    const DataType ty = sgn ? intType(bits) : uintType(bits);
    const DataType bty = isShift(oc.op) ? uintType(8) : ty;
    const unsigned out_bits = isComparison(oc.op) ? 1 : bits;
    const auto pairs = edgePairs(oc.op, bits);

    SysBuilder sb("ops_fold");
    std::vector<Reg> outs;
    for (size_t j = 0; j < pairs.size(); ++j)
        outs.push_back(sb.reg("out" + std::to_string(j), uintType(out_bits)));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        for (size_t j = 0; j < pairs.size(); ++j) {
            Val r = applyOp(oc.op, lit(pairs[j].first, ty),
                            lit(pairs[j].second, bty));
            outs[j].write(r.as(uintType(out_bits)));
        }
    }
    CompileOptions opts;
    opts.run_fold = run_fold;
    compile(sb.sys(), opts);

    sim::Simulator esim(sb.sys());
    esim.run(2);
    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(2);

    for (size_t j = 0; j < pairs.size(); ++j) {
        const auto [a, b] = pairs[j];
        const uint64_t want =
            truncate(golden(oc.op, a, b, bits, sgn), out_bits);
        EXPECT_EQ(esim.readArray(outs[j].array(), 0), want)
            << oc.name << " bits=" << bits << " sgn=" << sgn
            << " fold=" << run_fold << " a=" << a << " b=" << b;
        EXPECT_EQ(rsim.readArray(outs[j].array(), 0), want)
            << "(netlist) " << oc.name << " bits=" << bits
            << " sgn=" << sgn << " fold=" << run_fold << " a=" << a
            << " b=" << b;
    }
}

std::string
foldCaseName(const ::testing::TestParamInfo<
             std::tuple<int, unsigned, bool, bool>> &info)
{
    const auto &[op_idx, bits, sgn, run_fold] = info.param;
    return std::string(kOps[size_t(op_idx)].name) + "_w" +
           std::to_string(bits) + (sgn ? "_signed" : "_unsigned") +
           (run_fold ? "_fold" : "_nofold");
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ConstFoldSemanticsTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kOps))),
                       ::testing::Values(1u, 7u, 32u, 64u),
                       ::testing::Bool(), ::testing::Bool()),
    foldCaseName);

/**
 * The debugger's evaluator (debug::evalValue) at the same edge pairs:
 * each operand is a ROM read holding an edge value, so the op stays in
 * both engines' tapes and evalValue re-evaluates it over committed
 * state. On each engine it must equal golden() and the value the
 * engine itself committed.
 */
class DebugEvalSemanticsTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned, bool>> {};

TEST_P(DebugEvalSemanticsTest, EvalValueMatchesEnginesAndReference)
{
    const auto &[op_idx, bits, sgn] = GetParam();
    const OpCase &oc = kOps[size_t(op_idx)];
    const DataType ty = sgn ? intType(bits) : uintType(bits);
    const DataType bty = isShift(oc.op) ? uintType(8) : ty;
    const unsigned out_bits = isComparison(oc.op) ? 1 : bits;
    const auto pairs = edgePairs(oc.op, bits);
    std::vector<uint64_t> va, vb;
    for (const auto &[a, b] : pairs) {
        va.push_back(a);
        vb.push_back(b);
    }

    SysBuilder sb("ops_debug");
    Arr rom_a = sb.mem("rom_a", ty, pairs.size(), va);
    Arr rom_b = sb.mem("rom_b", bty, pairs.size(), vb);
    std::vector<Reg> outs;
    std::vector<const Value *> results;
    Stage d = sb.driver();
    {
        StageScope scope(d);
        for (size_t j = 0; j < pairs.size(); ++j) {
            Val r = applyOp(oc.op, rom_a.read(j), rom_b.read(j));
            outs.push_back(
                sb.reg("out" + std::to_string(j), uintType(out_bits)));
            outs[j].write(r.as(uintType(out_bits)));
            results.push_back(r.node());
        }
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(2);
    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(2);

    for (size_t j = 0; j < pairs.size(); ++j) {
        const auto [a, b] = pairs[j];
        const uint64_t want =
            truncate(golden(oc.op, a, b, bits, sgn), out_bits);
        for (const sim::Engine *engine :
             {static_cast<const sim::Engine *>(&esim),
              static_cast<const sim::Engine *>(&rsim)}) {
            const bool netlist = engine == &rsim;
            EXPECT_EQ(debug::evalValue(results[j], *engine), want)
                << (netlist ? "(netlist) " : "") << oc.name
                << " bits=" << bits << " sgn=" << sgn << " a=" << a
                << " b=" << b;
            EXPECT_EQ(engine->readArray(outs[j].array(), 0), want)
                << (netlist ? "(netlist) " : "") << oc.name
                << " bits=" << bits << " sgn=" << sgn << " a=" << a
                << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, DebugEvalSemanticsTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kOps))),
                       ::testing::Values(1u, 7u, 32u, 64u),
                       ::testing::Bool()),
    opCaseName);

// ---- Unary operators, casts, slice, concat, select, array read ------------

enum class Shape {
    kNot, kNeg, kRedOr, kRedAnd, kZExt, kSExt, kTrunc, kBitcast,
    kSliceLo, kSliceHi, kConcat, kSelect, kArrayRead,
};

const char *const kShapeNames[] = {
    "not",     "neg",      "redor",    "redand", "zext",
    "sext",    "trunc",    "bitcast",  "slice_lo", "slice_hi",
    "concat",  "select",   "arrayread",
};

/** Widths of the two concat halves for a @p bits-wide operand. */
std::pair<unsigned, unsigned>
concatSplit(unsigned bits)
{
    if (bits == 1)
        return {1, 1};
    return {bits - bits / 2, bits / 2};
}

/**
 * The reference model for one shape: @p a and @p b are operands of
 * @p bits bits, @p c a 1-bit select, @p tbl the array @p a's ROM index
 * reads when the shape is kArrayRead (index @p a, possibly past the
 * end). @p out_bits receives the result width.
 */
uint64_t
goldenShape(Shape sh, uint64_t a, uint64_t b, uint64_t c, unsigned bits,
            const std::vector<uint64_t> &tbl, unsigned &out_bits)
{
    const uint64_t m = maskBits(bits);
    out_bits = bits;
    switch (sh) {
      case Shape::kNot: return ~a & m;
      case Shape::kNeg: return (~a + 1) & m;
      case Shape::kRedOr: out_bits = 1; return a != 0;
      case Shape::kRedAnd: out_bits = 1; return a == m;
      case Shape::kZExt: out_bits = 64; return a;
      case Shape::kSExt:
        out_bits = 64;
        return uint64_t(signExtend(a, bits));
      case Shape::kTrunc:
        out_bits = std::max(1u, bits / 2);
        return truncate(a, out_bits);
      case Shape::kBitcast: return a;
      case Shape::kSliceLo:
        out_bits = (bits - 1) / 2 + 1;
        return truncate(a, out_bits);
      case Shape::kSliceHi:
        out_bits = bits - bits / 2;
        return a >> (bits / 2);
      case Shape::kConcat: {
        auto [mb, lb] = concatSplit(bits);
        out_bits = mb + lb;
        return (truncate(a, mb) << lb) | truncate(b, lb);
      }
      case Shape::kSelect: return c ? a : b;
      case Shape::kArrayRead: return a < tbl.size() ? tbl[a] : 0;
    }
    return 0;
}

class ShapeSemanticsTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned, bool>> {};

TEST_P(ShapeSemanticsTest, BothBackendsMatchReference)
{
    const auto &[shape_idx, bits, sgn] = GetParam();
    const Shape sh = static_cast<Shape>(shape_idx);
    const char *name = kShapeNames[shape_idx];
    DataType ty = sgn ? intType(bits) : uintType(bits);
    const uint64_t m = maskBits(bits);

    Rng rng(uint64_t(shape_idx) * 1000 + bits * 10 + sgn + 7);
    std::vector<uint64_t> va(kVectors), vb(kVectors), vc(kVectors),
        tbl(kVectors);
    for (size_t i = 0; i < kVectors; ++i) {
        va[i] = truncate(rng.next(), bits);
        vb[i] = truncate(rng.next(), bits);
        vc[i] = rng.below(2);
        tbl[i] = truncate(rng.next(), bits);
    }
    // Edge operands: zero, all-ones, the sign bit alone, the largest
    // positive value.
    va[0] = 0;
    va[1] = m;
    va[2] = uint64_t(1) << (bits - 1);
    va[3] = m >> 1;
    // The array read indexes with `a`: half the indices past the end.
    if (sh == Shape::kArrayRead)
        for (size_t i = 0; i < kVectors; ++i)
            va[i] = rng.below(2 * kVectors);

    SysBuilder sb("shapes");
    Arr rom_a = sb.mem("rom_a",
                       sh == Shape::kArrayRead ? uintType(8) : ty,
                       kVectors, va);
    Arr rom_b = sb.mem("rom_b", ty, kVectors, vb);
    Arr rom_c = sb.mem("rom_c", uintType(1), kVectors, vc);
    Arr table = sb.mem("table", ty, kVectors, tbl);
    unsigned out_bits = 0;
    goldenShape(sh, 0, 0, 0, bits, tbl, out_bits);
    Arr out = sb.arr("out", uintType(out_bits), kVectors);
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val sel = i.trunc(std::max(1u, log2ceil(kVectors)));
        Val a = rom_a.read(sel);
        Val b = rom_b.read(sel);
        Val r;
        switch (sh) {
          case Shape::kNot: r = ~a; break;
          case Shape::kNeg: r = -a; break;
          case Shape::kRedOr: r = a.orReduce(); break;
          case Shape::kRedAnd: r = a.andReduce(); break;
          case Shape::kZExt: r = a.zext(64); break;
          case Shape::kSExt: r = a.sext(64); break;
          case Shape::kTrunc: r = a.trunc(std::max(1u, bits / 2)); break;
          case Shape::kBitcast:
            r = a.as(sgn ? uintType(bits) : intType(bits));
            break;
          case Shape::kSliceLo: r = a.slice((bits - 1) / 2, 0); break;
          case Shape::kSliceHi: r = a.slice(bits - 1, bits / 2); break;
          case Shape::kConcat: {
            auto [mb, lb] = concatSplit(bits);
            r = a.trunc(mb).concat(b.trunc(lb));
            break;
          }
          case Shape::kSelect: r = select(rom_c.read(sel), a, b); break;
          case Shape::kArrayRead: r = table.read(a); break;
        }
        out.write(sel, r.as(uintType(out_bits)));
        idx.write(i + 1);
        when(i == kVectors - 1, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(kVectors + 2);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(kVectors + 2);
    ASSERT_TRUE(rsim.finished());

    for (size_t i = 0; i < kVectors; ++i) {
        unsigned ob = 0;
        uint64_t want = goldenShape(sh, va[i], vb[i], vc[i], bits, tbl, ob);
        EXPECT_EQ(esim.readArray(out.array(), i), want)
            << name << " bits=" << bits << " sgn=" << sgn << " i=" << i
            << " a=" << va[i] << " b=" << vb[i] << " c=" << vc[i];
        EXPECT_EQ(rsim.readArray(out.array(), i), want)
            << "(netlist) " << name << " bits=" << bits << " sgn=" << sgn
            << " i=" << i;
    }
}

std::string
shapeCaseName(
    const ::testing::TestParamInfo<std::tuple<int, unsigned, bool>> &info)
{
    const auto &[shape_idx, bits, sgn] = info.param;
    return std::string(kShapeNames[shape_idx]) + "_w" +
           std::to_string(bits) + (sgn ? "_signed" : "_unsigned");
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ShapeSemanticsTest,
    ::testing::Combine(::testing::Range(0, int(std::size(kShapeNames))),
                       ::testing::Values(1u, 7u, 33u, 63u, 64u),
                       ::testing::Bool()),
    shapeCaseName);

// ---- Constant arms and halves ---------------------------------------------

/**
 * Select, concat and the decode compare-select with constant operands.
 * The event tape keeps each constant in its slot and runs the two-slot
 * step (kSelect, kConcat), the decode compare as an immediate compare
 * (kEqImm, kNeImm) feeding a kSelect; the netlist evaluates two-slot
 * cells. Constants run over the edge values of the operand width, so
 * at 33 and 64 bits an arm is wider than 32 bits.
 */
enum class ConstShape {
    kSelConstTrue,   ///< c ? K : b
    kSelConstFalse,  ///< c ? a : K
    kSelConstBoth,   ///< c ? K : K2
    kConcatConstMsb, ///< {K, b}
    kConcatConstLsb, ///< {a, K}
    kEqDecode,       ///< (a == K) ? K2 : b
    kNeDecode,       ///< (a != K) ? b : K2
    kDecodeChain,    ///< (a == K) ? K2 : (a == K3) ? K4 : b
};

const char *const kConstShapeNames[] = {
    "sel_const_true", "sel_const_false", "sel_const_both",
    "concat_const_msb", "concat_const_lsb", "eq_decode", "ne_decode",
    "decode_chain",
};

class ConstArmSemanticsTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ConstArmSemanticsTest, BothBackendsMatchReference)
{
    const auto &[shape_idx, bits] = GetParam();
    const ConstShape sh = static_cast<ConstShape>(shape_idx);
    const char *name = kConstShapeNames[shape_idx];
    const DataType ty = uintType(bits);
    const auto [mb, lb] = concatSplit(bits);
    const bool concat = sh == ConstShape::kConcatConstMsb ||
                        sh == ConstShape::kConcatConstLsb;
    const unsigned out_bits = concat ? mb + lb : bits;
    // The constant's own width: a concat half, else the operand width.
    const unsigned kbits = sh == ConstShape::kConcatConstMsb   ? mb
                           : sh == ConstShape::kConcatConstLsb ? lb
                                                               : bits;
    const std::vector<uint64_t> ks = edgeValues(kbits);
    // The j-th case's constants: K = ks[j] and its successors.
    auto constAt = [&](size_t j, size_t n) {
        return ks[(j + n) % ks.size()];
    };

    Rng rng(uint64_t(shape_idx) * 1000 + bits * 10 + 3);
    std::vector<uint64_t> va = edgeNeighbours(bits), vb(kVectors),
                          vc(kVectors);
    while (va.size() < kVectors)
        va.push_back(truncate(rng.next(), bits));
    va.resize(kVectors);
    for (size_t i = 0; i < kVectors; ++i) {
        vb[i] = truncate(rng.next(), bits);
        vc[i] = i % 2;
    }

    SysBuilder sb("const_arms");
    Arr rom_a = sb.mem("rom_a", ty, kVectors, va);
    Arr rom_b = sb.mem("rom_b", ty, kVectors, vb);
    Arr rom_c = sb.mem("rom_c", uintType(1), kVectors, vc);
    std::vector<Arr> outs;
    for (size_t j = 0; j < ks.size(); ++j)
        outs.push_back(
            sb.arr("out" + std::to_string(j), uintType(out_bits), kVectors));
    Reg idx = sb.reg("idx", uintType(8));
    Stage d = sb.driver();
    {
        StageScope scope(d);
        Val i = idx.read();
        Val sel = i.trunc(std::max(1u, log2ceil(kVectors)));
        Val a = rom_a.read(sel);
        Val b = rom_b.read(sel);
        Val c = rom_c.read(sel);
        for (size_t j = 0; j < ks.size(); ++j) {
            auto k = [&](size_t n) {
                return lit(constAt(j, n), uintType(kbits));
            };
            Val r;
            switch (sh) {
              case ConstShape::kSelConstTrue: r = select(c, k(0), b); break;
              case ConstShape::kSelConstFalse: r = select(c, a, k(0)); break;
              case ConstShape::kSelConstBoth:
                r = select(c, k(0), k(1));
                break;
              case ConstShape::kConcatConstMsb:
                r = k(0).concat(b.trunc(lb));
                break;
              case ConstShape::kConcatConstLsb:
                r = a.trunc(mb).concat(k(0));
                break;
              case ConstShape::kEqDecode:
                r = select(a == k(0), k(1), b);
                break;
              case ConstShape::kNeDecode:
                r = select(a != k(0), b, k(1));
                break;
              case ConstShape::kDecodeChain:
                r = select(a == k(0), k(1), select(a == k(2), k(3), b));
                break;
            }
            outs[j].write(sel, r);
        }
        idx.write(i + 1);
        when(i == kVectors - 1, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator esim(sb.sys());
    esim.run(kVectors + 2);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim rsim(nl);
    rsim.run(kVectors + 2);
    ASSERT_TRUE(rsim.finished());

    for (size_t j = 0; j < ks.size(); ++j) {
        for (size_t i = 0; i < kVectors; ++i) {
            const uint64_t a = va[i], b = vb[i];
            uint64_t want = 0;
            switch (sh) {
              case ConstShape::kSelConstTrue:
                want = vc[i] ? constAt(j, 0) : b;
                break;
              case ConstShape::kSelConstFalse:
                want = vc[i] ? a : constAt(j, 0);
                break;
              case ConstShape::kSelConstBoth:
                want = vc[i] ? constAt(j, 0) : constAt(j, 1);
                break;
              case ConstShape::kConcatConstMsb:
                want = (constAt(j, 0) << lb) | truncate(b, lb);
                break;
              case ConstShape::kConcatConstLsb:
                want = (truncate(a, mb) << lb) | constAt(j, 0);
                break;
              case ConstShape::kEqDecode:
                want = a == constAt(j, 0) ? constAt(j, 1) : b;
                break;
              case ConstShape::kNeDecode:
                want = a != constAt(j, 0) ? b : constAt(j, 1);
                break;
              case ConstShape::kDecodeChain:
                want = a == constAt(j, 0)   ? constAt(j, 1)
                       : a == constAt(j, 2) ? constAt(j, 3)
                                            : b;
                break;
            }
            EXPECT_EQ(esim.readArray(outs[j].array(), i), want)
                << name << " bits=" << bits << " j=" << j << " a=" << a
                << " b=" << b << " c=" << vc[i];
            EXPECT_EQ(rsim.readArray(outs[j].array(), i), want)
                << "(netlist) " << name << " bits=" << bits << " j=" << j
                << " i=" << i;
        }
    }
}

std::string
constArmCaseName(
    const ::testing::TestParamInfo<std::tuple<int, unsigned>> &info)
{
    const auto &[shape_idx, bits] = info.param;
    return std::string(kConstShapeNames[shape_idx]) + "_w" +
           std::to_string(bits);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ConstArmSemanticsTest,
    ::testing::Combine(
        ::testing::Range(0, int(std::size(kConstShapeNames))),
        ::testing::Values(1u, 7u, 33u, 64u)),
    constArmCaseName);

} // namespace
} // namespace assassyn
