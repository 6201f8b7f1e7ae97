/**
 * @file
 * Cross-check of the semantics kernel (sim/tape.h) against an
 * independently coded 128-bit reference model.
 *
 * The kernel's rows are the single definition every engine executes
 * (event simulator, netlist simulator, both constant folders, the
 * debugger's evaluator), so a bug there would stay self-consistent
 * across backends and slip past the alignment tests. This suite breaks
 * that symmetry: each case is encoded from IR widths (encodeBin /
 * encodeUn / encodeCast / encodeSlice / encodeConcat) and evaluated by
 * evalPure, so encoder and row are checked together, while the
 * reference below computes each operator in __int128 arithmetic with
 * explicit special cases, written without looking at the rows.
 * Coverage is exhaustive over all operand pairs at widths 1-4 and
 * randomized (plus forced edge operands) at every width 1-64, both
 * signednesses, for every BinOpcode, UnOpcode, and Cast mode.
 */
#include <gtest/gtest.h>

#include "sim/tape.h"
#include "support/rng.h"

namespace assassyn {
namespace {

using i128 = __int128;
using u128 = unsigned __int128;

uint64_t
evalBin(BinOpcode op, uint64_t a, uint64_t b, unsigned bits, bool sgn,
        unsigned out_bits)
{
    sim::DStep s;
    sim::encodeBin(s, op, sgn, bits, out_bits);
    return sim::evalPure(s, a, b);
}

uint64_t
evalUn(UnOpcode op, uint64_t x, unsigned bits, unsigned out_bits)
{
    sim::DStep s;
    sim::encodeUn(s, op, bits, out_bits);
    return sim::evalPure(s, x, 0);
}

uint64_t
evalCast(Cast::Mode mode, uint64_t x, unsigned src_bits, unsigned out_bits)
{
    sim::DStep s;
    sim::encodeCast(s, mode, src_bits, out_bits);
    return sim::evalPure(s, x, 0);
}

uint64_t
evalSlice(uint64_t x, unsigned hi, unsigned lo)
{
    sim::DStep s;
    sim::encodeSlice(s, hi, lo);
    return sim::evalPure(s, x, 0);
}

uint64_t
evalConcat(uint64_t msb, uint64_t lsb, unsigned lsb_bits, unsigned out_bits)
{
    sim::DStep s;
    sim::encodeConcat(s, lsb_bits, out_bits);
    return sim::evalPure(s, msb, lsb);
}

bool
isCmp(BinOpcode op)
{
    switch (op) {
      case BinOpcode::kEq: case BinOpcode::kNe: case BinOpcode::kLt:
      case BinOpcode::kLe: case BinOpcode::kGt: case BinOpcode::kGe:
        return true;
      default:
        return false;
    }
}

/** Reference: 128-bit arithmetic, then wrap to the output width. */
uint64_t
refBin(BinOpcode op, uint64_t a, uint64_t b, unsigned bits, bool sgn,
       unsigned out_bits)
{
    i128 A = sgn ? i128(signExtend(a, bits)) : i128(a);
    i128 B = sgn ? i128(signExtend(b, bits)) : i128(b);
    i128 r = 0;
    switch (op) {
      case BinOpcode::kAdd: r = A + B; break;
      case BinOpcode::kSub: r = A - B; break;
      // Unsigned: the signed product of two 64-bit operands can
      // overflow 128 bits; the low 64 bits are the same either way.
      case BinOpcode::kMul: r = i128(u128(A) * u128(B)); break;
      case BinOpcode::kDiv:
        // RISC-V contract: x / 0 is all-ones. INT_MIN / -1 cannot
        // overflow in 128 bits, so no special case is needed here.
        r = B == 0 ? i128(-1) : A / B;
        break;
      case BinOpcode::kMod:
        r = B == 0 ? A : A % B;
        break;
      case BinOpcode::kAnd: r = i128(a & b); break;
      case BinOpcode::kOr:  r = i128(a | b); break;
      case BinOpcode::kXor: r = i128(a ^ b); break;
      case BinOpcode::kShl:
        r = b >= 64 ? 0 : i128(a) << b;
        break;
      case BinOpcode::kShr:
        if (sgn)
            r = i128(signExtend(a, bits)) >> (b >= 64 ? 127 : b);
        else
            r = b >= 64 ? 0 : i128(a) >> b;
        break;
      case BinOpcode::kEq: r = A == B; break;
      case BinOpcode::kNe: r = A != B; break;
      case BinOpcode::kLt: r = A < B; break;
      case BinOpcode::kLe: r = A <= B; break;
      case BinOpcode::kGt: r = A > B; break;
      case BinOpcode::kGe: r = A >= B; break;
    }
    return truncate(static_cast<uint64_t>(r), out_bits);
}

constexpr BinOpcode kAllBin[] = {
    BinOpcode::kAdd, BinOpcode::kSub, BinOpcode::kMul, BinOpcode::kDiv,
    BinOpcode::kMod, BinOpcode::kAnd, BinOpcode::kOr,  BinOpcode::kXor,
    BinOpcode::kShl, BinOpcode::kShr, BinOpcode::kEq,  BinOpcode::kNe,
    BinOpcode::kLt,  BinOpcode::kLe,  BinOpcode::kGt,  BinOpcode::kGe,
};

void
checkPair(BinOpcode op, uint64_t a, uint64_t b, unsigned bits, bool sgn)
{
    unsigned out_bits = isCmp(op) ? 1 : bits;
    ASSERT_EQ(evalBin(op, a, b, bits, sgn, out_bits),
              refBin(op, a, b, bits, sgn, out_bits))
        << "op=" << int(op) << " bits=" << bits << " sgn=" << sgn
        << " a=" << a << " b=" << b;
}

TEST(OpsCrossCheck, BinExhaustiveSmallWidths)
{
    for (unsigned bits = 1; bits <= 4; ++bits)
        for (BinOpcode op : kAllBin)
            for (int sgn = 0; sgn <= 1; ++sgn)
                for (uint64_t a = 0; a <= maskBits(bits); ++a)
                    for (uint64_t b = 0; b <= maskBits(bits); ++b)
                        checkPair(op, a, b, bits, sgn != 0);
}

TEST(OpsCrossCheck, BinRandomizedAllWidths)
{
    Rng rng(0xc0ffee);
    for (unsigned bits = 1; bits <= 64; ++bits) {
        uint64_t min_val = uint64_t(1) << (bits - 1); // signed minimum
        uint64_t mask = maskBits(bits);               // signed -1
        const uint64_t edges[] = {0, 1, mask, min_val, mask - 1};
        for (BinOpcode op : kAllBin) {
            for (int sgn = 0; sgn <= 1; ++sgn) {
                for (uint64_t ea : edges)
                    for (uint64_t eb : edges)
                        checkPair(op, ea, eb, bits, sgn != 0);
                for (int i = 0; i < 16; ++i) {
                    uint64_t a = truncate(rng.next(), bits);
                    uint64_t b = truncate(rng.next(), bits);
                    // Out-of-range shift amounts and zero divisors.
                    if (op == BinOpcode::kShl || op == BinOpcode::kShr)
                        b = rng.next() % (2 * bits + 4);
                    else if (i % 5 == 0)
                        b = 0;
                    checkPair(op, a, b, bits, sgn != 0);
                }
            }
        }
    }
}

TEST(OpsCrossCheck, UnAllWidths)
{
    Rng rng(0xdecade);
    for (unsigned bits = 1; bits <= 64; ++bits) {
        const uint64_t samples[] = {0, 1, maskBits(bits),
                                    uint64_t(1) << (bits - 1),
                                    truncate(rng.next(), bits)};
        for (uint64_t x : samples) {
            EXPECT_EQ(evalUn(UnOpcode::kNot, x, bits, bits),
                      truncate(~x, bits));
            // neg(x) == 0 - x at this width, per the reference model.
            EXPECT_EQ(evalUn(UnOpcode::kNeg, x, bits, bits),
                      refBin(BinOpcode::kSub, 0, x, bits, false, bits));
            EXPECT_EQ(evalUn(UnOpcode::kRedOr, x, bits, 1),
                      uint64_t(x != 0));
            EXPECT_EQ(evalUn(UnOpcode::kRedAnd, x, bits, 1),
                      uint64_t(x == maskBits(bits)));
        }
    }
}

TEST(OpsCrossCheck, CastAllWidthPairs)
{
    Rng rng(0xcafe);
    for (unsigned src = 1; src <= 64; src += 3) {
        for (unsigned dst = 1; dst <= 64; dst += 5) {
            for (int i = 0; i < 8; ++i) {
                uint64_t x = truncate(rng.next(), src);
                EXPECT_EQ(evalCast(Cast::Mode::kZExt, x, src, dst),
                          truncate(x, dst));
                EXPECT_EQ(evalCast(Cast::Mode::kTrunc, x, src, dst),
                          truncate(x, dst));
                EXPECT_EQ(evalCast(Cast::Mode::kBitcast, x, src, dst),
                          truncate(x, dst));
                uint64_t sext = static_cast<uint64_t>(
                    i128(signExtend(x, src)));
                EXPECT_EQ(evalCast(Cast::Mode::kSExt, x, src, dst),
                          truncate(sext, dst))
                    << "src=" << src << " dst=" << dst << " x=" << x;
            }
        }
    }
}

TEST(OpsCrossCheck, SliceAndConcat)
{
    Rng rng(0xbead);
    for (int i = 0; i < 200; ++i) {
        uint64_t x = rng.next();
        unsigned lo = rng.next() % 64;
        unsigned hi = lo + rng.next() % (64 - lo);
        EXPECT_EQ(evalSlice(x, hi, lo),
                  (x >> lo) & maskBits(hi - lo + 1));

        unsigned lsb_bits = 1 + rng.next() % 63;
        unsigned msb_bits = 1 + rng.next() % (64 - lsb_bits);
        uint64_t msb = truncate(rng.next(), msb_bits);
        uint64_t lsb = truncate(rng.next(), lsb_bits);
        unsigned out = msb_bits + lsb_bits;
        EXPECT_EQ(evalConcat(msb, lsb, lsb_bits, out),
                  truncate((i128(msb) << lsb_bits) | lsb, out));
    }
}

} // namespace
} // namespace assassyn
