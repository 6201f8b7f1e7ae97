/**
 * @file
 * Assassyn's scalar operator semantics at IR level (opcode, operand and
 * output widths).
 *
 * Its callers are the compiler's constant folder (core/compiler/fold.cc),
 * sim::Program's constant folder (sim/program.cc), the debugger's
 * expression evaluator (debug/eval.cc) and, inside both engines' tapes,
 * only the rare-op handler kBinGeneric (div/mod, sim/pure_ops.inc).
 * Every other pure op of both engines is the DStep-level copy in
 * sim/pure_ops.inc, which agrees with this one because
 * tests/ops_cross_check_test.cc (an exhaustive randomized sweep over
 * all opcodes × widths 1–64 × signedness) and
 * tests/op_semantics_test.cc each check one of them against a
 * reference.
 *
 * The semantic contract (all operands carried in uint64_t, low
 * `opnd_bits` significant):
 *  - arithmetic wraps modulo 2^out_bits;
 *  - division by zero yields all-ones (RISC-V), x % 0 yields x (the
 *    emitted SystemVerilog guards both cases to match, rtl/verilog.cc);
 *  - signed INT_MIN / -1 yields -INT_MIN mod 2^bits, INT_MIN % -1 is 0;
 *  - shifts by >= 64 flush to 0 (or the sign fill for arithmetic
 *    right shifts); in-range shifts use the host shifter and are then
 *    truncated;
 *  - comparisons honour the *operand* signedness at `opnd_bits`.
 */
#pragma once

#include "core/ir/instruction.h"
#include "support/bits.h"

namespace assassyn {
namespace ops {

/** Evaluate a two-operand operator. */
inline uint64_t
evalBin(BinOpcode op, uint64_t a, uint64_t b, unsigned opnd_bits, bool sgn,
        unsigned out_bits)
{
    int64_t sa = signExtend(a, opnd_bits);
    int64_t sb = signExtend(b, opnd_bits);
    uint64_t r = 0;
    switch (op) {
      case BinOpcode::kAdd: r = a + b; break;
      case BinOpcode::kSub: r = a - b; break;
      case BinOpcode::kMul: r = a * b; break;
      case BinOpcode::kDiv:
        if (b == 0)
            r = ~uint64_t(0); // RISC-V style div-by-zero
        else if (sgn && sb == -1)
            r = ~a + 1; // overflow-safe: -a mod 2^64
        else
            r = sgn ? static_cast<uint64_t>(sa / sb) : a / b;
        break;
      case BinOpcode::kMod:
        if (b == 0)
            r = a;
        else if (sgn && sb == -1)
            r = 0;
        else
            r = sgn ? static_cast<uint64_t>(sa % sb) : a % b;
        break;
      case BinOpcode::kAnd: r = a & b; break;
      case BinOpcode::kOr:  r = a | b; break;
      case BinOpcode::kXor: r = a ^ b; break;
      case BinOpcode::kShl: r = b >= 64 ? 0 : a << b; break;
      case BinOpcode::kShr:
        if (sgn)
            r = static_cast<uint64_t>(
                b >= 64 ? (sa < 0 ? -1 : 0) : (sa >> b));
        else
            r = b >= 64 ? 0 : a >> b;
        break;
      case BinOpcode::kEq: r = a == b; break;
      case BinOpcode::kNe: r = a != b; break;
      case BinOpcode::kLt: r = sgn ? (sa < sb) : (a < b); break;
      case BinOpcode::kLe: r = sgn ? (sa <= sb) : (a <= b); break;
      case BinOpcode::kGt: r = sgn ? (sa > sb) : (a > b); break;
      case BinOpcode::kGe: r = sgn ? (sa >= sb) : (a >= b); break;
    }
    return truncate(r, out_bits);
}

/** Evaluate a one-operand operator. */
inline uint64_t
evalUn(UnOpcode op, uint64_t x, unsigned opnd_bits, unsigned out_bits)
{
    switch (op) {
      case UnOpcode::kNot:    return truncate(~x, out_bits);
      case UnOpcode::kNeg:    return truncate(~x + 1, out_bits);
      case UnOpcode::kRedOr:  return x != 0;
      case UnOpcode::kRedAnd: return x == maskBits(opnd_bits);
    }
    return 0;
}

/** Evaluate a width / signedness conversion. */
inline uint64_t
evalCast(Cast::Mode mode, uint64_t x, unsigned src_bits, unsigned out_bits)
{
    switch (mode) {
      case Cast::Mode::kZExt:
      case Cast::Mode::kBitcast:
      case Cast::Mode::kTrunc:
        return truncate(x, out_bits);
      case Cast::Mode::kSExt:
        return truncate(static_cast<uint64_t>(signExtend(x, src_bits)),
                        out_bits);
    }
    return 0;
}

/** Evaluate a bit slice [lo, hi] (inclusive). */
inline uint64_t
evalSlice(uint64_t x, unsigned hi, unsigned lo)
{
    return extractBits(x, hi, lo);
}

/** Evaluate a concatenation {msb, lsb} with `lsb_bits` low bits. */
inline uint64_t
evalConcat(uint64_t msb, uint64_t lsb, unsigned lsb_bits, unsigned out_bits)
{
    return truncate((msb << lsb_bits) | lsb, out_bits);
}

} // namespace ops
} // namespace assassyn
