/**
 * @file
 * The semantics kernel: the 24-byte step record (DStep) both engines
 * run, the opcode space (DOp), the meaning of every pure opcode written
 * once as an `X(name, expr)` row, the encoders from IR widths to steps,
 * and evalPure(), the evaluator of one pure step.
 *
 * Every consumer of operator semantics goes through these rows: the
 * event engine's runTape (sim/simulator.cc) and the netlist engine's
 * (rtl/netlist_sim.cc) expand them into their threaded handlers
 * (ASSASSYN_PURE_HANDLERS); the compiler's constant folder
 * (core/compiler/fold.cc), sim::Program's all-constant folder and the
 * debugger's evaluator (debug/eval.cc) call encodeInstr() then
 * evalPure(). Cross-engine and folded-versus-unfolded identity
 * therefore hold by construction. The header is self-contained so that
 * the core library, which does not link the simulator, can fold
 * through it.
 *
 * The semantic contract (operands carried in uint64_t, low operand
 * bits significant):
 *  - arithmetic wraps modulo 2^out_bits;
 *  - division by zero yields all-ones (RISC-V), x % 0 yields x (the
 *    emitted SystemVerilog guards both cases to match, rtl/verilog.cc);
 *  - signed INT_MIN / -1 yields -INT_MIN mod 2^bits, INT_MIN % -1 is 0;
 *  - shifts by >= 64 flush to 0 (or the sign fill for arithmetic
 *    right shifts); in-range shifts use the host shifter and are then
 *    truncated;
 *  - comparisons honour the *operand* signedness at the operand width.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ir/instruction.h"
#include "support/bits.h"
#include "support/logging.h"

namespace assassyn {

/** Sign-extend @p x from bit 63 - @p sh: the x8 shift pair. */
inline constexpr int64_t
sextBy(uint64_t x, unsigned sh)
{
    return int64_t(x << sh) >> sh;
}

/** Division and remainder (the rare ops behind kBinGeneric), with the
 *  contract's zero-divisor and INT_MIN / -1 cases. Kept out of line so
 *  its divides do not crowd the registers of the runTape loops. */
[[gnu::noinline]] inline uint64_t
divMod(BinOpcode op, uint64_t a, uint64_t b, unsigned opnd_bits, bool sgn,
       unsigned out_bits)
{
    const int64_t sa = signExtend(a, opnd_bits);
    const int64_t sb = signExtend(b, opnd_bits);
    uint64_t r;
    if (op == BinOpcode::kDiv) {
        if (b == 0)
            r = ~uint64_t(0); // RISC-V style div-by-zero
        else if (sgn && sb == -1)
            r = ~a + 1; // overflow-safe: -a mod 2^64
        else
            r = sgn ? static_cast<uint64_t>(sa / sb) : a / b;
    } else {
        if (b == 0)
            r = a;
        else if (sgn && sb == -1)
            r = 0;
        else
            r = sgn ? static_cast<uint64_t>(sa % sb) : a % b;
    }
    return truncate(r, out_bits);
}

namespace sim {

/** The shift pair making sextBy(x, sextShift(bits)) signExtend(x, bits). */
inline constexpr uint8_t
sextShift(unsigned bits)
{
    return (bits == 0 || bits >= 64) ? 0 : uint8_t(64 - bits);
}

/**
 * The pure operations both engines execute, in opcode order: the prefix
 * of DOp the netlist's cell tape (rtl::Netlist::tape()) is written in.
 * Each row is the op's whole meaning, written over the expansion site's
 *   A, B      the values of operands a and b;
 *   C         the value of the third operand u.ca.c (kSelect only);
 *   MASK, X8, X16, CA   the step's u.mask, x8, x16 and u.ca;
 *   ARR       the state of array b (kArrayRead only).
 * X rows are closed over two operand values and the step; R rows also
 * read a third operand or array state, so evalPure() leaves them to
 * its callers. Results are masked with MASK unless noted; comparisons
 * produce a bare 0/1.
 */
#define ASSASSYN_PURE_DOPS(X, R, A, B, C, MASK, X8, X16, CA, ARR) \
    X(kAnd, (A & B) & MASK)                                              \
    X(kOr, (A | B) & MASK)                                               \
    X(kXor, (A ^ B) & MASK)                                              \
    X(kAdd, (A + B) & MASK)                                              \
    X(kSub, (A - B) & MASK)                                              \
    X(kMul, (A * B) & MASK)                                              \
    X(kShl, (B >= 64 ? 0 : A << B) & MASK)                               \
    X(kShrU, (B >= 64 ? 0 : A >> B) & MASK)                              \
    /* X8 = sextShift(opnd_bits), as for every signed row below */       \
    X(kShrS, uint64_t(B >= 64 ? (sextBy(A, X8) < 0 ? -1 : 0)             \
                              : sextBy(A, X8) >> B) & MASK)              \
    X(kEq, A == B)                                                       \
    X(kNe, A != B)                                                       \
    X(kLtU, A < B)                                                       \
    X(kLeU, A <= B)                                                      \
    X(kGtU, A > B)                                                       \
    X(kGeU, A >= B)                                                      \
    X(kLtS, sextBy(A, X8) < sextBy(B, X8))                               \
    X(kLeS, sextBy(A, X8) <= sextBy(B, X8))                              \
    X(kGtS, sextBy(A, X8) > sextBy(B, X8))                               \
    X(kGeS, sextBy(A, X8) >= sextBy(B, X8))                              \
    X(kNot, ~A & MASK)                                                   \
    X(kNeg, (~A + 1) & MASK)                                             \
    X(kRedOr, A != 0)                                                    \
    X(kRedAnd, A == MASK) /* MASK = maskBits(opnd_bits) */               \
    X(kSlice, (A >> X8) & MASK) /* slices, shr by a constant */          \
    X(kConcat, ((A << X8) | B) & MASK) /* X8 = lsb_bits */               \
    R(kSelect, A ? B : C)                                                \
    X(kMask, A & MASK) /* zext/trunc/bitcast, and by a constant */       \
    X(kSExt, uint64_t(sextBy(A, X8)) & MASK) /* X8 = sextShift(src) */   \
    R(kArrayRead, A < ARR.size ? ARR.data[A] : 0) /* B = array id */     \
    /* div/mod; X8 = BinOpcode, X16 = sgn, CA = {opnd_bits, out_bits} */ \
    X(kBinGeneric, divMod(BinOpcode(X8), A, B, CA.c, X16 != 0, CA.aux))

/**
 * The event engine's own opcodes, after the pure prefix. Every op
 * before kWaitCheck writes slot dest; none from kWaitCheck on does.
 *
 * Constant operands stay in their slots. An immediate form (constant in
 * u.mask unless noted) exists only where fusion or dispatch keys on the
 * inline constant: kEqImm / kNeImm feed the compare-select fusions,
 * kSkipIfNeImm and kSwitch; kAddImm feeds kArrayReadImmAdd / kArrayRmw;
 * kArrayReadImm is the hot constant-index register read. Compile-time
 * constant folding runs first, so the remaining operand is always live.
 * Three constant forms are re-encodings onto pure ops: an and by a
 * constant is a kMask, an unsigned shr by one a kSlice, and a sub of one
 * a kAddImm of its negation (docs/architecture.md "The dense step
 * tape").
 *
 * Superinstructions are built by the post-compile peephole (fuseTape),
 * never emitted directly: a single-use immediate compare folded into
 * the select it feeds (the dominant decode-table pattern), and
 * three-operand forms for predicate trees and bit reassembly (the third
 * slot rides in x16 unless noted).
 */
#define ASSASSYN_EVENT_DOPS(X)                                           \
    X(kAddImm)  /* (a + u.mask) & (~0 >> x8); x8 = 64 - out_bits */      \
    X(kEqImm)   /* a == u.mask */                                        \
    X(kNeImm)                                                            \
    X(kArrayReadImm) /* a = constant index (bound-checked), b = array */ \
    X(kEqImmSel)  /* (a == u.ca.aux) ? b : x16 (slots; x16 narrow) */    \
    X(kEqImmSel3) /* (a == x8) ? b : (a == x16) ? u.ca.c : u.ca.aux      \
                     (two fused decode-chain entries; all arms slots) */ \
    X(kAndAnd)    /* ((a & b) & x16) & u.mask */                         \
    X(kAndOr)     /* ((a & b) | x16) & u.mask */                         \
    X(kOrAnd)     /* ((a | b) & x16) & u.mask */                         \
    X(kOrOr)      /* ((a | b) | x16) & u.mask */                         \
    X(kEqAnd)     /* (a == b) & x16 */                                   \
    X(kNeAnd)     /* (a != b) & x16 */                                   \
    X(kNeImmAnd)  /* (a != u.ca.aux) & b */                              \
    X(kValidAnd)  /* (fifo a nonempty) & b */                            \
    X(kAndSel)    /* (a & b) ? x16 : u.ca.c (all slots) */               \
    X(kConcat3)   /* ((a << x8) | (b << u.ca.aux) | x16) & u.ca.c */     \
    X(kSliceConcat) /* ((((a >> x8) & u.ca.c) << x16) | b) & u.ca.aux */ \
    X(kConcatSlice) /* ((a << x8) | ((b >> x16) & u.ca.c)) & u.ca.aux */ \
    X(kSelSel)    /* a ? b : (x16 ? u.ca.c : u.ca.aux) (all slots;       \
                     fused forwarding-mux chain) */                      \
    X(kValid2)    /* (fifo a nonempty) & (fifo x16 nonempty) */          \
    X(kValid2And) /* (fifo a nonempty) & (fifo x16 nonempty) & b */      \
    X(kEqAndAnd)  /* (a == b) & u.ca.c & u.ca.aux (slots) */             \
    X(kOr5)       /* (a | b | x16 | u.ca.c | u.ca.aux) & (~0 >> x8) */   \
    X(kArrayReadImmAdd) /* (array b word [imm a] + u.mask) & (~0 >> x8) */ \
    X(kFifoValid) /* a = fifo id */                                      \
    X(kFifoPeek)  /* a = fifo id */                                      \
    /* Control: */                                                       \
    X(kWaitCheck) /* a = cond slot; bail out (retain event) when 0 */    \
    X(kWaitCheckAnd) /* bail out (retain event) when (a & b) is 0 */     \
    X(kWaitCheckValidAnd) /* bail out when ((fifo a nonempty) & b) is 0 */ \
    X(kSkipIfFalse) /* a = cond slot; jump over b steps when 0 */        \
    X(kSkipIfNeImm) /* jump over b steps when a != u.mask */             \
    /* FSM state dispatch, built by the post-fusion pass buildSwitches   \
       (never emitted directly): */                                      \
    X(kSwitch) /* jump over switchTable()[b + min(a - u.mask, dest)]     \
                  steps (dest = dense key range; its entry is the miss) */ \
    X(kJump)   /* jump over b steps unconditionally */                   \
    /* Effects (buffered; committed in phase 2). Unconditional by        \
       construction: each sits inside the skip region of its predicate. */ \
    X(kDequeue)   /* a = fifo id */                                      \
    X(kPush)      /* a = value slot, b = fifo id, x16 = src module id */ \
    X(kPushCat)   /* push ((a << x8) | dest) & u.mask (dest = lsb SLOT,  \
                     not a result); b = fifo id, x16 = src mod */        \
    X(kArrayWrite) /* a = index slot, b = value slot, x16 = array id */  \
    X(kArrayRmw)  /* write ((array b word [imm dest] + u.mask) &         \
                     (~0 >> x8)) to array x16 at index slot a */         \
    X(kSubscribe) /* a = target module id */                             \
    X(kLog)       /* a = index into Program::logs() */                   \
    X(kAssertEff) /* a = cond slot, b = index into Program::asserts() */ \
    X(kFinishEff)

/** The pure prefix by name only, for X(name, ...) consumers. */
#define ASSASSYN_PURE_DOP_NAMES(X) ASSASSYN_PURE_DOPS(X, X, , , , , , , , )

/** Dense opcode space of the tape: the pure prefix, then the event
 *  engine's own ops. */
enum class DOp : uint8_t {
#define ASSASSYN_DOP_ENUM(name, ...) name,
    ASSASSYN_PURE_DOP_NAMES(ASSASSYN_DOP_ENUM)
    ASSASSYN_EVENT_DOPS(ASSASSYN_DOP_ENUM)
#undef ASSASSYN_DOP_ENUM
};

/** Opcodes [0, kPureDOps) are the pure prefix; kDOps counts them all.
 *  Each engine's jump table static_asserts its size against these, so
 *  kBinGeneric must close the pure list and kFinishEff the event list. */
inline constexpr size_t kPureDOps = size_t(DOp::kBinGeneric) + 1;
inline constexpr size_t kDOps = size_t(DOp::kFinishEff) + 1;

/** One fused 24-byte micro-op of the compiled tape. */
struct DStep {
    uint8_t op = 0;   ///< DOp
    uint8_t x8 = 0;   ///< small per-op immediate (shift / opnd bits)
    uint16_t x16 = 0; ///< per-op immediate (module / array id)
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t dest = 0;
    union U {
        uint64_t mask; ///< precomputed result mask (pure ops)
        struct CA {
            uint32_t c;   ///< third operand slot / opnd bits
            uint32_t aux; ///< spare immediate
        } ca;
    } u{0};
};

static_assert(sizeof(DStep) == 24, "DStep must stay 24 bytes");

/**
 * The pure handlers of a threaded-dispatch runTape, generated from the
 * rows. The expansion site provides `s` (the current `const DStep *`),
 * `v` (the value array: slots or nets), `ast` (the array states),
 * ASSASSYN_OP(name) (the handler label) and ASSASSYN_NEXT().
 */
#define ASSASSYN_PURE_HANDLER(name, expr)                                \
    ASSASSYN_OP(name) : v[s->dest] = (expr);                             \
    ASSASSYN_NEXT();
#define ASSASSYN_PURE_HANDLERS                                           \
    ASSASSYN_PURE_DOPS(ASSASSYN_PURE_HANDLER, ASSASSYN_PURE_HANDLER,     \
                       v[s->a], v[s->b], v[s->u.ca.c], s->u.mask, s->x8, \
                       s->x16, s->u.ca, ast[s->b])

/**
 * Evaluate the X-row step @p s over operand values @p a and @p b (b is
 * ignored by one-operand rows). The folders and the debugger call it
 * after encodeInstr(); kSelect and kArrayRead stay with the caller.
 */
inline uint64_t
evalPure(const DStep &s, uint64_t a, uint64_t b)
{
    switch (DOp(s.op)) {
#define ASSASSYN_PURE_CASE(name, expr)                                   \
      case DOp::name:                                                    \
        return expr;
#define ASSASSYN_CALLER_CASE(name, expr)
        ASSASSYN_PURE_DOPS(ASSASSYN_PURE_CASE, ASSASSYN_CALLER_CASE, a, b,
                           , s.u.mask, s.x8, s.x16, s.u.ca, )
#undef ASSASSYN_PURE_CASE
#undef ASSASSYN_CALLER_CASE
      default:
        break;
    }
    panic("evalPure: opcode ", int(s.op), " is not a closed pure step");
}

/**
 * The encoders of the pure steps, shared by Program's step compiler,
 * rtl::Netlist::buildTape and (through encodeInstr) both constant
 * folders and the debugger. Each fills the opcode, x8, x16 and u of
 * @p s; the caller sets the operands and dest.
 */
inline void
encodeBin(DStep &s, BinOpcode op, bool sgn, unsigned opnd_bits,
          unsigned out_bits)
{
    DOp d = DOp::kBinGeneric;
    switch (op) {
      case BinOpcode::kAdd: d = DOp::kAdd; break;
      case BinOpcode::kSub: d = DOp::kSub; break;
      case BinOpcode::kMul: d = DOp::kMul; break;
      case BinOpcode::kAnd: d = DOp::kAnd; break;
      case BinOpcode::kOr:  d = DOp::kOr; break;
      case BinOpcode::kXor: d = DOp::kXor; break;
      case BinOpcode::kShl: d = DOp::kShl; break;
      case BinOpcode::kShr: d = sgn ? DOp::kShrS : DOp::kShrU; break;
      case BinOpcode::kEq:  d = DOp::kEq; break;
      case BinOpcode::kNe:  d = DOp::kNe; break;
      case BinOpcode::kLt:  d = sgn ? DOp::kLtS : DOp::kLtU; break;
      case BinOpcode::kLe:  d = sgn ? DOp::kLeS : DOp::kLeU; break;
      case BinOpcode::kGt:  d = sgn ? DOp::kGtS : DOp::kGtU; break;
      case BinOpcode::kGe:  d = sgn ? DOp::kGeS : DOp::kGeU; break;
      case BinOpcode::kDiv:
      case BinOpcode::kMod:
        s.op = uint8_t(DOp::kBinGeneric);
        s.x8 = uint8_t(op);
        s.x16 = sgn ? 1 : 0;
        s.u.ca.c = opnd_bits;
        s.u.ca.aux = out_bits;
        return;
    }
    s.op = uint8_t(d);
    s.x8 = sextShift(opnd_bits); // read by kShrS and the signed compares
    s.u.mask = maskBits(out_bits);
}

inline void
encodeUn(DStep &s, UnOpcode op, unsigned opnd_bits, unsigned out_bits)
{
    switch (op) {
      case UnOpcode::kNot:
        s.op = uint8_t(DOp::kNot);
        s.u.mask = maskBits(out_bits);
        break;
      case UnOpcode::kNeg:
        s.op = uint8_t(DOp::kNeg);
        s.u.mask = maskBits(out_bits);
        break;
      case UnOpcode::kRedOr:
        s.op = uint8_t(DOp::kRedOr);
        break;
      case UnOpcode::kRedAnd:
        s.op = uint8_t(DOp::kRedAnd);
        s.u.mask = maskBits(opnd_bits);
        break;
    }
}

inline void
encodeCast(DStep &s, Cast::Mode mode, unsigned src_bits, unsigned out_bits)
{
    if (mode == Cast::Mode::kSExt) {
        s.op = uint8_t(DOp::kSExt);
        s.x8 = sextShift(src_bits);
    } else {
        s.op = uint8_t(DOp::kMask);
    }
    s.u.mask = maskBits(out_bits);
}

/** Bits [lo, hi] (inclusive) of operand a. */
inline void
encodeSlice(DStep &s, unsigned hi, unsigned lo)
{
    s.op = uint8_t(DOp::kSlice);
    s.x8 = uint8_t(lo);
    s.u.mask = maskBits(hi - lo + 1);
}

/** {a, b}, operand b being the @p lsb_bits low bits. */
inline void
encodeConcat(DStep &s, unsigned lsb_bits, unsigned out_bits)
{
    s.op = uint8_t(DOp::kConcat);
    s.x8 = uint8_t(lsb_bits);
    s.u.mask = maskBits(out_bits);
}

/**
 * Encode a BinOp, UnOp, Slice, Concat or Cast with the IR's width
 * conventions: a BinOp's operands take the lhs type, a UnOp's or a
 * Cast's the source type, and the result the instruction's own.
 * Operands a and b are the instruction's operand(0) and operand(1).
 * @return false (and @p s untouched) for any other instruction.
 */
inline bool
encodeInstr(DStep &s, const Instruction &inst)
{
    const unsigned out_bits = inst.type().bits();
    switch (inst.opcode()) {
      case Opcode::kBinOp: {
        const auto &bin = static_cast<const BinOp &>(inst);
        const DataType &ty = bin.lhs()->type();
        encodeBin(s, bin.binOpcode(), ty.isSigned(), ty.bits(), out_bits);
        return true;
      }
      case Opcode::kUnOp: {
        const auto &un = static_cast<const UnOp &>(inst);
        encodeUn(s, un.unOpcode(), un.value()->type().bits(), out_bits);
        return true;
      }
      case Opcode::kSlice: {
        const auto &sl = static_cast<const Slice &>(inst);
        encodeSlice(s, sl.hi(), sl.lo());
        return true;
      }
      case Opcode::kConcat: {
        const auto &cc = static_cast<const Concat &>(inst);
        encodeConcat(s, cc.lsb()->type().bits(), out_bits);
        return true;
      }
      case Opcode::kCast: {
        const auto &cast = static_cast<const Cast &>(inst);
        encodeCast(s, cast.mode(), cast.value()->type().bits(), out_bits);
        return true;
      }
      default:
        return false;
    }
}

} // namespace sim
} // namespace assassyn
