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
 * (ASSASSYN_PURE_HANDLERS), and the ahead-of-time emitter
 * (sim/tape_emit.cc) stringifies them into straight-line code; the
 * event engine's own ops are rows too (ASSASSYN_EVENT_DOPS); the
 * compiler's constant folder
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
 * The event engine's own opcodes, after the pure prefix, each with its
 * handler body: the row is the op's whole meaning, written once. Every
 * op before kWaitCheck writes slot dest; none from kWaitCheck on does.
 * Both evaluators expand the same rows (docs/architecture.md "Compiled
 * evaluators"): the interpreter's runTape (sim/simulator.cc) into its
 * threaded handlers, the ahead-of-time emitter (sim/tape_emit.cc) into
 * one straight-line block per step of a span. A body is written over
 *   s                      the step (`const DStep *`);
 *   v, fst, ast, fa        slots, FIFO and array run state, FIFO arena;
 *   fpd, apd, mst          the buffered effects and scheduler records;
 *   cx                     the EventCtx (sim/event_ctx.h): touched
 *                          bitmaps, finish flag, log path, and the
 *                          RunState whose fault paths the effects call;
 * and leaves the step only through
 *   ASSASSYN_SKIP(s->b)          jump over s->b further steps;
 *   ASSASSYN_SKIP_TABLE(s->b, k) jump over switchTable()[s->b + k];
 *   ASSASSYN_FAIL()              bail out of the span (event retained).
 * The emitter resolves the two skips at generation time, so their
 * first argument is always s->b.
 *
 * In the interpreter, constant operands stay in their slots, except in
 * four immediate forms (constant in u.mask unless noted): kEqImm,
 * kNeImm, kAddImm and kArrayReadImm, the hot constant-index register
 * read. The emitter prints every read of a slot no step writes as the
 * constant kSlotInit[N] instead, and every array bound as a literal
 * (docs/architecture.md "Compiled evaluators"). No rewrite
 * consumes them; they stay because they pay on their own: dropping
 * kAddImm and kNeImm lowered perfbench `cpu` asyn_cps by 4.3% (3.19M
 * against 3.33M cycles/s, lower in 8 of 9 alternating pairs on a
 * shared 4-core host).
 * Two dispatch forms key on an inline constant: kSkipIfNeImm, the
 * `x == K` region guard (formed at emission when the compare has no
 * other reader), and the kSwitch buildSwitches makes of a chain of them.
 * Compile-time constant folding runs first, so the remaining operand is
 * always live. Three constant forms are re-encodings onto pure ops: an
 * and by a constant is a kMask, an unsigned shr by one a kSlice, and a
 * sub of one a kAddImm of its negation (docs/architecture.md "The dense
 * step tape").
 */
#define ASSASSYN_EVENT_DOPS(X)                                           \
    /* x8 = 64 - out_bits */                                             \
    X(kAddImm, v[s->dest] = (v[s->a] + s->u.mask) & (~0ull >> s->x8);)  \
    X(kEqImm, v[s->dest] = v[s->a] == s->u.mask;)                        \
    X(kNeImm, v[s->dest] = v[s->a] != s->u.mask;)                        \
    /* a = constant index (bound-checked at compile), b = array */       \
    X(kArrayReadImm, v[s->dest] = ast[s->b].data[s->a];)                 \
    /* a = fifo id */                                                    \
    X(kFifoValid, v[s->dest] = fst[s->a].count > 0;)                     \
    X(kFifoPeek, {                                                       \
        const RunState::Fifo &f = fst[s->a];                             \
        v[s->dest] = f.count ? fa[f.base + f.head] : 0;                  \
    })                                                                   \
    /* Control: bail out (retain the event) when the condition is 0. */  \
    X(kWaitCheck, if (!v[s->a]) ASSASSYN_FAIL();)                        \
    X(kSkipIfFalse, if (!v[s->a]) ASSASSYN_SKIP(s->b);)                  \
    X(kSkipIfNeImm, if (v[s->a] != s->u.mask) ASSASSYN_SKIP(s->b);)      \
    /* FSM state dispatch, built by the post-compile pass buildSwitches  \
       (never emitted directly): one dispatch for a whole state chain.   \
       dest = dense key range, whose entry is the miss; keys below the   \
       table's base wrap to huge values and miss like keys above it. */  \
    X(kSwitch, {                                                         \
        const uint64_t key = v[s->a] - s->u.mask;                        \
        ASSASSYN_SKIP_TABLE(s->b, key < s->dest ? key : s->dest);        \
    })                                                                   \
    X(kJump, ASSASSYN_SKIP(s->b);)                                       \
    /* Effects (buffered; committed in phase 2). Unconditional by        \
       construction: each sits inside the skip region of its predicate.  \
       The faults are RunState's, shared with the netlist engine. */     \
    /* a = fifo id */                                                    \
    X(kDequeue, {                                                        \
        fpd[s->a].deq = true;                                            \
        touchBit(cx.touched_fifo, s->a);                                 \
    })                                                                   \
    /* a = value slot, b = fifo id, x16 = src module id */               \
    X(kPush, {                                                           \
        FifoPending &f = fpd[s->b];                                      \
        if (f.push)                                                      \
            cx.st->multiplePushes(s->b);                                 \
        f.push = true;                                                   \
        f.value = v[s->a] & s->u.mask;                                   \
        f.src = mst[s->x16].mod;                                         \
        touchBit(cx.touched_fifo, s->b);                                 \
    })                                                                   \
    /* a = index slot, b = value slot, x16 = array id; the to_write      \
       bookkeeping of Fig. 9 b.2: one in-range write per register array  \
       per cycle. */                                                     \
    X(kArrayWrite, {                                                     \
        ArrayPending &w = apd[s->x16];                                   \
        const uint64_t idx = v[s->a];                                    \
        if (idx >= ast[s->x16].size || w.write)                          \
            cx.st->badArrayWrite(s->x16, idx);                           \
        w.write = true;                                                  \
        w.index = idx;                                                   \
        w.value = v[s->b] & s->u.mask;                                   \
        touchBit(cx.touched_arr, s->x16);                                \
    })                                                                   \
    /* a = target module id */                                           \
    X(kSubscribe, {                                                      \
        mst[s->a].inc += 1;                                              \
        touchBit(cx.touched_mod, s->a);                                  \
    })                                                                   \
    /* a = index into Program::logs() */                                 \
    X(kLog, if (cx.log_on) cx.emitLog(s->a);)                            \
    /* a = cond slot, b = index into Program::asserts() */               \
    X(kAssertEff,                                                        \
      if (!v[s->a]) cx.st->assertFailed(*cx.prog->asserts()[s->b]);)     \
    X(kFinishEff, cx.finish_pending = true;)

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

/** One 24-byte step of a tape: an event-engine micro-op or a netlist
 *  cell. */
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
 * What a pure row does as a step of a runTape: write its value to the
 * step's dest (a slot, or a net on the netlist engine).
 */
#define ASSASSYN_PURE_EFFECT(expr) v[s->dest] = (expr);

/**
 * Run a pure row as a step: the rows with the expansion site's operand
 * spellings (`s`, `v`, `ast` as for the event rows) passed to
 * X(name, expr). The emitter stringifies through this too.
 */
#define ASSASSYN_PURE_STEPS(X)                                           \
    ASSASSYN_PURE_DOPS(X, X, v[s->a], v[s->b], v[s->u.ca.c], s->u.mask,  \
                       s->x8, s->x16, s->u.ca, ast[s->b])

/**
 * The pure handlers of a threaded-dispatch runTape, generated from the
 * rows. The expansion site provides `s` (the current `const DStep *`),
 * `v` (the value array: slots or nets), `ast` (the array states),
 * ASSASSYN_OP(name) (the handler label) and ASSASSYN_NEXT().
 */
#define ASSASSYN_PURE_HANDLER(name, expr)                                \
    ASSASSYN_OP(name) : ASSASSYN_PURE_EFFECT(expr)                       \
    ASSASSYN_NEXT();
#define ASSASSYN_PURE_HANDLERS ASSASSYN_PURE_STEPS(ASSASSYN_PURE_HANDLER)

/** The event engine's own handlers: each row body, then the next step.
 *  The site also defines the three exits ASSASSYN_SKIP,
 *  ASSASSYN_SKIP_TABLE and ASSASSYN_FAIL. */
#define ASSASSYN_EVENT_HANDLER(name, ...)                                \
    ASSASSYN_OP(name) : __VA_ARGS__                                      \
    ASSASSYN_NEXT();
#define ASSASSYN_EVENT_HANDLERS ASSASSYN_EVENT_DOPS(ASSASSYN_EVENT_HANDLER)

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
