/**
 * @file
 * The immutable compiled artifact of the event-driven backend: the
 * compile-time half of the compile/run split (docs/architecture.md).
 *
 * The paper's pitch is "compile once, get a cycle-accurate simulator".
 * A sim::Program is that compiled simulator as a value: the fused
 * dense step tape of every stage, the index tables that map IR
 * entities to runtime storage, the topological schedule, the per-stage
 * sensitivity metadata driving the wake-list scheduler, and the shared
 * hazard analysis — everything derivable from the lowered System and
 * nothing else. It is built once by Program::compile() and held by
 * shared_ptr<const Program>; constructing a sim::Simulator from it
 * allocates only per-run mutable state (slots, FIFO/array storage,
 * metrics, RNG) and does **no IR walking or step compilation**
 * (tests/program_test.cc counts compile invocations to pin this).
 *
 * Tape encoding v2 (docs/architecture.md "Interpreter core"): one
 * contiguous structure-of-arrays tape of 24-byte DSteps shared by all
 * stages, addressed through per-stage [shadow | active] spans. DStep is
 * also the netlist's cell-tape record: the 30 pure opcodes leading DOp
 * are the whole vocabulary of rtl::Netlist::tape(), encoded by the same
 * selector (encodeBin / encodeUn / encodeCast) and run by the same
 * handlers (sim/pure_ops.inc). The re-lowering performs operand fusion
 * the generic v1 register VM paid for at run time:
 *   - identity casts (zext/bitcast widenings, same-width sext) are
 *     dissolved into slot aliases — slotOf() resolves through them, so
 *     they cost zero steps;
 *   - non-identity casts and result truncations become single
 *     AND-with-precomputed-mask steps; no per-step width arithmetic
 *     survives to run time;
 *   - constant operands are folded: all-constant cones evaluate at
 *     compile time straight into slot initial values (zero steps); an
 *     operation with one constant operand otherwise reads the constant
 *     from its own slot, except for the few immediate forms that fusion
 *     or dispatch keys on (see ASSASSYN_EVENT_DOPS);
 *   - kPredAnd predicate chains are folded into the kSkipIfFalse
 *     region guards, and per-effect predicate tests are dropped
 *     entirely: every effect step is provably dominated by the skip
 *     guard of its own predicate, so reaching it implies the predicate
 *     held;
 *   - signed/unsigned operator variants get distinct opcodes, turning
 *     the v1 double dispatch (Step::Op switch -> ops::evalBin switch)
 *     into one dense jump table;
 *   - the active tape is de-duplicated against the stage's shadow
 *     tape: values the shadow pass already computes (from the same
 *     start-of-cycle state) are never recomputed by the body.
 *
 * Sensitivity metadata: for every FIFO and register array, the list of
 * stages whose shadow cone (transitively, across cross-stage exposure
 * references) reads it. The scheduler re-evaluates a shadow tape only
 * when one of its inputs changed; combined with the event wake-list
 * (Subscribe commits wake their target stage) this is what lets idle
 * stages cost zero work per cycle while remaining cycle-exact against
 * the always-on combinational wires of the netlist backend.
 *
 * Thread-safety contract: a const Program is immutable after
 * construction — no mutable members, no lazily-initialized caches — so
 * any number of Simulator instances on any number of threads may share
 * one Program concurrently (tests/parallel_determinism_test.cc). The
 * referenced System must outlive the Program, and the Program must
 * outlive every Simulator built from it (shared_ptr enforces the
 * latter).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/ir/system.h"
#include "sim/hazard.h"

namespace assassyn {
namespace sim {

/**
 * The pure operations both engines execute, in opcode order: the prefix
 * of DOp the netlist's cell tape (rtl::Netlist::tape()) is written in.
 * Their handlers exist once, in sim/pure_ops.inc. Results are masked
 * with DStep::u.mask unless noted; comparisons produce a bare 0/1, and
 * the signed ones sign-extend both operands with the x8 shift pair.
 */
#define ASSASSYN_PURE_DOPS(X)                                            \
    X(kAnd) X(kOr) X(kXor) X(kAdd) X(kSub) X(kMul)                       \
    X(kShl)  /* shift amount from slot b, >= 64 flushes to 0 */          \
    X(kShrU)                                                             \
    X(kShrS) /* x8 = 64 - opnd_bits (0 when opnd_bits is 0 or >= 64) */ \
    X(kEq) X(kNe) X(kLtU) X(kLeU) X(kGtU) X(kGeU)                        \
    X(kLtS) X(kLeS) X(kGtS) X(kGeS)                                      \
    X(kNot) X(kNeg) X(kRedOr)                                            \
    X(kRedAnd) /* u.mask = maskBits(opnd_bits); result = (a == mask) */  \
    X(kSlice)  /* (a >> x8) & u.mask: slices, shr by a constant */       \
    X(kConcat) /* x8 = lsb_bits; ((a << x8) | b) & mask */               \
    X(kSelect) /* a ? b : u.ca.c */                                      \
    X(kMask)   /* a & u.mask: zext/trunc/bitcast, and by a constant */   \
    X(kSExt)   /* x8 = 64 - src_bits; sign-extend then & u.mask */       \
    X(kArrayRead) /* a = index slot, b = array id; 0 when out of range */ \
    X(kBinGeneric) /* div/mod via ops::evalBin; x8 = BinOpcode,           \
                      x16 = sgn, u.ca.c = opnd_bits, u.ca.aux = out_bits */

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

/** Dense opcode space of the tape: the pure prefix, then the event
 *  engine's own ops. */
enum class DOp : uint8_t {
#define ASSASSYN_DOP_ENUM(name) name,
    ASSASSYN_PURE_DOPS(ASSASSYN_DOP_ENUM)
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
 * The one opcode selector of the pure two-slot operations, shared by
 * Program's step compiler and rtl::Netlist::buildTape. Each fills the
 * opcode, x8 and u of @p s; the caller sets the operands and dest.
 */
void encodeBin(DStep &s, BinOpcode op, bool sgn, unsigned opnd_bits,
               unsigned out_bits);
void encodeUn(DStep &s, UnOpcode op, unsigned opnd_bits, unsigned out_bits);
void encodeCast(DStep &s, Cast::Mode mode, unsigned src_bits,
                unsigned out_bits);

/** The [shadow | active] spans of one stage over the fused tape. */
struct StageSpan {
    uint32_t shadow_begin = 0;
    uint32_t shadow_end = 0;
    uint32_t active_begin = 0;
    uint32_t active_end = 0;
};

/** Precompiled log effect: format plus dense arg descriptors. */
struct LogArg {
    uint32_t slot = 0;
    bool sgn = false;
    uint8_t bits = 0;
};
struct LogSpec {
    const Log *inst = nullptr;
    std::vector<LogArg> args;
};

/**
 * The immutable compiled simulator of one lowered System. Build with
 * compile(); share freely across threads through the const handle.
 */
class Program {
  public:
    /**
     * Compile @p sys into a shareable Program. The System must have
     * been compiled/lowered (System::isLowered) and must outlive the
     * returned Program.
     */
    static std::shared_ptr<const Program> compile(const System &sys);

    /**
     * Process-wide count of Program compilations, for tests proving
     * that Simulator construction from a prebuilt Program performs no
     * compilation. Monotonic; incremented once per compile().
     */
    static uint64_t compileCount();

    const System &sys() const { return *sys_; }

    /** Initial slot values (constants materialized, synthetics zero). */
    const std::vector<uint64_t> &slotInit() const { return slot_init_; }

    /** The fused step tape shared by all stages. */
    const std::vector<DStep> &tape() const { return tape_; }

    /** Jump tables of the kSwitch steps: relative skip counts, one
     *  dense key range plus a trailing miss entry per switch. */
    const std::vector<uint32_t> &switchTable() const
    {
        return switch_table_;
    }

    /** Per-stage tape spans, indexed by Module::id. */
    const std::vector<StageSpan> &spans() const { return spans_; }

    /** Precompiled log effects (kLog operand a indexes this). */
    const std::vector<LogSpec> &logs() const { return logs_; }

    /** Assertion side table (kAssertEff operand b indexes this). */
    const std::vector<const AssertInst *> &asserts() const
    {
        return asserts_;
    }

    /** Stage execution order (module ids, topological). */
    const std::vector<uint32_t> &topoIdx() const { return topo_idx_; }

    /** Topological position of each stage, by Module::id. */
    const std::vector<uint32_t> &topoPos() const { return topo_pos_; }

    /** Module ids with a nonempty shadow span, in topological order:
     *  the scheduler's phase-0 worklist. */
    const std::vector<uint32_t> &shadowMods() const { return shadow_mods_; }

    /** Sensitivity metadata: stages whose shadow cone (transitively)
     *  reads this FIFO, by dense fifo index. A committed pop/push (or
     *  an external poke) marks exactly these shadows stale. */
    const std::vector<std::vector<uint32_t>> &fifoWake() const
    {
        return fifo_wake_;
    }

    /** Sensitivity metadata: stages whose shadow cone (transitively)
     *  reads this register array, by RegArray::id. */
    const std::vector<std::vector<uint32_t>> &arrayWake() const
    {
        return array_wake_;
    }

    /** kStallProducer FIFO ids gating each stage, by Module::id. */
    const std::vector<std::vector<uint32_t>> &stallFifos() const
    {
        return stall_fifos_;
    }

    /** The shared hazard analysis (const; safe to query concurrently). */
    const HazardAnalyzer &analyzer() const { return analyzer_; }

    /** Dense FIFO index of a port; equals sim::RunState::fifoIndex. */
    uint32_t
    fifoIndex(const Port *port) const
    {
        return port_base_[port->owner()->id()] + port->index();
    }

    /**
     * Dense slot of a value (after cross-stage reference chasing and
     * identity-cast alias resolution: a zext/bitcast widening or
     * same-width sext shares its operand's slot).
     */
    uint32_t slotOf(const Value *val) const;

  private:
    explicit Program(const System &sys);
    friend struct ProgCompiler; ///< the step compiler (sim/program.cc)

    void build();
    void buildAliases();
    void fuseTape();
    void buildSwitches();
    uint32_t aliasOf(const Value *val);
    void compileModule(const Module &mod, std::vector<uint32_t> &ext_mods,
                       std::vector<uint32_t> &fifo_deps,
                       std::vector<uint32_t> &arr_deps);
    uint32_t newSyntheticSlot();
    uint32_t rawSlotOf(const Value *val) const;

    const System *sys_;
    HazardAnalyzer analyzer_;
    std::vector<uint64_t> slot_init_;
    // Build-time constant tracking: 1 when the slot's value is fully
    // known at compile time (a ConstInt, or a pure cone folded over
    // constants). Drives immediate fusion; never consulted at run time.
    std::vector<uint8_t> slot_is_const_;
    uint32_t num_fifos_ = 0;
    std::vector<DStep> tape_;      ///< fused SoA tape (all stages)
    std::vector<uint32_t> switch_table_; ///< kSwitch jump tables
    std::vector<StageSpan> spans_; ///< indexed by Module::id
    std::vector<LogSpec> logs_;
    std::vector<const AssertInst *> asserts_;
    std::vector<uint32_t> topo_idx_; ///< execution order (mod ids)
    std::vector<uint32_t> topo_pos_; ///< inverse of topo_idx_
    std::vector<uint32_t> shadow_mods_;
    std::vector<std::vector<uint32_t>> fifo_wake_;  ///< by fifo index
    std::vector<std::vector<uint32_t>> array_wake_; ///< by RegArray::id
    // Dense compile-time index tables: a port's FIFO is
    // port_base[owner id] + port index, a value's slot is
    // slot_base[parent id] + value id (synthetic slots appended after),
    // resolved through the identity-cast alias table.
    std::vector<uint32_t> port_base_; ///< by Module::id
    std::vector<uint32_t> slot_base_; ///< by Module::id
    std::vector<uint32_t> alias_;     ///< raw slot -> canonical slot
    std::vector<uint8_t> alias_done_;
    std::vector<std::vector<uint32_t>> stall_fifos_; ///< by Module::id
};

} // namespace sim
} // namespace assassyn
