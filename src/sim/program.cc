#include "sim/program.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "core/compiler/walk.h"
#include "sim/event_ctx.h"
#include "support/bits.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/profiler.h"

namespace assassyn {
namespace sim {

namespace {

/** Test instrumentation: one increment per Program compilation. */
std::atomic<uint64_t> compile_count{0};

} // namespace

/**
 * Compiles the shadow and active step spans of one module into the
 * tape. Operates on the Program under construction; never used
 * after compile() returns, so the published Program is immutable.
 *
 * The active-tape compiler is seeded with the shadow compiler's
 * `emitted` set: both tapes evaluate from the same start-of-cycle
 * state, so any value the shadow pass maintains is simply read by the
 * body instead of recomputed.
 */
struct ProgCompiler {
    Program &prog;
    const Module &mod;
    std::vector<DStep> *out;
    std::set<const Value *> emitted;
    // Sensitivity capture (shadow compiles only consume it): the FIFOs
    // and arrays this tape reads, and the foreign stages whose shadow
    // values it consumes (their input sets fold in transitively).
    std::set<uint32_t> fifo_deps;
    std::set<uint32_t> arr_deps;
    std::set<uint32_t> ext_mods;
    /**
     * Pure values with users outside their defining conditional
     * block (or exposed / feeding the wait condition). These must be
     * computed unconditionally; everything else can live inside a
     * skippable region — the "inactive code region" knowledge the
     * paper credits for the generated simulator's speed (Sec. 7 Q5).
     */
    std::set<const Value *> needed_outside;
    /** `x == y` compares read by nothing but one region guard: the
     *  candidates of guard formation (guardKey). */
    std::set<const Value *> guard_only;

    ProgCompiler(Program &p, const Module &m, std::vector<DStep> *o)
        : prog(p), mod(m), out(o)
    {
        analyzeEscapes();
    }

    /** True when @p blk is @p region or nested anywhere inside it. */
    static bool
    blockWithin(const Block *blk, const Block *region)
    {
        while (blk) {
            if (blk == region)
                return true;
            Instruction *owner = blk->owner();
            blk = owner ? owner->block() : nullptr;
        }
        return false;
    }

    void
    analyzeEscapes()
    {
        // Each `==` compare's only user, or nullptr once it has two.
        std::map<const Value *, const Instruction *> sole_user;
        auto note_use = [&](const Instruction *user, Value *op) {
            op = chaseRef(op);
            if (op->valueKind() != Value::Kind::kInstr ||
                op->parent() != &mod)
                return;
            auto *def = static_cast<Instruction *>(op);
            if (def->opcode() == Opcode::kBinOp &&
                static_cast<const BinOp *>(def)->binOpcode() ==
                    BinOpcode::kEq) {
                auto [it, first] = sole_user.emplace(def, user);
                if (!first)
                    it->second = nullptr;
            }
            if (!def->block())
                return; // top-level by construction
            if (!blockWithin(user->block(), def->block()))
                needed_outside.insert(def);
        };
        forEachInst(mod, [&](Instruction *inst) {
            for (Value *op : inst->operands())
                note_use(inst, op);
        });
        for (const auto &[name, val] : mod.exposures())
            needed_outside.insert(chaseRef(const_cast<Value *>(val)));
        if (mod.waitCond())
            needed_outside.insert(
                chaseRef(const_cast<Value *>(mod.waitCond())));
        for (const auto &[def, user] : sole_user)
            if (user && user->opcode() == Opcode::kCondBlock &&
                !needed_outside.count(def))
                guard_only.insert(def);
    }

    /**
     * Guard formation: when @p v is `x == K` with K a compile-time
     * constant, read by nothing but one region guard, set @p live to x
     * and @p key to K. The compare is then never emitted: its guard
     * tests x itself (kSkipIfNeImm), the form buildSwitches collapses an
     * FSM's `when(state == k)` arms from. Valid once v's operands are
     * emitted (their constness is known only then).
     */
    bool
    guardKey(const Value *v, const Value *&live, uint64_t &key) const
    {
        if (!guard_only.count(v))
            return false;
        const auto *inst = static_cast<const Instruction *>(v);
        const Value *lhs = inst->operand(0);
        const Value *rhs = inst->operand(1);
        uint64_t av = 0, bv = 0;
        const bool ac = constOf(lhs, av);
        if (ac == constOf(rhs, bv))
            return false; // folds, or stays a two-slot compare
        live = ac ? rhs : lhs;
        key = ac ? av : bv;
        return true;
    }

    /**
     * Emit, before opening a skip region over @p region, every pure
     * value the region uses that must stay unconditional: values
     * defined outside the region or escaping it.
     */
    void
    preEmitShared(const Block &region)
    {
        forEachInst(region, [&](Instruction *inst) {
            // A value defined here but escaping the region must be
            // computed unconditionally even if nothing inside the
            // region consumes it.
            if ((inst->isPure() ||
                 inst->opcode() == Opcode::kFifoPop) &&
                needed_outside.count(inst)) {
                emitPure(inst);
            }
            for (Value *op : inst->operands()) {
                Value *res = chaseRef(op);
                if (res->valueKind() != Value::Kind::kInstr)
                    continue;
                auto *def = static_cast<Instruction *>(res);
                if (def->parent() != &mod) {
                    continue;
                }
                if (!def->isPure() &&
                    def->opcode() != Opcode::kFifoPop)
                    continue;
                bool local = def->block() &&
                             blockWithin(def->block(), &region);
                if (!local || needed_outside.count(def))
                    emitPure(def);
            }
        });
    }

    void
    push(DStep s)
    {
        out->push_back(s);
    }

    /**
     * Compile-time value of @p v, when fully known: a ConstInt, or a
     * pure cone already folded over constants (slot_is_const_ tracks
     * both — constness is a property of the canonical slot, so it
     * survives alias resolution and crosses stage boundaries in the
     * topological compile order).
     */
    bool
    constOf(const Value *v, uint64_t &val) const
    {
        uint32_t slot = prog.slotOf(v);
        if (!prog.slot_is_const_[slot])
            return false;
        val = prog.slot_init_[slot];
        return true;
    }

    /** Dissolve @p v into its compile-time value: the slot's initial
     *  value becomes @p val, nothing ever writes it, every consumer
     *  reads (or inlines) the constant. Zero runtime steps. */
    void
    fold(const Value *v, uint64_t val)
    {
        uint32_t slot = prog.slotOf(v);
        prog.slot_init_[slot] = val;
        prog.slot_is_const_[slot] = 1;
        emitted.insert(v);
    }

    /**
     * Try to lower a binary op with exactly one constant operand to an
     * immediate step. @p live is the non-constant operand, @p imm the
     * constant's value, @p imm_is_lhs its side. Fills everything but
     * s.dest. Returns 0 when no immediate form applies (caller emits the
     * two-slot form), 1 when @p s was encoded, 2 when the result is a
     * compile-time zero (an over-wide shift) the caller should fold.
     *
     * Only ops with a measured immediate form (eq, ne, add; see
     * ASSASSYN_EVENT_DOPS) or that re-encode onto a pure op (and ->
     * kMask, shr -> kSlice, sub -> kAddImm) inline the constant; every
     * other op keeps the two-slot form, the constant staying in its
     * slot.
     */
    int
    emitBinImm(DStep &s, BinOpcode bop, bool sgn, unsigned out_bits,
               const Value *live, uint64_t imm, bool imm_is_lhs)
    {
        s.a = prog.slotOf(live);
        const uint64_t mask = maskBits(out_bits);
        // Masked modular arithmetic carries the mask as a 64-x8 shift
        // so u.mask can hold the immediate itself.
        const uint8_t mshift = uint8_t(64 - out_bits);
        switch (bop) {
          case BinOpcode::kAnd:
            s.op = uint8_t(DOp::kMask);
            s.u.mask = imm & mask;
            return 1;
          case BinOpcode::kAdd:
            s.op = uint8_t(DOp::kAddImm);
            s.x8 = mshift;
            s.u.mask = imm;
            return 1;
          case BinOpcode::kSub:
            if (imm_is_lhs)
                return 0; // imm - x: rare, keep the two-slot form
            s.op = uint8_t(DOp::kAddImm);
            s.x8 = mshift;
            s.u.mask = 0 - imm;
            return 1;
          case BinOpcode::kShl:
            if (imm_is_lhs)
                return 0;
            return imm >= 64 ? 2 : 0;
          case BinOpcode::kShr:
            if (imm_is_lhs || sgn)
                return 0; // no signed immediate form
            if (imm >= 64)
                return 2;
            s.op = uint8_t(DOp::kSlice);
            s.x8 = uint8_t(imm);
            s.u.mask = mask;
            return 1;
          case BinOpcode::kEq:
            s.op = uint8_t(DOp::kEqImm);
            s.u.mask = imm;
            return 1;
          case BinOpcode::kNe:
            s.op = uint8_t(DOp::kNeImm);
            s.u.mask = imm;
            return 1;
          default:
            return 0;
        }
    }

    /**
     * Emit @p inst, a BinOp, UnOp, Slice, Concat or Cast that
     * encodeInstr() encoded into @p s: fold it when every operand is a
     * compile-time constant, inline a BinOp's one constant operand
     * where an immediate form exists, else emit the slot form.
     */
    void
    emitFormula(const Instruction *inst, DStep s)
    {
        const Value *lhs = inst->operand(0);
        const Value *rhs =
            inst->numOperands() > 1 ? inst->operand(1) : nullptr;
        s.a = prog.slotOf(lhs);
        if (s.a == s.dest) {
            // Identity cast dissolved into a slot alias
            // (Program::buildAliases); costs zero steps, and the
            // shared slot carries the operand's constness with it.
            emitted.insert(inst);
            return;
        }
        uint64_t av = 0, bv = 0;
        const bool ac = constOf(lhs, av);
        const bool bc = rhs && constOf(rhs, bv);
        if (ac && (bc || !rhs)) {
            fold(inst, evalPure(s, av, bv));
            return;
        }
        if (rhs)
            s.b = prog.slotOf(rhs);
        if (inst->opcode() == Opcode::kBinOp && (ac || bc)) {
            const auto *bin = static_cast<const BinOp *>(inst);
            DStep imm;
            imm.dest = s.dest;
            int r = emitBinImm(imm, bin->binOpcode(),
                               lhs->type().isSigned(), inst->type().bits(),
                               ac ? rhs : lhs, ac ? av : bv, ac);
            if (r == 2) {
                fold(inst, 0); // an over-wide shift flushed the value
                return;
            }
            if (r == 1)
                s = imm;
        }
        push(s);
        emitted.insert(inst);
    }

    void
    emitPure(const Value *v)
    {
        v = chaseRef(const_cast<Value *>(v));
        if (v->valueKind() == Value::Kind::kConst)
            return;
        if (v->valueKind() == Value::Kind::kCrossRef)
            fatal("unresolved cross-stage reference during simulation");
        if (v->parent() != &mod) {
            // Computed by the producer's shadow pass; fold the
            // producer's sensitivity set into ours (transitively, in
            // Program::build's topo-order closure).
            if (v->parent())
                ext_mods.insert(v->parent()->id());
            return;
        }
        if (emitted.count(v))
            return;
        const auto *inst = static_cast<const Instruction *>(v);
        if (!inst->isPure() && inst->opcode() != Opcode::kFifoPop)
            panic("effectful instruction used as an operand");
        for (Value *op : inst->operands())
            emitPure(op);
        const Value *live = nullptr;
        uint64_t key = 0;
        if (guardKey(v, live, key))
            return; // formed at its guard (emitEffects)
        DStep s;
        s.dest = prog.slotOf(v);
        if (encodeInstr(s, *inst)) {
            emitFormula(inst, s);
            return;
        }
        switch (inst->opcode()) {
          case Opcode::kSelect: {
            const auto *sel = static_cast<const Select *>(inst);
            uint64_t cv = 0;
            if (constOf(sel->cond(), cv)) {
                const Value *arm = cv ? sel->onTrue() : sel->onFalse();
                uint64_t armv = 0;
                if (constOf(arm, armv)) {
                    fold(v, armv);
                    return;
                }
                s.op = uint8_t(DOp::kMask); // plain copy of the arm
                s.a = prog.slotOf(arm);
                s.u.mask = maskBits(inst->type().bits());
                break;
            }
            s.op = uint8_t(DOp::kSelect);
            s.a = prog.slotOf(sel->cond());
            s.b = prog.slotOf(sel->onTrue());
            s.u.ca.c = prog.slotOf(sel->onFalse());
            break;
          }
          case Opcode::kFifoValid: {
            const auto *fv = static_cast<const FifoValid *>(inst);
            s.op = uint8_t(DOp::kFifoValid);
            s.a = prog.fifoIndex(fv->port());
            fifo_deps.insert(s.a);
            break;
          }
          case Opcode::kFifoPop: {
            const auto *fp = static_cast<const FifoPop *>(inst);
            s.op = uint8_t(DOp::kFifoPeek);
            s.a = prog.fifoIndex(fp->port());
            fifo_deps.insert(s.a);
            break;
          }
          case Opcode::kArrayRead: {
            const auto *rd = static_cast<const ArrayRead *>(inst);
            s.b = rd->array()->id();
            uint64_t iv = 0;
            if (constOf(rd->index(), iv)) {
                if (iv >= rd->array()->size()) {
                    fold(v, 0); // the runtime's out-of-range read value
                    return;
                }
                s.op = uint8_t(DOp::kArrayReadImm);
                s.a = uint32_t(iv); // bound-checked above, once
            } else {
                s.op = uint8_t(DOp::kArrayRead);
                s.a = prog.slotOf(rd->index());
            }
            arr_deps.insert(s.b);
            break;
          }
          default:
            panic("unexpected pure opcode");
        }
        push(s);
        emitted.insert(v);
    }

    void
    emitEffects(const Block &blk)
    {
        for (auto *inst : blk.insts()) {
            switch (inst->opcode()) {
              case Opcode::kCondBlock: {
                auto *cb = static_cast<CondBlock *>(inst);
                // The region guard tests only this block's own
                // condition: execution reaches a nested guard only
                // when every enclosing guard already held, so the
                // kPredAnd conjunction chains of the v1 tape (and the
                // per-effect predicate re-tests) are redundant.
                emitPure(cb->cond());
                uint64_t cv = 0;
                if (constOf(cb->cond(), cv)) {
                    // Compile-time guard: shared pure values still
                    // compute unconditionally (exactly as they would
                    // under a runtime guard), the effects exist only
                    // when the predicate is constant-true.
                    preEmitShared(*cb->body());
                    if (cv)
                        emitEffects(*cb->body());
                    break;
                }
                // Shared values compute unconditionally; the rest of
                // the region is jumped over when the predicate is 0.
                // A run of FSM state arms later collapses into one
                // kSwitch (buildSwitches), so inactive states cost
                // nothing per cycle.
                preEmitShared(*cb->body());
                size_t skip_at = out->size();
                DStep skip;
                const Value *live = nullptr;
                uint64_t key = 0;
                if (guardKey(chaseRef(cb->cond()), live, key)) {
                    skip.op = uint8_t(DOp::kSkipIfNeImm);
                    skip.a = prog.slotOf(live);
                    skip.u.mask = key;
                } else {
                    skip.op = uint8_t(DOp::kSkipIfFalse);
                    skip.a = prog.slotOf(cb->cond());
                }
                push(skip);
                emitEffects(*cb->body());
                (*out)[skip_at].b =
                    uint32_t(out->size() - skip_at - 1);
                break;
              }
              case Opcode::kFifoPop: {
                emitPure(inst); // the peek producing the value
                DStep s;
                s.op = uint8_t(DOp::kDequeue);
                s.a = prog.fifoIndex(
                    static_cast<FifoPop *>(inst)->port());
                push(s);
                break;
              }
              case Opcode::kFifoPush: {
                auto *push_inst = static_cast<FifoPush *>(inst);
                emitPure(push_inst->value());
                DStep s;
                s.op = uint8_t(DOp::kPush);
                s.a = prog.slotOf(push_inst->value());
                s.b = prog.fifoIndex(push_inst->port());
                s.x16 = uint16_t(mod.id());
                s.u.mask = maskBits(push_inst->port()->type().bits());
                push(s);
                break;
              }
              case Opcode::kArrayWrite: {
                auto *wr = static_cast<ArrayWrite *>(inst);
                emitPure(wr->index());
                emitPure(wr->value());
                DStep s;
                s.op = uint8_t(DOp::kArrayWrite);
                s.a = prog.slotOf(wr->index());
                s.b = prog.slotOf(wr->value());
                s.x16 = uint16_t(wr->array()->id());
                s.u.mask = maskBits(wr->array()->elemType().bits());
                push(s);
                break;
              }
              case Opcode::kSubscribe: {
                DStep s;
                s.op = uint8_t(DOp::kSubscribe);
                s.a = static_cast<Subscribe *>(inst)->callee()->id();
                push(s);
                break;
              }
              case Opcode::kLog: {
                auto *lg = static_cast<Log *>(inst);
                LogSpec spec;
                spec.inst = lg;
                for (Value *arg : lg->args()) {
                    emitPure(arg);
                    LogArg la;
                    la.slot = prog.slotOf(arg);
                    la.sgn = arg->type().isSigned();
                    la.bits = uint8_t(arg->type().bits());
                    spec.args.push_back(la);
                }
                DStep s;
                s.op = uint8_t(DOp::kLog);
                s.a = uint32_t(prog.logs_.size());
                prog.logs_.push_back(std::move(spec));
                push(s);
                break;
              }
              case Opcode::kAssertInst: {
                auto *as = static_cast<AssertInst *>(inst);
                emitPure(as->cond());
                DStep s;
                s.op = uint8_t(DOp::kAssertEff);
                s.a = prog.slotOf(as->cond());
                s.b = uint32_t(prog.asserts_.size());
                prog.asserts_.push_back(as);
                push(s);
                break;
              }
              case Opcode::kFinish: {
                DStep s;
                s.op = uint8_t(DOp::kFinishEff);
                push(s);
                break;
              }
              case Opcode::kAsyncCall:
              case Opcode::kBind:
                panic("un-lowered call reached the simulator");
              default:
                emitPure(inst);
            }
        }
    }
};

std::vector<FifoShape>
fifoLayout(const System &sys)
{
    std::vector<FifoShape> out;
    uint32_t base = 0;
    for (const auto &mod : sys.modules())
        for (const auto &port : mod->ports()) {
            FifoShape sh;
            sh.depth = uint32_t(port->depth());
            uint32_t cap = 1;
            while (cap < sh.depth)
                cap <<= 1;
            sh.mask = cap - 1;
            sh.base = base;
            sh.policy = uint32_t(port->policy());
            base += cap;
            out.push_back(sh);
        }
    return out;
}

Program::Program(const System &sys) : sys_(&sys), analyzer_(sys)
{
    if (!sys.isLowered())
        fatal("simulate: system '", sys.name(),
              "' has not been compiled/lowered");
    build();
    compile_count.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Program>
Program::compile(const System &sys, Evaluator ev)
{
    HostProfiler::Scope span("Program::compile");
    std::shared_ptr<Program> prog(new Program(sys));
    if (ev == Evaluator::kCompiled)
        prog->attachCompiled(compiledTapes());
    return prog;
}

namespace {

bool
sameLists(const IdLists &mine, const CompiledLists &theirs)
{
    return sameBytes(mine.at, theirs.at, theirs.size + 1) &&
           sameBytes(mine.ids, theirs.ids, theirs.at[theirs.size]);
}

} // namespace

/**
 * Look this Program up among the generated evaluators linked into the
 * binary: by fingerprint, then confirmed by byte equality of every
 * input the generated code was specialized on (the tape, switch table,
 * spans and slot initial values its span functions run, the schedule
 * its cycle bakes in, and the FIFO shapes and array sizes it prints as
 * literals), so a hash collision can only cost the lookup, never a
 * wrong evaluator. An entry with the array sizes printed wins over an
 * any-size one, which reads the bounds from the array state and is
 * looked up by anySizeFingerprint().
 */
void
Program::attachCompiled(const CompiledTapes &all)
{
    const CompiledTape *any_size = nullptr;
    for (size_t i = 0; i < all.size; ++i) {
        const CompiledTape &ct = *all.list[i];
        const bool sized = ct.array_sizes != nullptr;
        if (ct.fingerprint ==
                (sized ? fingerprint_ : any_size_fingerprint_) &&
            sameBytes(tape_, ct.tape, ct.tape_len) &&
            sameBytes(switch_table_, ct.switch_table, ct.switch_len) &&
            sameBytes(spans_, ct.spans, ct.num_spans) &&
            sameBytes(slot_init_, ct.slot_init, ct.slot_len) &&
            sameBytes(topo_idx_, ct.topo, ct.num_spans) &&
            sameBytes(drivers_, ct.drivers, ct.num_spans) &&
            sameBytes(shadow_mods_, ct.shadow_mods, ct.num_shadow_mods) &&
            sameLists(stall_fifos_, ct.stall_fifos) &&
            sameLists(fifo_wake_, ct.fifo_wake) &&
            sameLists(array_wake_, ct.array_wake) &&
            sameBytes(fifo_shapes_, ct.fifo_shapes, ct.num_fifos)) {
            if (!sized) {
                any_size = &ct;
            } else if (sameBytes(array_sizes_, ct.array_sizes,
                                 ct.num_arrays)) {
                compiled_ = &ct;
                return;
            }
        }
    }
    compiled_ = any_size;
}

uint64_t
Program::compileCount()
{
    return compile_count.load(std::memory_order_relaxed);
}

uint32_t
Program::rawSlotOf(const Value *v) const
{
    if (!v->parent())
        panic("simulator: value without a slot");
    return slot_base_[v->parent()->id()] + v->id();
}

uint32_t
Program::slotOf(const Value *v) const
{
    const Value *resolved = chaseRef(const_cast<Value *>(v));
    uint32_t raw = rawSlotOf(resolved);
    return raw < alias_.size() ? alias_[raw] : raw;
}

/**
 * Resolve the identity-cast alias chain of @p val to its canonical
 * slot. A cast is an identity when its result bits equal the source's
 * (any mode), or widen them under zext/trunc/bitcast semantics — the
 * slot invariant (values stored truncated to their own width) makes
 * the operand's slot directly reusable.
 */
uint32_t
Program::aliasOf(const Value *val)
{
    const Value *v = chaseRef(const_cast<Value *>(val));
    uint32_t raw = rawSlotOf(v);
    if (alias_done_[raw])
        return alias_[raw];
    alias_done_[raw] = 1;
    if (v->valueKind() == Value::Kind::kInstr) {
        const auto *inst = static_cast<const Instruction *>(v);
        if (inst->opcode() == Opcode::kCast) {
            const auto *cast = static_cast<const Cast *>(inst);
            const Value *src = chaseRef(cast->value());
            unsigned out = cast->type().bits();
            unsigned sb = src->type().bits();
            bool identity =
                out == sb ||
                (cast->mode() != Cast::Mode::kSExt && out > sb);
            if (identity && src->parent())
                alias_[raw] = aliasOf(src);
        }
    }
    return alias_[raw];
}

void
Program::buildAliases()
{
    alias_.resize(slot_init_.size());
    for (uint32_t i = 0; i < alias_.size(); ++i)
        alias_[i] = i;
    alias_done_.assign(alias_.size(), 0);
    for (const auto &mod : sys_->modules())
        for (const auto &node : mod->nodes())
            if (node->valueKind() == Value::Kind::kInstr)
                aliasOf(node.get());
}

void
Program::build()
{
    port_base_.reserve(sys_->modules().size());
    slot_base_.reserve(sys_->modules().size());
    for (const auto &mod : sys_->modules()) {
        port_base_.push_back(num_fifos_);
        num_fifos_ += static_cast<uint32_t>(mod->numPorts());
    }
    fifo_shapes_ = fifoLayout(*sys_);
    array_sizes_.assign(sys_->arrays().size(), 0);
    for (const auto &arr : sys_->arrays())
        array_sizes_[arr->id()] = static_cast<uint32_t>(arr->init().size());
    // The stall gate of each stage: the kStallProducer FIFOs it pushes
    // into. While any of them is full the stage does not execute (its
    // event is retained), in both backends.
    for (const auto &mod : sys_->modules()) {
        std::vector<uint32_t> gate;
        for (const Port *p : analyzer_.stallPorts(mod.get()))
            gate.push_back(fifoIndex(p));
        stall_fifos_.push(gate);
        drivers_.push_back(mod->isDriver() ? 1 : 0);
    }
    // Slot per IR node.
    for (const auto &mod : sys_->modules()) {
        slot_base_.push_back(static_cast<uint32_t>(slot_init_.size()));
        for (const auto &node : mod->nodes()) {
            uint64_t init = 0;
            bool is_const = node->valueKind() == Value::Kind::kConst;
            if (is_const)
                init = static_cast<ConstInt *>(node.get())->raw();
            slot_init_.push_back(init);
            slot_is_const_.push_back(is_const ? 1 : 0);
        }
    }
    buildAliases();
    if (sys_->topoOrder().empty())
        fatal("simulate: no topological order; run the compiler first");
    topo_pos_.assign(sys_->modules().size(), 0);
    for (Module *mod : sys_->topoOrder()) {
        topo_pos_[mod->id()] = static_cast<uint32_t>(topo_idx_.size());
        topo_idx_.push_back(mod->id());
    }
    // Compile stages in topological order so the transitive shadow
    // sensitivity closure can fold each foreign producer's (already
    // final) input set into its consumers in a single pass — the same
    // order phase 0 evaluates shadows in.
    spans_.resize(sys_->modules().size());
    std::vector<std::set<uint32_t>> dep_fifos(sys_->modules().size());
    std::vector<std::set<uint32_t>> dep_arrays(sys_->modules().size());
    for (uint32_t mid : topo_idx_) {
        const Module &mod = *sys_->modules()[mid];
        std::vector<uint32_t> ext, fdeps, adeps;
        compileModule(mod, ext, fdeps, adeps);
        dep_fifos[mid].insert(fdeps.begin(), fdeps.end());
        dep_arrays[mid].insert(adeps.begin(), adeps.end());
        for (uint32_t pid : ext) {
            dep_fifos[mid].insert(dep_fifos[pid].begin(),
                                  dep_fifos[pid].end());
            dep_arrays[mid].insert(dep_arrays[pid].begin(),
                                   dep_arrays[pid].end());
        }
        if (spans_[mid].shadow_end > spans_[mid].shadow_begin)
            shadow_mods_.push_back(mid);
    }
    // Invert into per-FIFO / per-array wake lists.
    std::vector<std::vector<uint32_t>> fifo_wake(num_fifos_);
    std::vector<std::vector<uint32_t>> array_wake(sys_->arrays().size());
    for (uint32_t mid : shadow_mods_) {
        for (uint32_t fid : dep_fifos[mid])
            fifo_wake[fid].push_back(mid);
        for (uint32_t aid : dep_arrays[mid])
            array_wake[aid].push_back(mid);
    }
    for (const std::vector<uint32_t> &list : fifo_wake)
        fifo_wake_.push(list);
    for (const std::vector<uint32_t> &list : array_wake)
        array_wake_.push(list);
    buildSwitches();
    buildCallGroups();
    auto hash = [this](const auto &vec) {
        fingerprint_ = hashBytes(fingerprint_, vec.data(),
                                 vec.size() * sizeof(vec[0]));
    };
    hash(tape_);
    hash(switch_table_);
    hash(spans_);
    hash(slot_init_);
    hash(topo_idx_);
    hash(drivers_);
    hash(shadow_mods_);
    for (const IdLists *lists : {&stall_fifos_, &fifo_wake_, &array_wake_}) {
        hash(lists->at);
        hash(lists->ids);
    }
    hash(fifo_shapes_);
    any_size_fingerprint_ = fingerprint_;
    hash(array_sizes_);
}

/**
 * Post-compile pass: collapse each run of FSM state guards into one
 * table dispatch. `when(st == k)` arms compile to kSkipIfNeImm guards
 * (guard formation, ProgCompiler::guardKey), so an N-state machine
 * walks N guards every cycle. A chain is a run of
 * such guards g0 < g1 < ... < g(n-1) over one slot, with distinct
 * keys, where each guard skips exactly to the next; the last one skips
 * to the chain end. g0 becomes a kSwitch whose table sends key k(i)
 * straight to the first step of arm i and any other value to the chain
 * end. Each interior guard gi becomes a kJump to the chain end: it is
 * reached only from arm i-1 (its fall-through or a nested skip ending
 * on it), where the slot holds k(i-1) != k(i), so every later guard
 * would have failed too. That holds because the slot has a single
 * writer and is stable for the whole cycle (commits land only in
 * phase 2); the pass checks the two ways it could fail instead of
 * assuming them:
 *   - a chain is cut before any gi that is entered from outside arm
 *     i-1 (a skip located before g(i-1), e.g. an enclosing guard that
 *     ends on gi, or the start of a span), since there the slot may
 *     hold any value;
 *   - a chain whose range writes the slot is left alone.
 * Sparse key sets keep their guards: a switch needs kSwitchMinArms
 * arms and a table of at most kSwitchMaxTable entries, at least one
 * arm per kSwitchEntriesPerArm entries. The tape length does not
 * change.
 */
void
Program::buildSwitches()
{
    constexpr size_t kSwitchMinArms = 3;
    constexpr uint64_t kSwitchMaxTable = 256;
    constexpr uint64_t kSwitchEntriesPerArm = 4;
    const uint32_t n = static_cast<uint32_t>(tape_.size());
    auto op = [&](uint32_t i) { return static_cast<DOp>(tape_[i].op); };
    auto target = [&](uint32_t i) { return i + 1 + tape_[i].b; };
    // Earliest step that can jump to each index; -1 marks a span start.
    std::vector<int64_t> entered(n + 1, INT64_MAX);
    for (uint32_t i = 0; i < n; ++i)
        if (op(i) == DOp::kSkipIfFalse || op(i) == DOp::kSkipIfNeImm)
            entered[target(i)] = std::min<int64_t>(entered[target(i)], i);
    for (const StageSpan &sp : spans_) {
        entered[sp.shadow_begin] = -1;
        entered[sp.active_begin] = -1;
    }
    for (uint32_t g0 = 0; g0 < n; ++g0) {
        if (op(g0) != DOp::kSkipIfNeImm)
            continue;
        const uint32_t slot = tape_[g0].a;
        std::vector<uint32_t> arms{g0};
        std::set<uint64_t> keys{tape_[g0].u.mask};
        uint64_t lo = tape_[g0].u.mask, hi = lo;
        for (uint32_t g = target(g0);
             g < n && op(g) == DOp::kSkipIfNeImm && tape_[g].a == slot &&
             entered[g] >= arms.back();
             g = target(g)) {
            const uint64_t key = tape_[g].u.mask;
            if (keys.count(key) || std::max(hi, key) - std::min(lo, key) >=
                                       kSwitchMaxTable)
                break;
            keys.insert(key);
            lo = std::min(lo, key);
            hi = std::max(hi, key);
            arms.push_back(g);
        }
        const uint32_t end = target(arms.back());
        const uint64_t range = hi - lo + 1;
        if (arms.size() < kSwitchMinArms ||
            range > kSwitchEntriesPerArm * arms.size())
            continue;
        bool writes_slot = false;
        for (uint32_t i = g0 + 1; i < end; ++i)
            writes_slot |= op(i) < DOp::kWaitCheck && tape_[i].dest == slot;
        if (writes_slot)
            continue;
        const uint32_t base = static_cast<uint32_t>(switch_table_.size());
        switch_table_.resize(base + range + 1, end - g0 - 1);
        for (uint32_t g : arms) {
            switch_table_[base + (tape_[g].u.mask - lo)] = g - g0;
            entered[g + 1] = std::min<int64_t>(entered[g + 1], g0);
            if (g == g0)
                continue;
            DStep jump;
            jump.op = uint8_t(DOp::kJump);
            jump.b = end - g - 1;
            tape_[g] = jump;
        }
        DStep &sw = tape_[g0];
        sw.op = uint8_t(DOp::kSwitch);
        sw.b = base;
        sw.dest = static_cast<uint32_t>(range);
        sw.u.mask = lo;
        entered[end] = std::min<int64_t>(entered[end], g0);
    }
}

/**
 * Prove the call groups (callGroups()) from the finished tape, in time
 * linear in the tape. A straight-line run starts at a span boundary, at
 * a jump target and after each step that can leave the straight line
 * (a wait check, a skip, a switch, a jump); every step of a run
 * executes when its first step does. Each FIFO's push and pop steps are
 * listed by run, and a FIFO joins the group of the one before it when
 * its shape's depth and policy and both run lists equal that one's, and
 * no run appears twice in either list: then every run that pushes (or
 * pops) one member pushes (or pops) each member exactly once, and no
 * other step changes an occupancy. Its pops must all sit in one span
 * (one consumer). The inputs are the tape, the switch table, the spans
 * and the FIFO shapes, so the groups need no hash of their own.
 */
void
Program::buildCallGroups()
{
    const uint32_t n = static_cast<uint32_t>(tape_.size());
    std::vector<uint8_t> starts(n + 1, 0);
    std::vector<uint32_t> span_of(n, UINT32_MAX);
    for (uint32_t m = 0; m < spans_.size(); ++m) {
        const StageSpan &sp = spans_[m];
        for (uint32_t at : {sp.shadow_begin, sp.shadow_end, sp.active_begin,
                            sp.active_end})
            starts[at] = 1;
        std::fill(span_of.begin() + sp.shadow_begin,
                  span_of.begin() + sp.shadow_end, 2 * m);
        std::fill(span_of.begin() + sp.active_begin,
                  span_of.begin() + sp.active_end, 2 * m + 1);
    }
    for (uint32_t i = 0; i < n; ++i) {
        const DStep &s = tape_[i];
        switch (static_cast<DOp>(s.op)) {
          case DOp::kSkipIfFalse:
          case DOp::kSkipIfNeImm:
          case DOp::kJump:
            starts[i + 1 + s.b] = 1;
            starts[i + 1] = 1;
            break;
          case DOp::kSwitch:
            for (uint32_t k = 0; k <= s.dest; ++k)
                starts[i + 1 + switch_table_[s.b + k]] = 1;
            starts[i + 1] = 1;
            break;
          case DOp::kWaitCheck:
            starts[i + 1] = 1;
            break;
          default:
            break;
        }
    }
    // Each step's run, numbered in tape order, and its pushed or popped
    // FIFO: every FIFO's run lists then come out sorted.
    std::vector<uint32_t> run(n);
    for (uint32_t i = 0, r = 0; i < n; ++i)
        run[i] = r += starts[i];
    auto fifo_of = [&](uint32_t i, DOp op) {
        return static_cast<DOp>(tape_[i].op) != op ? UINT32_MAX
               : op == DOp::kPush                  ? tape_[i].b
                                                   : tape_[i].a;
    };
    // The runs of each FIFO's steps of opcode op, as flat lists.
    auto runLists = [&](DOp op) {
        IdLists lists;
        lists.at.assign(num_fifos_ + 1, 0);
        for (uint32_t i = 0; i < n; ++i)
            if (uint32_t f = fifo_of(i, op); f != UINT32_MAX)
                ++lists.at[f + 1];
        for (uint32_t f = 0; f < num_fifos_; ++f)
            lists.at[f + 1] += lists.at[f];
        lists.ids.resize(lists.at[num_fifos_]);
        std::vector<uint32_t> fill(lists.at.begin(), lists.at.end() - 1);
        for (uint32_t i = 0; i < n; ++i)
            if (uint32_t f = fifo_of(i, op); f != UINT32_MAX)
                lists.ids[fill[f]++] = i;
        return lists;
    };
    const IdLists pushes = runLists(DOp::kPush);
    const IdLists pops = runLists(DOp::kDequeue);
    // Whether FIFO f's steps each sit in a run of their own, and its
    // pops in one span.
    auto proper = [&](uint32_t f) {
        for (const IdLists *l : {&pushes, &pops}) {
            const auto steps = (*l)[f];
            for (size_t k = 1; k < steps.size(); ++k)
                if (run[steps[k]] == run[steps[k - 1]])
                    return false;
        }
        const auto popped = pops[f];
        return !popped.empty() &&
               span_of[popped.front()] == span_of[popped.back()];
    };
    auto sameRuns = [&](const IdLists &l, uint32_t f) {
        const auto a = l[f - 1], b = l[f];
        if (a.size() != b.size())
            return false;
        for (size_t k = 0; k < a.size(); ++k)
            if (run[a[k]] != run[b[k]])
                return false;
        return true;
    };
    call_groups_.assign(1, 0);
    bool prev_proper = num_fifos_ > 0 && proper(0);
    for (uint32_t f = 1; f < num_fifos_; ++f) {
        const bool ok = proper(f);
        const FifoShape &a = fifo_shapes_[f - 1], &b = fifo_shapes_[f];
        if (!(ok && prev_proper && a.depth == b.depth &&
              a.policy == b.policy && sameRuns(pushes, f) &&
              sameRuns(pops, f)))
            call_groups_.push_back(f);
        prev_proper = ok;
    }
    if (num_fifos_ > 0)
        call_groups_.push_back(num_fifos_);
}

std::string
Program::describe() const
{
    std::ostringstream os;
    os << "program '" << sys_->name() << "': " << tape_.size()
       << " steps, " << slot_init_.size() << " slots\n";
    auto count = [&](uint32_t begin, uint32_t end, auto pred) {
        uint32_t c = 0;
        for (uint32_t i = begin; i < end; ++i)
            c += pred(static_cast<DOp>(tape_[i].op));
        return c;
    };
    // A formed guard stays a kSkipIfNeImm or, collapsed into a switch,
    // became its kSwitch or one of its kJumps (buildSwitches).
    auto guard = [](DOp op) {
        return op == DOp::kSkipIfNeImm || op == DOp::kSwitch ||
               op == DOp::kJump;
    };
    auto sw = [](DOp op) { return op == DOp::kSwitch; };
    for (uint32_t mid : topo_idx_) {
        const StageSpan &sp = spans_[mid];
        os << "  stage " << sys_->modules()[mid]->name() << ": shadow "
           << sp.shadow_end - sp.shadow_begin << ", active "
           << sp.active_end - sp.active_begin << ", guards "
           << count(sp.shadow_begin, sp.shadow_end, guard) +
                  count(sp.active_begin, sp.active_end, guard)
           << ", switches "
           << count(sp.shadow_begin, sp.shadow_end, sw) +
                  count(sp.active_begin, sp.active_end, sw)
           << "\n";
    }
    const size_t groups = call_groups_.size() - 1;
    os << "call groups: " << groups << " over " << num_fifos_ << " FIFOs\n";
    for (size_t g = 0; g < groups; ++g) {
        const uint32_t a = call_groups_[g], b = call_groups_[g + 1] - 1;
        uint32_t owner = 0;
        while (owner + 1 < port_base_.size() && port_base_[owner + 1] <= a)
            ++owner;
        os << "  " << sys_->modules()[owner]->name() << ": fifos [" << a
           << ".." << b << "]\n";
    }
    return os.str();
}

void
Program::compileModule(const Module &mod, std::vector<uint32_t> &ext_mods,
                       std::vector<uint32_t> &fifo_deps,
                       std::vector<uint32_t> &arr_deps)
{
    StageSpan &span = spans_[mod.id()];
    // Shadow: the pure cone of every exposed combinational value,
    // re-evaluated whenever a sensitivity input changes — the lazy
    // equivalent of the always-on RTL wires.
    std::set<const Value *> shadow_emitted;
    {
        ProgCompiler pc(*this, mod, &tape_);
        span.shadow_begin = static_cast<uint32_t>(tape_.size());
        for (const auto &[name, val] : mod.exposures()) {
            bool is_bind =
                val->valueKind() == Value::Kind::kInstr &&
                static_cast<const Instruction *>(val)->opcode() ==
                    Opcode::kBind;
            if (!is_bind)
                pc.emitPure(val);
        }
        span.shadow_end = static_cast<uint32_t>(tape_.size());
        ext_mods.assign(pc.ext_mods.begin(), pc.ext_mods.end());
        fifo_deps.assign(pc.fifo_deps.begin(), pc.fifo_deps.end());
        arr_deps.assign(pc.arr_deps.begin(), pc.arr_deps.end());
        shadow_emitted = std::move(pc.emitted);
    }
    // Active: wait_until guard then the body, de-duplicated against
    // the shadow span (same start-of-cycle state, same values).
    {
        ProgCompiler pc(*this, mod, &tape_);
        pc.emitted = std::move(shadow_emitted);
        span.active_begin = static_cast<uint32_t>(tape_.size());
        if (mod.waitCond()) {
            pc.emitPure(mod.waitCond());
            uint64_t wc = 0;
            bool wc_const = pc.constOf(mod.waitCond(), wc);
            if (!wc_const || !wc) {
                // A constant-true guard never spins; drop the check.
                // (Constant-false still emits: the stage must spin on
                // every event exactly as the netlist backend stalls.)
                DStep s;
                s.op = uint8_t(DOp::kWaitCheck);
                s.a = slotOf(mod.waitCond());
                tape_.push_back(s);
            }
        }
        pc.emitEffects(mod.body());
        span.active_end = static_cast<uint32_t>(tape_.size());
    }
}

} // namespace sim
} // namespace assassyn
