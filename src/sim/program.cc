#include "sim/program.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>

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
 * fused tape. Operates on the Program under construction; never used
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
        auto note_use = [&](const Instruction *user, Value *op) {
            op = chaseRef(op);
            if (op->valueKind() != Value::Kind::kInstr ||
                op->parent() != &mod)
                return;
            auto *def = static_cast<Instruction *>(op);
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
     * immediate-fused step. @p live is the non-constant operand, @p imm
     * the constant's value, @p imm_is_lhs its side. Fills everything
     * but s.dest. Returns 0 when no fusion applies (caller emits the
     * two-slot form), 1 when @p s was encoded, 2 when the result is a
     * compile-time zero (an over-wide shift) the caller should fold.
     *
     * Only ops whose immediate form fusion or dispatch keys on (eq, ne,
     * add) or that re-encode onto a pure op (and -> kMask, shr ->
     * kSlice, sub -> kAddImm) inline the constant; every other op keeps
     * the two-slot form, the constant staying in its slot.
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
                uint32_t cond_slot = prog.slotOf(cb->cond());
                // Shared values compute unconditionally; the rest of
                // the region is jumped over when the predicate is 0.
                // A run of FSM state arms later collapses into one
                // kSwitch (buildSwitches), so inactive states cost
                // nothing per cycle.
                preEmitShared(*cb->body());
                size_t skip_at = out->size();
                DStep skip;
                skip.op = uint8_t(DOp::kSkipIfFalse);
                skip.a = cond_slot;
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
        prog->attachCompiled();
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
 * spans and slot initial values its span functions run, and the
 * schedule its cycle bakes in), so a hash collision can only cost the
 * lookup, never a wrong evaluator.
 */
void
Program::attachCompiled()
{
    const CompiledTapes all = compiledTapes();
    for (size_t i = 0; i < all.size; ++i) {
        const CompiledTape &ct = *all.list[i];
        if (ct.fingerprint == fingerprint_ &&
            sameBytes(tape_, ct.tape, ct.tape_len) &&
            sameBytes(switch_table_, ct.switch_table, ct.switch_len) &&
            sameBytes(spans_, ct.spans, ct.num_spans) &&
            sameBytes(slot_init_, ct.slot_init, ct.slot_len) &&
            sameBytes(topo_idx_, ct.topo, ct.num_spans) &&
            sameBytes(drivers_, ct.drivers, ct.num_spans) &&
            sameBytes(shadow_mods_, ct.shadow_mods, ct.num_shadow_mods) &&
            sameLists(stall_fifos_, ct.stall_fifos) &&
            sameLists(fifo_wake_, ct.fifo_wake) &&
            sameLists(array_wake_, ct.array_wake)) {
            compiled_ = &ct;
            return;
        }
    }
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

uint32_t
Program::newSyntheticSlot()
{
    slot_init_.push_back(0);
    slot_is_const_.push_back(0);
    return static_cast<uint32_t>(slot_init_.size() - 1);
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
    // Slot per IR node, plus synthetic slots appended by the compiler.
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
    fuseTape();
    buildSwitches();
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
}

/**
 * Post-compile peephole over the finished tape: fold single-use
 * producers into the step that consumes them. Hardware descriptions
 * lower to a handful of dominant shapes — decode tables become
 * `r = (op == K) ? v : r` chains (compare-select superinstructions),
 * handshake predicates become trees of 1-bit AND/OR over FIFO-valid
 * and compare leaves (three-operand boolean superinstructions), and
 * field extraction/reassembly becomes slice-feeding-concat chains
 * (fused shift-mask-or forms). Each fusion removes a dispatch, a slot
 * store and a slot reload from the hot path.
 *
 * Deleting the producer is safe whenever its result has exactly one
 * reader: pure steps are side-effect free, every slot has a single
 * writer, and slot values are stable for the whole cycle (commits only
 * happen in phase 2), so re-evaluating the producer at the consumer's
 * position always reproduces the value the dedicated step would have
 * left behind. FIFO-valid counts as pure here because FIFO counts only
 * move at commit. Two ordering hazards are excluded by construction: a
 * consumer that runs before its producer cannot occur (cross-module
 * reads only target shadow spans, which run first, in the same
 * topological order the tape is laid out in), and a producer inside a
 * conditional skip region is only ever read from the same region
 * (values shared with code outside a region are pre-hoisted by
 * preEmitShared). Masks are preserved exactly: fusions that would
 * change a dropped mask's observable effect are guarded out. Spans and
 * skip offsets are remapped after compaction.
 */
void
Program::fuseTape()
{
    const size_t n = tape_.size();
    constexpr uint32_t kNoReader = 0xffffffffu;
    std::vector<uint32_t> uses(slot_init_.size(), 0);
    std::vector<uint32_t> reader(slot_init_.size(), kNoReader);
    auto note = [&](uint32_t slot, size_t idx) {
        ++uses[slot];
        reader[slot] = static_cast<uint32_t>(idx);
    };
    for (size_t i = 0; i < n; ++i) {
        const DStep &s = tape_[i];
        switch (static_cast<DOp>(s.op)) {
          case DOp::kAnd:
          case DOp::kOr:
          case DOp::kXor:
          case DOp::kAdd:
          case DOp::kSub:
          case DOp::kMul:
          case DOp::kShl:
          case DOp::kShrU:
          case DOp::kShrS:
          case DOp::kEq:
          case DOp::kNe:
          case DOp::kLtU:
          case DOp::kLeU:
          case DOp::kGtU:
          case DOp::kGeU:
          case DOp::kLtS:
          case DOp::kLeS:
          case DOp::kGtS:
          case DOp::kGeS:
          case DOp::kConcat:
          case DOp::kBinGeneric:
          case DOp::kArrayWrite:
            note(s.a, i);
            note(s.b, i);
            break;
          case DOp::kNot:
          case DOp::kNeg:
          case DOp::kRedOr:
          case DOp::kRedAnd:
          case DOp::kSlice:
          case DOp::kMask:
          case DOp::kSExt:
          case DOp::kAddImm:
          case DOp::kEqImm:
          case DOp::kNeImm:
          case DOp::kArrayRead:
          case DOp::kWaitCheck:
          case DOp::kSkipIfFalse:
          case DOp::kSkipIfNeImm:
          case DOp::kSwitch:
          case DOp::kPush:
          case DOp::kArrayRmw:
          case DOp::kAssertEff:
            note(s.a, i);
            break;
          case DOp::kNeImmAnd:
          case DOp::kSliceConcat:
          case DOp::kConcatSlice:
          case DOp::kWaitCheckAnd:
            note(s.a, i);
            note(s.b, i);
            break;
          case DOp::kSelect:
            note(s.a, i);
            note(s.b, i);
            note(s.u.ca.c, i);
            break;
          case DOp::kEqImmSel:
          case DOp::kAndAnd:
          case DOp::kAndOr:
          case DOp::kOrAnd:
          case DOp::kOrOr:
          case DOp::kEqAnd:
          case DOp::kNeAnd:
          case DOp::kConcat3:
            note(s.a, i);
            note(s.b, i);
            note(s.x16, i);
            break;
          case DOp::kAndSel:
            note(s.a, i);
            note(s.b, i);
            note(s.x16, i);
            note(s.u.ca.c, i);
            break;
          case DOp::kSelSel:
          case DOp::kOr5:
            note(s.a, i);
            note(s.b, i);
            note(s.x16, i);
            note(s.u.ca.c, i);
            note(s.u.ca.aux, i);
            break;
          case DOp::kEqImmSel3:
          case DOp::kEqAndAnd:
            note(s.a, i);
            note(s.b, i);
            note(s.u.ca.c, i);
            note(s.u.ca.aux, i);
            break;
          case DOp::kValidAnd:
          case DOp::kValid2And:
          case DOp::kWaitCheckValidAnd:
            note(s.b, i);
            break;
          case DOp::kPushCat:
            // dest doubles as the lsb-operand slot (kPush has no
            // result), so it is an input here.
            note(s.a, i);
            note(s.dest, i);
            break;
          case DOp::kArrayReadImm:
          case DOp::kArrayReadImmAdd:
          case DOp::kValid2:
          case DOp::kFifoValid:
          case DOp::kFifoPeek:
          case DOp::kDequeue:
          case DOp::kJump:
          case DOp::kSubscribe:
          case DOp::kLog:
          case DOp::kFinishEff:
            break;
        }
    }
    // Log arguments read slots outside the tape; count them so their
    // producers are never deleted.
    for (const LogSpec &ls : logs_)
        for (const LogArg &la : ls.args)
            ++uses[la.slot];

    std::vector<uint8_t> dead(n, 0);
    size_t fused = 0;
    for (size_t i = 0; i < n; ++i) {
        const DStep &p = tape_[i];
        const DOp pop = static_cast<DOp>(p.op);
        switch (pop) {
          case DOp::kEqImm:
          case DOp::kNeImm:
          case DOp::kAnd:
          case DOp::kOr:
          case DOp::kEq:
          case DOp::kNe:
          case DOp::kFifoValid:
          case DOp::kConcat:
          case DOp::kSlice:
          case DOp::kEqImmSel:
          case DOp::kArrayReadImm:
          case DOp::kSelect:
          case DOp::kValidAnd:
          case DOp::kOrOr:
          case DOp::kArrayReadImmAdd:
            break;
          default:
            continue;
        }
        if (uses[p.dest] != 1)
            continue;
        const uint32_t r = reader[p.dest];
        if (r == kNoReader || r <= i || dead[r])
            continue;
        DStep &c = tape_[r];
        const DOp cop = static_cast<DOp>(c.op);
        // For commutative two-slot consumers, the operand that is not
        // the fused producer.
        const uint32_t other = c.a == p.dest ? c.b : c.a;
        DStep f{};
        f.dest = c.dest;
        bool ok = false;
        switch (pop) {
          case DOp::kEqImm:
          case DOp::kNeImm: {
            const bool ne = pop == DOp::kNeImm;
            const uint64_t imm = p.u.mask;
            f.a = p.a;
            switch (cop) {
              case DOp::kSelect: {
                if (c.a != p.dest)
                    break;
                uint32_t tslot = c.b, fslot = c.u.ca.c;
                if (ne)
                    std::swap(tslot, fslot);
                if (imm > 0xffffffffull || fslot > 0xffffull)
                    break;
                f.op = uint8_t(DOp::kEqImmSel);
                f.b = tslot;
                f.x16 = uint16_t(fslot);
                f.u.ca.aux = uint32_t(imm);
                ok = true;
                break;
              }
              case DOp::kSkipIfFalse:
                // The compare result is i1, so the skip's truthiness
                // test reduces to the compare itself. Only == guards
                // fuse: no perfbench design has a != guard here.
                if (ne)
                    break;
                f.op = uint8_t(DOp::kSkipIfNeImm);
                f.b = c.b; // relative skip offset, remapped below
                f.u.mask = imm;
                ok = true;
                break;
              case DOp::kAnd:
                if (!ne || imm > 0xffffffffull)
                    break;
                f.op = uint8_t(DOp::kNeImmAnd);
                f.b = other;
                f.u.ca.aux = uint32_t(imm);
                ok = true;
                break;
              default:
                break;
            }
            break;
          }
          case DOp::kAnd:
          case DOp::kOr:
            switch (cop) {
              case DOp::kAnd:
              case DOp::kOr:
                // Exact iff the consumer's result mask is a subset of
                // the producer's (the final mask then clears any bit
                // the dropped producer mask would have cleared).
                if (other > 0xffffull || (c.u.mask & ~p.u.mask) != 0)
                    break;
                f.op = uint8_t(pop == DOp::kAnd
                                   ? (cop == DOp::kAnd ? DOp::kAndAnd
                                                       : DOp::kAndOr)
                                   : (cop == DOp::kAnd ? DOp::kOrAnd
                                                       : DOp::kOrOr));
                f.a = p.a;
                f.b = p.b;
                f.x16 = uint16_t(other);
                f.u.mask = c.u.mask;
                ok = true;
                break;
              case DOp::kSelect:
                if (pop != DOp::kAnd || c.a != p.dest ||
                    c.b > 0xffffull || p.u.mask > 0xffffffffull)
                    break;
                f.op = uint8_t(DOp::kAndSel);
                f.a = p.a;
                f.b = p.b;
                f.x16 = uint16_t(c.b);
                f.u.ca.c = c.u.ca.c;
                f.u.ca.aux = uint32_t(p.u.mask);
                ok = true;
                break;
              case DOp::kWaitCheck:
                if (pop != DOp::kAnd)
                    break;
                f.op = uint8_t(DOp::kWaitCheckAnd);
                f.a = p.a;
                f.b = p.b;
                f.u.mask = p.u.mask;
                ok = true;
                break;
              case DOp::kEqAnd:
                // The compare result is i1, so only bit 0 of the fused
                // AND matters; every width mask keeps bit 0, making the
                // dropped producer mask unobservable.
                if (pop != DOp::kAnd || c.x16 != p.dest)
                    break;
                f.op = uint8_t(DOp::kEqAndAnd);
                f.a = c.a;
                f.b = c.b;
                f.u.ca.c = p.a;
                f.u.ca.aux = p.b;
                ok = true;
                break;
              default:
                break;
            }
            break;
          case DOp::kEq:
          case DOp::kNe:
            if (cop != DOp::kAnd || other > 0xffffull)
                break;
            f.op = uint8_t(pop == DOp::kEq ? DOp::kEqAnd : DOp::kNeAnd);
            f.a = p.a;
            f.b = p.b;
            f.x16 = uint16_t(other);
            ok = true;
            break;
          case DOp::kFifoValid:
            if (cop == DOp::kAnd) {
                f.op = uint8_t(DOp::kValidAnd);
                f.a = p.a; // FIFO id
                f.b = other;
                ok = true;
            } else if (cop == DOp::kValidAnd && c.b == p.dest &&
                       p.a <= 0xffffull) {
                f.op = uint8_t(DOp::kValid2);
                f.a = c.a;  // consumer's FIFO id
                f.x16 = uint16_t(p.a);
                ok = true;
            }
            break;
          case DOp::kValidAnd:
            if (cop == DOp::kValidAnd && c.b == p.dest &&
                p.a <= 0xffffull) {
                f.op = uint8_t(DOp::kValid2And);
                f.a = c.a;
                f.x16 = uint16_t(p.a);
                f.b = p.b;
                ok = true;
            } else if (cop == DOp::kWaitCheck) {
                f.op = uint8_t(DOp::kWaitCheckValidAnd);
                f.a = p.a;
                f.b = p.b;
                ok = true;
            }
            break;
          case DOp::kConcat: {
            if (cop == DOp::kPush && c.a == p.dest) {
                // dest carries the lsb-operand slot; both masks combine
                // so the pushed value is bit-exact.
                f.op = uint8_t(DOp::kPushCat);
                f.a = p.a;
                f.dest = p.b;
                f.x8 = p.x8;
                f.b = c.b;     // FIFO id
                f.x16 = c.x16; // source module id
                f.u.mask = p.u.mask & c.u.mask;
                ok = true;
                break;
            }
            // Concat never overflows its width (operands are stored
            // masked), so the inner mask is redundant; only the outer
            // mask is kept.
            if (cop != DOp::kConcat || c.u.mask > 0xffffffffull)
                break;
            uint32_t fa, fb, third;
            uint8_t sa, sb;
            if (c.a == p.dest) { // fused value is the msb operand
                fa = p.a;
                sa = uint8_t(p.x8 + c.x8);
                fb = p.b;
                sb = c.x8;
                third = c.b;
                if (unsigned(p.x8) + unsigned(c.x8) > 63u)
                    break;
            } else { // fused value is the lsb operand
                fa = c.a;
                sa = c.x8;
                fb = p.a;
                sb = p.x8;
                third = p.b;
            }
            if (third > 0xffffull)
                break;
            f.op = uint8_t(DOp::kConcat3);
            f.a = fa;
            f.b = fb;
            f.x16 = uint16_t(third);
            f.x8 = sa;
            f.u.ca.aux = sb;
            f.u.ca.c = uint32_t(c.u.mask);
            ok = true;
            break;
          }
          case DOp::kSlice: {
            if (cop != DOp::kConcat || p.u.mask > 0xffffffffull ||
                c.u.mask > 0xffffffffull)
                break;
            if (c.a == p.dest) { // slice is the msb operand
                f.op = uint8_t(DOp::kSliceConcat);
                f.a = p.a;
                f.b = c.b;
                f.x8 = p.x8;
                f.x16 = c.x8;
            } else { // slice is the lsb operand
                f.op = uint8_t(DOp::kConcatSlice);
                f.a = c.a;
                f.b = p.a;
                f.x8 = c.x8;
                f.x16 = p.x8;
            }
            f.u.ca.c = uint32_t(p.u.mask);
            f.u.ca.aux = uint32_t(c.u.mask);
            ok = true;
            break;
          }
          case DOp::kEqImmSel:
            // Decode chain: this select is the false arm of a later
            // select over the same scrutinee (produced by an earlier
            // fixpoint round). Both immediates must fit the narrow
            // fields; all three arms stay slots.
            if (cop != DOp::kEqImmSel || c.x16 != p.dest ||
                c.a != p.a || c.u.ca.aux > 0xffull ||
                p.u.ca.aux > 0xffffull)
                break;
            f.op = uint8_t(DOp::kEqImmSel3);
            f.a = c.a;
            f.x8 = uint8_t(c.u.ca.aux);
            f.b = c.b;
            f.x16 = uint16_t(p.u.ca.aux);
            f.u.ca.c = p.b;
            f.u.ca.aux = p.x16;
            ok = true;
            break;
          case DOp::kArrayReadImm:
            if (cop != DOp::kAddImm || c.a != p.dest)
                break;
            f.op = uint8_t(DOp::kArrayReadImmAdd);
            f.a = p.a;
            f.b = p.b;
            f.x8 = c.x8;
            f.u.mask = c.u.mask;
            ok = true;
            break;
          case DOp::kSelect:
            // A select feeding only the false arm of a later select
            // collapses into a three-way select.
            if (cop != DOp::kSelect || c.u.ca.c != p.dest ||
                p.a > 0xffffull)
                break;
            f.op = uint8_t(DOp::kSelSel);
            f.a = c.a;
            f.b = c.b;
            f.x16 = uint16_t(p.a);
            f.u.ca.c = p.b;
            f.u.ca.aux = p.u.ca.c;
            ok = true;
            break;
          case DOp::kOrOr:
            // Five-way OR. Exactness needs the consumer mask to be a
            // subset of the producer's (same argument as the two-level
            // trees) and contiguous, so it packs into a shift count.
            if (cop != DOp::kOrOr || c.u.mask == 0 ||
                (c.u.mask & ~p.u.mask) != 0 ||
                (~0ull >> __builtin_clzll(c.u.mask)) != c.u.mask)
                break;
            {
                uint32_t o1, o2;
                if (c.a == p.dest) {
                    o1 = c.b;
                    o2 = c.x16;
                } else if (c.b == p.dest) {
                    o1 = c.a;
                    o2 = c.x16;
                } else {
                    o1 = c.a;
                    o2 = c.b;
                }
                f.op = uint8_t(DOp::kOr5);
                f.a = p.a;
                f.b = p.b;
                f.x16 = p.x16;
                f.u.ca.c = o1;
                f.u.ca.aux = o2;
                f.x8 = uint8_t(__builtin_clzll(c.u.mask));
                ok = true;
            }
            break;
          case DOp::kArrayReadImmAdd:
            // Read-modify-write counter: legal when the write mask
            // keeps every bit the read-add's width mask can produce.
            if (cop != DOp::kArrayWrite || c.b != p.dest ||
                ((~0ull >> p.x8) & ~c.u.mask) != 0)
                break;
            f.op = uint8_t(DOp::kArrayRmw);
            f.a = c.a;    // index slot
            f.b = p.b;    // source array
            f.dest = p.a; // immediate word index into the source
            f.x16 = c.x16;
            f.x8 = p.x8;
            f.u.mask = p.u.mask;
            ok = true;
            break;
          default:
            break;
        }
        if (!ok)
            continue;
        c = f;
        dead[i] = 1;
        ++fused;
    }
    if (!fused)
        return;

    // Compact and remap every tape-index consumer: spans and the
    // relative skip offsets (a skip lands on the first survivor at or
    // past its old target).
    std::vector<uint32_t> newidx(n + 1);
    uint32_t live = 0;
    for (size_t i = 0; i < n; ++i) {
        newidx[i] = live;
        if (!dead[i])
            ++live;
    }
    newidx[n] = live;
    for (size_t i = 0; i < n; ++i) {
        if (dead[i])
            continue;
        const DOp op = static_cast<DOp>(tape_[i].op);
        if (op == DOp::kSkipIfFalse || op == DOp::kSkipIfNeImm) {
            uint32_t tgt = static_cast<uint32_t>(i) + 1 + tape_[i].b;
            tape_[i].b = newidx[tgt] - newidx[i] - 1;
        }
    }
    std::vector<DStep> packed;
    packed.reserve(live);
    for (size_t i = 0; i < n; ++i)
        if (!dead[i])
            packed.push_back(tape_[i]);
    tape_.swap(packed);
    for (StageSpan &sp : spans_) {
        sp.shadow_begin = newidx[sp.shadow_begin];
        sp.shadow_end = newidx[sp.shadow_end];
        sp.active_begin = newidx[sp.active_begin];
        sp.active_end = newidx[sp.active_end];
    }
    // A fused step can itself be the producer of a further fusion
    // (decode select chains fuse pairwise per pass), so iterate to a
    // fixpoint. Each pass recounts uses over the compacted tape;
    // termination is guaranteed because every pass shrinks the tape.
    fuseTape();
}

/**
 * Post-fusion pass: collapse each run of FSM state guards into one
 * table dispatch. `when(st == k)` arms fuse to kSkipIfNeImm steps, so
 * an N-state machine walks N guards every cycle. A chain is a run of
 * such guards g0 < g1 < ... < g(n-1) over one slot, with distinct
 * keys, where each guard skips exactly to the next; the last one skips
 * to the chain end. g0 becomes a kSwitch whose table sends key k(i)
 * straight to the first step of arm i and any other value to the chain
 * end. Each interior guard gi becomes a kJump to the chain end: it is
 * reached only from arm i-1 (its fall-through or a nested skip ending
 * on it), where the slot holds k(i-1) != k(i), so every later guard
 * would have failed too. That holds because the slot has a single
 * writer and is stable for the whole cycle (see fuseTape); the pass
 * checks the two ways it could fail instead of assuming them:
 *   - a chain is cut before any gi that is entered from outside arm
 *     i-1 (a skip located before g(i-1), e.g. an enclosing guard that
 *     ends on gi, or the start of a span), since there the slot may
 *     hold any value;
 *   - a chain whose range writes the slot is left alone.
 * Sparse key sets keep their guards: a switch needs kSwitchMinArms
 * arms and a table of at most kSwitchMaxTable entries, at least one
 * arm per kSwitchEntriesPerArm entries. Runs only once, after the
 * fusion fixpoint; the tape length does not change.
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
