/**
 * @file
 * Constant folding.
 *
 * Pure instructions whose operands are all literals are evaluated at
 * compile time through the semantics kernel both simulators run
 * (sim/tape.h: encodeInstr, then evalPure over the same rows the
 * engines' handlers are generated from), so a folded design cannot
 * diverge from an unfolded one — division by zero, shift overflow, and
 * signed overflow all fold to the same bits the backends would compute
 * at cycle time.
 *
 * Folding rewrites operands in place and never deletes instructions:
 * the netlist cell count (and with it the Fig. 13 area model) is
 * unchanged, only the wiring moves onto constant nets. Instructions
 * that keep private operand copies outside the generic operand list
 * (Log, Bind, AsyncCall) are left untouched, since replaceOperand()
 * would desynchronize the two.
 */
#include <unordered_map>

#include "core/compiler/pass.h"
#include "core/compiler/walk.h"
#include "sim/tape.h"

namespace assassyn {

namespace {

/** Folding state shared across modules (cross-refs resolve anywhere). */
struct Folder {
    /** Instruction -> literal (or forwarded value) replacing it. */
    std::unordered_map<const Value *, Value *> folded;

    /** The literal a value evaluates to, or null when not constant. */
    const ConstInt *
    literalOf(Value *v)
    {
        Value *r = chaseRef(v);
        auto it = folded.find(r);
        if (it != folded.end())
            r = it->second;
        return r->valueKind() == Value::Kind::kConst
                   ? static_cast<const ConstInt *>(r)
                   : nullptr;
    }

    void
    rewriteOperands(Instruction *inst)
    {
        for (size_t i = 0; i < inst->numOperands(); ++i) {
            auto it = folded.find(chaseRef(inst->operand(i)));
            if (it != folded.end())
                inst->replaceOperand(i, it->second);
        }
    }

    void
    fold(Instruction *inst, uint64_t raw)
    {
        folded[inst] = inst->parent()->create<ConstInt>(inst->type(), raw);
    }

    void
    visit(Instruction *inst)
    {
        switch (inst->opcode()) {
          case Opcode::kLog:
          case Opcode::kBind:
          case Opcode::kAsyncCall:
            return; // private arg vectors; see file comment
          default:
            break;
        }
        rewriteOperands(inst);
        sim::DStep s;
        if (sim::encodeInstr(s, *inst)) {
            const ConstInt *a = literalOf(inst->operand(0));
            const ConstInt *b = inst->numOperands() > 1
                                    ? literalOf(inst->operand(1))
                                    : nullptr;
            if (a && (b || inst->numOperands() == 1))
                fold(inst, sim::evalPure(s, a->raw(), b ? b->raw() : 0));
            return;
        }
        if (inst->opcode() == Opcode::kSelect) {
            // A constant condition forwards the chosen arm (which need
            // not itself be constant) to every later use.
            auto *sel = static_cast<Select *>(inst);
            if (const ConstInt *c = literalOf(sel->cond()))
                folded[inst] = c->raw() ? sel->onTrue() : sel->onFalse();
        }
    }
};

} // namespace

void
foldConstants(System &sys)
{
    Folder folder;
    for (const auto &mod : sys.modules())
        forEachInst(*mod, [&](Instruction *inst) { folder.visit(inst); });
}

} // namespace assassyn
