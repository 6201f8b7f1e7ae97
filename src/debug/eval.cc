#include "debug/eval.h"

#include <map>

#include "core/ir/array.h"
#include "core/ir/instruction.h"
#include "core/ir/module.h"
#include "core/ir/value.h"
#include "sim/engine.h"
#include "support/logging.h"
#include "support/ops.h"

namespace assassyn {
namespace debug {

namespace {

/**
 * One evaluation walk. Memoized per call: a value's cone is a DAG, and
 * without the memo a diamond-heavy cone re-evaluates shared subtrees
 * exponentially. State reads are committed-boundary reads, so within
 * one walk every revisit of a node yields the same number — caching is
 * semantics-preserving.
 */
struct Walk {
    const sim::Engine &engine;
    std::map<const Value *, uint64_t> memo;

    uint64_t
    eval(const Value *v)
    {
        auto it = memo.find(v);
        if (it != memo.end())
            return it->second;
        uint64_t out = compute(v);
        memo.emplace(v, out);
        return out;
    }

    uint64_t
    compute(const Value *v)
    {
        switch (v->valueKind()) {
          case Value::Kind::kConst:
            return static_cast<const ConstInt *>(v)->raw();
          case Value::Kind::kCrossRef: {
            const auto *xr = static_cast<const CrossRef *>(v);
            if (!xr->resolved())
                fatal("debug eval: cross-stage reference into '",
                      xr->producer() ? xr->producer()->name() : "?",
                      "' was never resolved");
            return eval(xr->resolved());
          }
          case Value::Kind::kInstr:
            break;
        }
        const auto *inst = static_cast<const Instruction *>(v);
        // The operand-width conventions below mirror the compilers
        // (sim/program.cc emitPure, rtl/netlist.cc): BinOp operands use
        // the lhs type, UnOp/Cast use the source type, every result is
        // truncated to the instruction's own width by the shared ops
        // kernel. Divergence here would break cross-backend identity.
        switch (inst->opcode()) {
          case Opcode::kBinOp: {
            const auto *b = static_cast<const BinOp *>(inst);
            return ops::evalBin(b->binOpcode(), eval(b->lhs()),
                                eval(b->rhs()), b->lhs()->type().bits(),
                                b->lhs()->type().isSigned(),
                                inst->type().bits());
          }
          case Opcode::kUnOp: {
            const auto *u = static_cast<const UnOp *>(inst);
            return ops::evalUn(u->unOpcode(), eval(u->value()),
                               u->value()->type().bits(),
                               inst->type().bits());
          }
          case Opcode::kSlice: {
            const auto *s = static_cast<const Slice *>(inst);
            return ops::evalSlice(eval(s->value()), s->hi(), s->lo());
          }
          case Opcode::kConcat: {
            const auto *c = static_cast<const Concat *>(inst);
            return ops::evalConcat(eval(c->msb()), eval(c->lsb()),
                                   c->lsb()->type().bits(),
                                   inst->type().bits());
          }
          case Opcode::kSelect: {
            const auto *s = static_cast<const Select *>(inst);
            return eval(s->cond()) ? eval(s->onTrue())
                                   : eval(s->onFalse());
          }
          case Opcode::kCast: {
            const auto *c = static_cast<const Cast *>(inst);
            return ops::evalCast(c->mode(), eval(c->value()),
                                 c->value()->type().bits(),
                                 inst->type().bits());
          }
          case Opcode::kFifoValid: {
            const auto *f = static_cast<const FifoValid *>(inst);
            return engine.fifoOccupancy(f->port()) > 0 ? 1 : 0;
          }
          case Opcode::kFifoPop: {
            // Peek of the current head — DOp::kFifoPeek semantics: 0
            // when the FIFO is empty.
            const auto *f = static_cast<const FifoPop *>(inst);
            return engine.fifoOccupancy(f->port())
                       ? engine.readFifo(f->port(), 0)
                       : 0;
          }
          case Opcode::kArrayRead: {
            const auto *r = static_cast<const ArrayRead *>(inst);
            uint64_t idx = eval(r->index());
            if (idx >= r->array()->size())
                return 0; // the runtimes' out-of-range read value
            return engine.readArray(r->array(), size_t(idx));
          }
          default:
            fatal("debug eval: '",
                  v->name().empty() ? "<unnamed>" : v->name(),
                  "' is an effectful instruction (opcode ",
                  int(inst->opcode()),
                  "); only pure values and FIFO peeks have a "
                  "cycle-boundary value");
        }
        return 0; // unreachable; fatal() above throws
    }
};

} // namespace

uint64_t
evalValue(const Value *v, const sim::Engine &engine)
{
    Walk walk{engine, {}};
    return walk.eval(v);
}

} // namespace debug
} // namespace assassyn
