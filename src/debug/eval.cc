#include "debug/eval.h"

#include <map>

#include "core/ir/array.h"
#include "core/ir/instruction.h"
#include "core/ir/module.h"
#include "core/ir/value.h"
#include "sim/engine.h"
#include "sim/tape.h"
#include "support/logging.h"

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
        sim::DStep step;
        if (sim::encodeInstr(step, *inst))
            return sim::evalPure(step, eval(inst->operand(0)),
                                 inst->numOperands() > 1
                                     ? eval(inst->operand(1))
                                     : 0);
        switch (inst->opcode()) {
          case Opcode::kSelect: {
            const auto *s = static_cast<const Select *>(inst);
            return eval(s->cond()) ? eval(s->onTrue())
                                   : eval(s->onFalse());
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
