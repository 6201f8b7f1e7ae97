/**
 * @file
 * Lowering (paper Sec. 4.3): binds become FIFO pushes, async calls become
 * pushes plus event subscriptions (Fig. 7c), and FIFO pops are injected at
 * the head of each body for implicitly consumed ports (Fig. 7 b.2).
 */
#include <vector>

#include "core/compiler/pass.h"
#include "core/compiler/walk.h"
#include "support/profiler.h"

namespace assassyn {

namespace {

void
lowerBlock(Module &mod, Block &blk)
{
    std::vector<Instruction *> lowered;
    for (auto *inst : blk.insts()) {
        switch (inst->opcode()) {
          case Opcode::kCondBlock:
            lowerBlock(mod, *static_cast<CondBlock *>(inst)->body());
            lowered.push_back(inst);
            break;
          case Opcode::kBind: {
            // A bind pushes its fixed arguments into the callee's FIFOs
            // when it executes. Absorbed binds were folded into a chained
            // bind and push nothing themselves.
            auto *b = static_cast<Bind *>(inst);
            if (!b->isAbsorbed()) {
                for (size_t k = 0; k < b->boundArgs().size(); ++k) {
                    if (Value *arg = b->boundArgs()[k]) {
                        lowered.push_back(mod.create<FifoPush>(
                            b->callee()->port(k), arg));
                    }
                }
            }
            break;
          }
          case Opcode::kAsyncCall: {
            auto *call = static_cast<AsyncCall *>(inst);
            Module *callee = call->callee();
            if (callee) {
                for (size_t k = 0; k < call->args().size(); ++k) {
                    if (Value *arg = call->args()[k]) {
                        lowered.push_back(mod.create<FifoPush>(
                            callee->port(k), arg));
                    }
                }
            } else {
                Value *h = chaseRef(call->bindHandle());
                if (h->valueKind() != Value::Kind::kInstr ||
                    static_cast<Instruction *>(h)->opcode() != Opcode::kBind)
                    fatal("async_call in '", mod.name(),
                          "' through a handle that is not a bind");
                auto *b = static_cast<Bind *>(h);
                callee = b->callee();
                for (const auto &[name, arg] : call->namedArgs()) {
                    Port *p = callee->port(name);
                    if (b->boundArgs()[p->index()])
                        fatal("async_call in '", mod.name(),
                              "' re-supplies bound port '", name, "' of '",
                              callee->name(), "'");
                    lowered.push_back(mod.create<FifoPush>(p, arg));
                }
            }
            lowered.push_back(mod.create<Subscribe>(callee));
            break;
          }
          default:
            lowered.push_back(inst);
        }
    }
    blk.assign(std::move(lowered));
}

} // namespace

void
lowerCalls(System &sys)
{
    if (sys.isLowered())
        fatal("system '", sys.name(), "' is already lowered");
    for (const auto &mod : sys.modules()) {
        lowerBlock(*mod, mod->body());
        // Inject pops for implicitly consumed ports at the body head, in
        // port order; explicitly placed pops (partial pops, Fig. 8c) stay
        // where the developer put them.
        size_t at = 0;
        for (const auto &port : mod->ports()) {
            FifoPop *pop = mod->popOfOrNull(port.get());
            if (pop && !pop->block())
                mod->body().insert(at++, pop);
        }
    }
    sys.setLowered(true);
}

void
compile(System &sys, const CompileOptions &opts)
{
    // Each pass gets a host-timeline span (support/profiler.h) so a
    // --trace'd run shows where compile wall-clock goes; no-ops when
    // the profiler is disabled (the default).
    resolveCrossRefs(sys);
    {
        HostProfiler::Scope span("pass:verify");
        verifySystem(sys);
    }
    if (opts.run_fold) {
        HostProfiler::Scope span("pass:fold");
        foldConstants(sys);
    }
    {
        HostProfiler::Scope span("pass:arbiter");
        generateArbiters(sys);
    }
    {
        HostProfiler::Scope span("pass:timing");
        injectTiming(sys);
    }
    {
        HostProfiler::Scope span("pass:toposort");
        topoSortStages(sys);
    }
    {
        HostProfiler::Scope span("pass:lower");
        lowerCalls(sys);
    }
}

} // namespace assassyn
