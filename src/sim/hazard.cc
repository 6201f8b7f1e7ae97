#include "sim/hazard.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "core/compiler/walk.h"
#include "sim/engine.h"

namespace assassyn {
namespace sim {

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::kFinished:  return "finished";
      case RunStatus::kMaxCycles: return "max_cycles";
      case RunStatus::kDeadlock:  return "deadlock";
      case RunStatus::kLivelock:  return "livelock";
      case RunStatus::kFault:     return "fault";
    }
    return "?";
}

const char *
waitReason(const Module &mod)
{
    return mod.hasExplicitWait() ? "wait_until" : "fifo_empty";
}

std::string
HazardReport::toString() const
{
    std::ostringstream os;
    os << (kind.empty() ? "no progress" : kind) << " detected at cycle "
       << detected_cycle << " (no progress for " << window << " cycles)\n"
       << "wait-for graph:\n";
    for (const WaitForEdge &e : waiting) {
        os << "  " << e.stage << ": blocked on " << e.reason;
        if (e.pending)
            os << " (" << e.pending << " pending event"
               << (e.pending == 1 ? "" : "s") << ")";
        if (!e.fifo.empty()) {
            os << " <- fifo '" << e.fifo << "'";
            if (!e.peer.empty())
                os << " (" << (e.reason == "fifo_full" ? "consumer"
                                                       : "producers")
                   << ": " << e.peer << ")";
        }
        os << "\n";
    }
    if (waiting.empty())
        os << "  (no blocked stage found)\n";
    return os.str();
}

HazardAnalyzer::HazardAnalyzer(const System &sys) : sys_(&sys)
{
    // Who pushes into each FIFO, and which kStallProducer FIFOs each
    // module pushes into. Modules are visited in declaration order so
    // producer lists render deterministically.
    for (const auto &mod : sys.modules()) {
        std::set<const Port *> seen_stall;
        forEachInst(*mod, [&](Instruction *inst) {
            if (inst->opcode() != Opcode::kFifoPush)
                return;
            const Port *port = static_cast<FifoPush *>(inst)->port();
            auto &prods = producers_[port];
            if (std::find(prods.begin(), prods.end(), mod.get()) ==
                prods.end())
                prods.push_back(mod.get());
            if (port->policy() == FifoPolicy::kStallProducer &&
                seen_stall.insert(port).second)
                stall_ports_[mod.get()].push_back(port);
        });
    }
    // The FIFOs whose validity feeds each module's wait_until cone: a
    // spin there means one of these FIFOs is still empty (the implicit
    // argument-validity wait the compiler synthesizes in Sec. 4).
    for (const auto &mod : sys.modules()) {
        if (!mod->waitCond())
            continue;
        std::set<const Value *> visited;
        std::vector<const Port *> found;
        std::function<void(const Value *)> visit = [&](const Value *v) {
            v = chaseRef(const_cast<Value *>(v));
            if (!v || !visited.insert(v).second)
                return;
            if (v->valueKind() != Value::Kind::kInstr)
                return;
            const auto *inst = static_cast<const Instruction *>(v);
            if (inst->opcode() == Opcode::kFifoValid) {
                const Port *port =
                    static_cast<const FifoValid *>(inst)->port();
                if (std::find(found.begin(), found.end(), port) ==
                    found.end())
                    found.push_back(port);
                return;
            }
            for (Value *op :
                 const_cast<Instruction *>(inst)->operands())
                visit(op);
        };
        visit(mod->waitCond());
        if (!found.empty())
            wait_ports_[mod.get()] = std::move(found);
    }
}

const std::vector<const Module *> &
HazardAnalyzer::producersOf(const Port *port) const
{
    auto it = producers_.find(port);
    return it == producers_.end() ? empty_mods_ : it->second;
}

const std::vector<const Port *> &
HazardAnalyzer::stallPorts(const Module *mod) const
{
    auto it = stall_ports_.find(mod);
    return it == stall_ports_.end() ? empty_ports_ : it->second;
}

const std::vector<const Port *> &
HazardAnalyzer::waitPorts(const Module *mod) const
{
    auto it = wait_ports_.find(mod);
    return it == wait_ports_.end() ? empty_ports_ : it->second;
}

namespace {

std::string
joinNames(const std::vector<const Module *> &mods)
{
    std::string out;
    for (const Module *m : mods) {
        if (!out.empty())
            out += ", ";
        out += m->name();
    }
    return out;
}

} // namespace

HazardReport
HazardAnalyzer::analyze(const RunState &st, uint64_t window) const
{
    auto occupancy = [&st](const Port *p) {
        return st.fifos[st.fifoIndex(p)].count;
    };
    HazardReport rep;
    rep.detected_cycle = st.cycle;
    rep.window = window;
    bool saw_explicit_wait = false;
    for (const Module *mod : sys_->topoOrder()) {
        const RunState::Stage &stage = st.stages[mod->id()];
        if (st.activity(stage) == StageActivity::kExec)
            continue; // ran this cycle: not blocked
        // A backpressure stall gates execution before the wait check, in
        // both backends; report it first for the same reason.
        bool bp_stalled = false;
        for (const Port *p : stallPorts(mod)) {
            if (occupancy(p) >= p->depth()) {
                WaitForEdge e;
                e.stage = mod->name();
                e.reason = "fifo_full";
                e.pending = mod->isDriver() ? 0 : stage.pending;
                e.fifo = p->fullName();
                e.peer = p->owner()->name();
                rep.waiting.push_back(std::move(e));
                bp_stalled = true;
            }
        }
        if (bp_stalled)
            continue;
        if (mod->isDriver())
            continue; // drivers are never event-blocked
        uint64_t pend = stage.pending;
        if (pend == 0)
            continue; // idle, not blocked
        const char *reason = waitReason(*mod);
        if (mod->hasExplicitWait())
            saw_explicit_wait = true;
        std::vector<const Port *> starved;
        for (const Port *p : waitPorts(mod))
            if (occupancy(p) == 0)
                starved.push_back(p);
        if (starved.empty()) {
            WaitForEdge e;
            e.stage = mod->name();
            e.reason = reason;
            e.pending = pend;
            rep.waiting.push_back(std::move(e));
        } else {
            for (const Port *p : starved) {
                WaitForEdge e;
                e.stage = mod->name();
                e.reason = reason;
                e.pending = pend;
                e.fifo = p->fullName();
                e.peer = joinNames(producersOf(p));
                rep.waiting.push_back(std::move(e));
            }
        }
    }
    rep.kind = saw_explicit_wait ? "livelock" : "deadlock";
    return rep;
}

} // namespace sim
} // namespace assassyn
