#include "sim/fault.h"

#include <algorithm>
#include <sstream>

#include "sim/engine.h"
#include "support/logging.h"
#include "support/rng.h"

namespace assassyn {
namespace sim {

FaultInjector::FaultInjector(const System &sys, FaultSpec spec)
{
    if (spec.last_cycle < spec.first_cycle)
        fatal("fault injection: last_cycle ", spec.last_cycle,
              " precedes first_cycle ", spec.first_cycle);

    std::vector<const RegArray *> arrays;
    if (spec.arrays)
        for (const auto &arr : sys.arrays())
            if (spec.include_memories || !arr->isMemory())
                arrays.push_back(arr.get());
    std::vector<const Port *> ports;
    if (spec.fifos)
        for (const auto &mod : sys.modules())
            for (const auto &port : mod->ports())
                ports.push_back(port.get());
    if (arrays.empty() && ports.empty())
        return; // nothing to corrupt in this design under this spec

    // Every draw happens here, in a fixed order, so the plan — and
    // therefore the whole injected run — is a pure function of
    // (System, spec). No randomness survives to fire time.
    Rng rng(spec.seed);
    uint64_t span = spec.last_cycle - spec.first_cycle + 1;
    for (uint64_t i = 0; i < spec.count; ++i) {
        PlannedFault f;
        f.cycle = spec.first_cycle + rng.below(span);
        bool pick_array = !arrays.empty() &&
                          (ports.empty() || rng.below(2) == 0);
        if (pick_array) {
            f.is_array = true;
            f.array = arrays[rng.below(arrays.size())];
            f.elem = rng.below(f.array->size());
            unsigned bits = f.array->elemType().bits();
            f.bit = static_cast<unsigned>(
                rng.below(std::min<unsigned>(bits, 64)));
        } else {
            f.port = ports[rng.below(ports.size())];
            f.entry_roll = rng.next();
            unsigned bits = f.port->type().bits();
            f.bit = static_cast<unsigned>(
                rng.below(std::min<unsigned>(bits, 64)));
        }
        plan_.push_back(f);
    }
    std::stable_sort(plan_.begin(), plan_.end(),
                     [](const PlannedFault &a, const PlannedFault &b) {
                         return a.cycle < b.cycle;
                     });
}

void
FaultInjector::attach(Engine &engine)
{
    engine.addPreCycleHook(
        [this, &engine](uint64_t cycle) { fire(cycle, engine); });
}

void
FaultInjector::fire(uint64_t cycle, Engine &engine)
{
    for (const PlannedFault &f : plan_) {
        if (f.cycle != cycle)
            continue;
        FaultRecord rec;
        rec.cycle = cycle;
        std::ostringstream target;
        if (f.is_array) {
            rec.before = engine.readArray(f.array, f.elem);
            rec.after = rec.before ^ (uint64_t(1) << f.bit);
            engine.writeArray(f.array, f.elem, rec.after);
            rec.applied = true;
            target << "array '" << f.array->name() << "[" << f.elem
                   << "]' bit " << f.bit;
        } else {
            uint64_t occ = engine.fifoOccupancy(f.port);
            if (occ == 0) {
                // Empty at fire time: nothing to flip. Recorded anyway —
                // occupancy is cycle-aligned across backends, so the
                // skip itself is deterministic and identical.
                rec.applied = false;
                target << "fifo '" << f.port->fullName() << "' bit "
                       << f.bit << " (empty, skipped)";
            } else {
                size_t pos = static_cast<size_t>(f.entry_roll % occ);
                rec.before = engine.readFifo(f.port, pos);
                rec.after = rec.before ^ (uint64_t(1) << f.bit);
                engine.writeFifo(f.port, pos, rec.after);
                rec.applied = true;
                target << "fifo '" << f.port->fullName() << "[" << pos
                       << "]' bit " << f.bit;
            }
        }
        rec.target = target.str();
        if (TraceRecorder *tr = engine.traceRecorder())
            tr->fault(rec.target, rec.applied);
        records_.push_back(std::move(rec));
    }
}

std::string
FaultInjector::summary() const
{
    std::ostringstream os;
    for (const FaultRecord &rec : records_) {
        os << "cycle " << rec.cycle << ": " << rec.target;
        if (rec.applied)
            os << ": 0x" << std::hex << rec.before << " -> 0x"
               << rec.after << std::dec;
        os << "\n";
    }
    return os.str();
}

} // namespace sim
} // namespace assassyn
