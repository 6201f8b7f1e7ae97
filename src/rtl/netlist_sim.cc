#include "rtl/netlist_sim.h"

#include <iterator>

#include "rtl/netlist_cycle.h"

namespace assassyn {
namespace rtl {

namespace {

/**
 * One pass over the whole pre-decoded tape @p tape, i.e. over every
 * levelized cell in order, over the net store @p v. The handlers are
 * generated from the event engine's own rows (ASSASSYN_PURE_HANDLERS,
 * sim/tape.h).
 */
void
runTape(const std::vector<sim::DStep> &tape, uint64_t *const v,
        const sim::RunState::Array *const ast)
{
    const sim::DStep *s = tape.data();
    const sim::DStep *const e = s + tape.size();
    // Threaded dispatch (computed goto), as in sim::Simulator's
    // runTape, over the pure prefix of sim::DOp only.
#define ASSASSYN_DOP_LABEL(name, ...) &&op_##name,
    static const void *const kJump[] = {
        ASSASSYN_PURE_DOP_NAMES(ASSASSYN_DOP_LABEL)
    };
#undef ASSASSYN_DOP_LABEL
    static_assert(std::size(kJump) == sim::kPureDOps,
                  "jump table must cover the pure prefix of DOp");
#define ASSASSYN_OP(name) op_##name
#define ASSASSYN_NEXT()                                                  \
    do {                                                                 \
        if (++s == e)                                                    \
            return;                                                      \
        goto *kJump[s->op];                                              \
    } while (0)
    if (s == e)
        return;
    goto *kJump[s->op];

    ASSASSYN_PURE_HANDLERS

#undef ASSASSYN_OP
#undef ASSASSYN_NEXT
}

/**
 * The generic cycle's plan (rtl/netlist_cycle.h): the Netlist's cycle
 * tables, the nets in NetState::nets, the cells through the
 * interpreter.
 */
struct TapePlan {
    struct Frame {
        explicit Frame(NetState &ns) : v(ns.nets.data()) {}
        uint64_t *v;
    };

    static uint64_t net(const Frame &fr, uint32_t n) { return fr.v[n]; }

    static void
    set(Frame &fr, uint32_t n, uint64_t value)
    {
        if (n != kNoNet)
            fr.v[n] = value;
    }

    static void
    evaluate(NetState &ns, Frame &fr)
    {
        runTape(ns.nl->tape(), fr.v, ns.st->arrays.data());
    }

    /** f(i) for every index i of @p rows. */
    template <class T, class F>
    static void
    forEach(const std::vector<T> &rows, F &&f)
    {
        for (uint32_t i = 0; i < rows.size(); ++i)
            f(i);
    }

    template <class F>
    static void
    forFifos(NetState &ns, F &&f)
    {
        forEach(ns.t->fifos, f);
    }

    static const FifoRow &
    fifo(NetState &ns, uint32_t b)
    {
        return ns.t->fifos[b];
    }

    static uint32_t
    popData(NetState &ns, uint32_t b)
    {
        return fifo(ns, b).pop_data;
    }

    static uint32_t
    popValid(NetState &ns, uint32_t b)
    {
        return fifo(ns, b).pop_valid;
    }

    static uint32_t full(NetState &ns, uint32_t b) { return fifo(ns, b).full; }

    template <class F>
    static void
    forDeqs(NetState &ns, uint32_t b, F &&f)
    {
        for (uint32_t en : ns.t->deqs[b])
            f(en);
    }

    template <class F>
    static void
    forPushes(NetState &ns, uint32_t b, F &&f)
    {
        for (const PushRow &r : ns.t->pushes[b])
            f(r.enable, r.data, r.src);
    }

    template <class F>
    static void
    forArrays(NetState &ns, F &&f)
    {
        forEach(ns.t->elem_bits, f);
    }

    static uint32_t
    elemBits(NetState &ns, uint32_t a)
    {
        return ns.t->elem_bits[a];
    }

    template <class F>
    static void
    forWrites(NetState &ns, uint32_t a, F &&f)
    {
        for (const WriteRow &r : ns.t->writes[a])
            f(r.enable, r.index, r.data);
    }

    template <class F>
    static void
    forCounters(NetState &ns, F &&f)
    {
        forEach(ns.t->counters, f);
    }

    static const CounterRow &
    counter(NetState &ns, uint32_t c)
    {
        return ns.t->counters[c];
    }

    static uint32_t
    nonzero(NetState &ns, uint32_t c)
    {
        return counter(ns, c).nonzero;
    }

    static uint32_t dec(NetState &ns, uint32_t c) { return counter(ns, c).dec; }

    template <class F>
    static void
    forIncs(NetState &ns, uint32_t c, F &&f)
    {
        for (uint32_t en : ns.t->incs[c])
            f(en);
    }

    template <class F>
    static void
    forStages(NetState &ns, F &&f)
    {
        forEach(ns.t->stages, f);
    }

    static const StageRow &
    stage(NetState &ns, uint32_t v)
    {
        return ns.t->stages[v];
    }

    static uint32_t exec(NetState &ns, uint32_t v) { return stage(ns, v).exec; }

    template <class F>
    static void
    forStalls(NetState &ns, uint32_t v, F &&f)
    {
        for (uint32_t fid : ns.t->stalls[v])
            f(fid);
    }

    template <class F>
    static void
    forMonitors(NetState &ns, F &&f)
    {
        forEach(ns.t->monitors, f);
    }

    static uint32_t
    kind(NetState &ns, uint32_t m)
    {
        return ns.t->monitors[m].kind;
    }

    static uint32_t
    enable(NetState &ns, uint32_t m)
    {
        return ns.t->monitors[m].enable;
    }

    template <class F>
    static void
    withArgs(NetState &ns, const Frame &fr, uint32_t m, F &&f)
    {
        ns.args.clear();
        for (uint32_t n : ns.t->args[m])
            ns.args.push_back(fr.v[n]);
        f(ns.args.data());
    }
};

} // namespace

void
logMonitor(const NetState &ns, uint32_t m, const uint64_t *args)
{
    const auto *lg =
        static_cast<const Log *>(ns.nl->monitors()[m].inst);
    ns.st->emitLog(lg->fmt(), [&](std::ostream &os, size_t i) {
        const DataType &type = lg->args()[i]->type();
        if (type.isSigned())
            os << type.asSigned(args[i]);
        else
            os << args[i];
    });
}

void
failMonitor(const NetState &ns, uint32_t m)
{
    ns.st->assertFailed(
        *static_cast<const AssertInst *>(ns.nl->monitors()[m].inst));
}

struct NetlistSim::Impl {
    NetState ns;
    /** The netlist's generated cycle, or the generic one. */
    NetlistCycleFn cycle;

    Impl(NetlistSim &owner, const Netlist &nl)
    {
        ns.st = &owner.st_;
        ns.nl = &nl;
        ns.t = &nl.cycleTables();
        if (const CompiledNetlist *cn = nl.compiled()) {
            cycle = cn->cycle;
        } else {
            ns.nets.assign(nl.numNets(), 0);
            for (const auto &[net, value] : nl.constNets())
                ns.nets[net] = value;
            cycle = &runNetlistCycle<TapePlan>;
        }
    }
};

NetlistSim::NetlistSim(const Netlist &nl, sim::SimOptions opts)
    : Engine(nl.sys(), nl.analyzer(), opts, "netlist"),
      impl_(std::make_unique<Impl>(*this, nl))
{
    // A netlist with a residual combinational cycle has no valid
    // evaluation order: run() refuses it, returning the structured
    // diagnostic naming the offending cells instead of sweeping toward
    // a convergence that cannot happen.
    if (!nl.levelized())
        unrunnable_ = nl.combCycleDiag();
}

NetlistSim::~NetlistSim() = default;

void
NetlistSim::runCycles(uint64_t max_cycles)
{
    Impl &im = *impl_;
    runCycleFrames(max_cycles, [&im] { return im.cycle(im.ns); });
}

} // namespace rtl
} // namespace assassyn
