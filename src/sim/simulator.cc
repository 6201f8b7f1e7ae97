#include "sim/simulator.h"

#include <algorithm>
#include <array>

#include "sim/event_cycle.h"
#include "support/bits.h"
#include "support/logging.h"
#include "support/rng.h"

namespace assassyn {
namespace sim {

namespace {

/**
 * Interpret the steps [@p begin, @p end) of @p cx's tape: the fallback
 * evaluator of a span without compiled code.
 * @return false when a wait_until check failed (event retained).
 */
bool
runTape(EventCtx &cx, uint32_t begin, uint32_t end)
{
    ASSASSYN_EVENT_LOCALS(cx)
    const uint32_t *const sw = cx.prog->switchTable().data();
    const DStep *s = cx.prog->tape().data() + begin;
    const DStep *const e = cx.prog->tape().data() + end;
    // Threaded dispatch (computed goto): every handler ends in its own
    // indirect jump to the next step's handler, so the branch predictor
    // learns per-opcode successor patterns that a single shared switch
    // branch cannot express. The table is generated from the opcode
    // lists, so it follows DOp by construction.
#define ASSASSYN_DOP_LABEL(name, ...) &&op_##name,
    static const void *const kJump[] = {
        ASSASSYN_PURE_DOP_NAMES(ASSASSYN_DOP_LABEL)
        ASSASSYN_EVENT_DOPS(ASSASSYN_DOP_LABEL)
    };
#undef ASSASSYN_DOP_LABEL
    static_assert(std::size(kJump) == kDOps,
                  "jump table must cover every DOp");
#define ASSASSYN_OP(name) op_##name
#define ASSASSYN_NEXT()                                                  \
    do {                                                                 \
        if (++s == e)                                                    \
            return true;                                                 \
        goto *kJump[s->op];                                              \
    } while (0)
#define ASSASSYN_SKIP(n) s += (n)
#define ASSASSYN_SKIP_TABLE(base, k) s += sw[(base) + (k)]
#define ASSASSYN_FAIL() return false
    if (s == e)
        return true;
    goto *kJump[s->op];

    ASSASSYN_PURE_HANDLERS
    ASSASSYN_EVENT_HANDLERS
#undef ASSASSYN_OP
#undef ASSASSYN_NEXT
#undef ASSASSYN_SKIP
#undef ASSASSYN_SKIP_TABLE
#undef ASSASSYN_FAIL
}

/** f(index) for every set bit of the bitmap @p w, lowest first; clears
 *  the bitmap. */
template <class F>
void
forEachSetBit(std::vector<uint64_t> &w, F &&f)
{
    for (size_t k = 0; k < w.size(); ++k) {
        for (uint64_t bits = w[k]; bits; bits &= bits - 1)
            f(uint32_t(k * 64) + uint32_t(__builtin_ctzll(bits)));
        w[k] = 0;
    }
}

/**
 * The generic cycle's plan (sim/event_cycle.h): the schedule from the
 * Program's vectors, each span through the interpreter.
 */
struct TapePlan {
    static const Program &prog(const EventState &es) { return *es.cx.prog; }

    template <class F>
    static void
    forShadowMods(EventState &es, F &&f)
    {
        for (uint32_t mid : prog(es).shadowMods())
            f(mid);
    }

    static void
    shadow(EventState &es, uint32_t mid)
    {
        const StageSpan &sp = prog(es).spans()[mid];
        runTape(es.cx, sp.shadow_begin, sp.shadow_end);
    }

    static bool
    active(EventState &es, uint32_t mid)
    {
        const StageSpan &sp = prog(es).spans()[mid];
        return runTape(es.cx, sp.active_begin, sp.active_end);
    }

    static bool
    driver(EventState &es, uint32_t mid)
    {
        return es.mods[mid].driver;
    }

    template <class F>
    static void
    forStallFifos(EventState &es, uint32_t mid, F &&f)
    {
        for (uint32_t fid : prog(es).stallFifos()[mid])
            f(fid);
    }

    template <class F>
    static void
    forFifoWake(EventState &es, uint32_t fid, F &&f)
    {
        for (uint32_t mid : prog(es).fifoWake()[fid])
            f(mid);
    }

    template <class F>
    static void
    forArrayWake(EventState &es, uint32_t aid, F &&f)
    {
        for (uint32_t mid : prog(es).arrayWake()[aid])
            f(mid);
    }

    static void
    visit(EventState &es, const std::vector<uint32_t> &order)
    {
        for (uint32_t mid : order)
            visitStage<TapePlan>(es, mid);
    }

    template <class F>
    static void
    forTouchedFifos(EventState &es, F &&f)
    {
        forEachSetBit(es.touched_fifo_w, f);
    }

    template <class F>
    static void
    forTouchedArrays(EventState &es, F &&f)
    {
        forEachSetBit(es.touched_arr_w, f);
    }

    template <class F>
    static void
    forTouchedMods(EventState &es, F &&f)
    {
        forEachSetBit(es.touched_mod_w, f);
    }
};

} // namespace

// The event engine's private per-run state is the EventState the cycle
// runs over (sim/event_cycle.h). Everything that survives a cycle
// boundary lives in the shared RunState (sim/engine.h); everything
// compile-time — the fused step tape, dense index tables, schedules,
// sensitivity metadata, the generated code — lives in the shared
// immutable sim::Program (sim/program.h).

struct Simulator::Impl {
    RunState &st;
    std::shared_ptr<const Program> prog;
    const SimOptions &opts;
    EventState es;
    /** The Program's generated cycle, or the generic one. */
    CycleFn cycle_fn;

    // ----------------------------------------------------------------------
    // Construction: allocate per-run state. The compiled artifact (the
    // fused tape, index tables, schedule, sensitivity lists) comes
    // prebuilt from the Program — no IR walking happens here
    // (tests/program_test.cc pins this by counting compile invocations).
    // ----------------------------------------------------------------------

    Impl(Simulator &owner, std::shared_ptr<const Program> p)
        : st(owner.st_), prog(std::move(p)), opts(st.opts)
    {
        const System &sys = prog->sys();
        es.slots = prog->slotInit();
        es.fifo_pend.resize(st.fifos.size());
        es.arr_pend.resize(st.arrays.size());
        es.mods.resize(sys.modules().size());
        for (const auto &mod : sys.modules()) {
            ModSched &ms = es.mods[mod->id()];
            ms.mod = mod.get();
            ms.driver = prog->drivers()[mod->id()] != 0;
            ms.topo_pos = prog->topoPos()[mod->id()];
        }
        rebuildReady();
        es.touched_fifo_w.assign((st.fifos.size() + 63) / 64, 0);
        es.touched_arr_w.assign((st.arrays.size() + 63) / 64, 0);
        es.touched_mod_w.assign((es.mods.size() + 63) / 64, 0);
        es.rng = Rng(opts.shuffle_seed);
        es.shuffle = opts.shuffle;
        es.cx.st = &st;
        es.cx.prog = prog.get();
        cycle_fn = prog->compiled() ? prog->compiled()->cycle
                                    : &runEventCycle<TapePlan>;
    }

    /** Point the row context at this cycle's state. */
    void
    syncCtx()
    {
        EventCtx &cx = es.cx;
        cx.v = es.slots.data();
        cx.fst = st.fifos.data();
        cx.ast = st.arrays.data();
        cx.fa = st.fifo_arena.data();
        cx.fpd = es.fifo_pend.data();
        cx.apd = es.arr_pend.data();
        cx.mst = es.mods.data();
        cx.touched_fifo = es.touched_fifo_w.data();
        cx.touched_arr = es.touched_arr_w.data();
        cx.touched_mod = es.touched_mod_w.data();
        cx.log_on = opts.capture_logs;
    }

    /**
     * Derive the scheduler views from RunState: the ready set is
     * exactly drivers plus pending stages, idle spans of the others
     * open at the current cycle (their accumulated prefix is already in
     * idle_cycles), and every shadow cone is stale — the first
     * step() re-derives all combinational state.
     */
    void
    rebuildReady()
    {
        es.ready.clear();
        for (uint32_t mid : prog->topoIdx()) {
            RunState::Stage &rs = st.stages[mid];
            rs.idle_open = !es.mods[mid].driver && rs.pending == 0;
            if (rs.idle_open)
                rs.idle_anchor = st.cycle;
            else
                es.ready.push_back(mid);
        }
        es.shadow_stale.assign(es.mods.size(), 1);
    }

    /**
     * Evaluate and commit one cycle: the event engine's step of the
     * shared cycle frame (Engine::runCycleFrames).
     */
    CycleOutcome
    step()
    {
        syncCtx();
        const bool progress = cycle_fn(es);
        return {progress, es.cx.finish_pending};
    }
};

void
EventCtx::emitLog(uint32_t idx) const
{
    const LogSpec &spec = prog->logs()[idx];
    st->emitLog(spec.inst->fmt(), [&](std::ostream &os, size_t i) {
        const LogArg &la = spec.args[i];
        uint64_t raw = v[la.slot];
        if (la.sgn)
            os << signExtend(raw, la.bits);
        else
            os << raw;
    });
}

Simulator::Simulator(const System &sys, SimOptions opts)
    : Simulator(Program::compile(sys), opts)
{}

Simulator::Simulator(std::shared_ptr<const Program> program, SimOptions opts)
    : Engine(program->sys(), program->analyzer(), opts, "event"),
      impl_(std::make_unique<Impl>(*this, std::move(program)))
{}

Simulator::~Simulator() = default;

void
Simulator::runCycles(uint64_t max_cycles)
{
    Impl &im = *impl_;
    runCycleFrames(max_cycles, [&im] { return im.step(); });
}

void
Simulator::arrayPoked(uint32_t aid)
{
    EventState &es = impl_->es;
    TapePlan::forArrayWake(es, aid, [&](uint32_t mid) {
        es.shadow_stale[mid] = 1;
    });
}

void
Simulator::fifoPoked(uint32_t fid)
{
    EventState &es = impl_->es;
    TapePlan::forFifoWake(es, fid, [&](uint32_t mid) {
        es.shadow_stale[mid] = 1;
    });
}

void
Simulator::rebuildViews()
{
    Impl &im = *impl_;
    EventState &es = im.es;
    for (ArrayPending &pd : es.arr_pend)
        pd = ArrayPending{};
    for (FifoPending &pd : es.fifo_pend)
        pd = FifoPending{};
    for (ModSched &ms : es.mods) {
        ms.inc = 0;
        ms.dec = false;
    }
    im.rebuildReady();
    std::fill(es.touched_fifo_w.begin(), es.touched_fifo_w.end(), 0);
    std::fill(es.touched_arr_w.begin(), es.touched_arr_w.end(), 0);
    std::fill(es.touched_mod_w.begin(), es.touched_mod_w.end(), 0);
    es.cx.finish_pending = st_.finished;
    std::copy(im.prog->slotInit().begin(), im.prog->slotInit().end(),
              es.slots.begin());
}

// The shuffle RNG rides only event-engine snapshots; restoring a netlist
// snapshot keeps the constructor seed (documented caveat: a shuffled
// event run resumed from a netlist snapshot replays the stream from its
// seed).
void
Simulator::saveSections(Snapshot &snap) const
{
    ByteWriter w;
    for (uint64_t word : impl_->es.rng.state())
        w.u64(word);
    snap.add("event.rng", w.take());
}

void
Simulator::loadSections(const Snapshot &snap)
{
    if (!snap.find("event.rng"))
        return;
    ByteReader r = snap.reader("event.rng");
    std::array<uint64_t, 4> state;
    for (uint64_t &word : state)
        word = r.u64();
    r.expectEnd();
    impl_->es.rng.setState(state);
}

SimStats
Simulator::stats() const
{
    SimStats s;
    s.cycles = st_.cycle;
    s.total_stage_executions = st_.total_execs;
    s.total_events_subscribed = st_.total_events;
    for (const RunState::Stage &stg : st_.stages)
        s.events_skipped += st_.foldedIdle(stg);
    s.stages_woken = st_.stages_woken;
    return s;
}

const std::shared_ptr<const Program> &
Simulator::program() const
{
    return impl_->prog;
}

} // namespace sim
} // namespace assassyn
