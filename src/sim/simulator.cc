#include "sim/simulator.h"

#include <algorithm>
#include <array>

#include "sim/event_ctx.h"
#include "support/bits.h"
#include "support/logging.h"
#include "support/rng.h"

namespace assassyn {
namespace sim {

// The event engine's private per-cycle state. Everything that survives
// a cycle boundary lives in the shared RunState (sim/engine.h);
// everything compile-time — the fused step tape, dense index tables,
// schedules, sensitivity metadata — lives in the shared immutable
// sim::Program (sim/program.h). The buffered effects and scheduler
// flags of the cycle in flight (sim/event_ctx.h) are indexed like
// RunState.

struct Simulator::Impl {
    Simulator &self;
    RunState &st;
    std::shared_ptr<const Program> prog;
    const SimOptions &opts;

    std::vector<uint64_t> slots;
    std::vector<FifoPending> fifo_pend; ///< by fifo index
    std::vector<ArrayPending> arr_pend; ///< by RegArray::id
    std::vector<ModSched> mods;         ///< by Module::id

    // Wake-list scheduler state: the ready set (drivers plus stages
    // with pending events), kept sorted by topological position so
    // phase-1 visit order — and with it log order, fatal-error order
    // and the serialized event trace — matches the full-scan engine
    // exactly. A stage is in the ready set exactly when its RunState
    // idle span is closed. Shadow staleness flags drive the lazy
    // phase 0.
    std::vector<uint32_t> ready_;
    std::vector<uint8_t> shadow_stale;
    // Touched sets as bitmaps: effects set a bit (no branch, no
    // allocation), commit scans set bits lowest-first — index order is
    // exactly the sorted order the full-scan engine committed in, so
    // the former push_back + sort pair disappears entirely.
    std::vector<uint64_t> touched_fifo_w;
    std::vector<uint64_t> touched_arr_w;
    std::vector<uint64_t> touched_mod_w;
    // What the step rows run over (refreshed every cycle by syncCtx),
    // and the compiled span functions when the Program has them.
    EventCtx cx;
    const SpanFn *shadow_fn = nullptr;
    const SpanFn *active_fn = nullptr;

    std::vector<uint32_t> shuffle_scratch;
    Rng rng;

    // ----------------------------------------------------------------------
    // Construction: allocate per-run state. The compiled artifact (the
    // fused tape, index tables, schedule, sensitivity lists) comes
    // prebuilt from the Program — no IR walking happens here
    // (tests/program_test.cc pins this by counting compile invocations).
    // ----------------------------------------------------------------------

    Impl(Simulator &owner, std::shared_ptr<const Program> p)
        : self(owner), st(owner.st_), prog(std::move(p)),
          opts(st.opts), rng(opts.shuffle_seed)
    {
        const System &sys = prog->sys();
        slots = prog->slotInit();
        fifo_pend.resize(st.fifos.size());
        arr_pend.resize(st.arrays.size());
        mods.resize(sys.modules().size());
        for (const auto &mod : sys.modules()) {
            ModSched &ms = mods[mod->id()];
            ms.mod = mod.get();
            ms.driver = mod->isDriver();
            ms.topo_pos = prog->topoPos()[mod->id()];
        }
        rebuildReady();
        touched_fifo_w.assign((st.fifos.size() + 63) / 64, 0);
        touched_arr_w.assign((st.arrays.size() + 63) / 64, 0);
        touched_mod_w.assign((mods.size() + 63) / 64, 0);
        cx.st = &st;
        cx.prog = prog.get();
        if (const CompiledTape *ct = prog->compiled()) {
            shadow_fn = ct->shadow;
            active_fn = ct->active;
        }
    }

    /** Point the row context at this cycle's state. */
    void
    syncCtx()
    {
        cx.v = slots.data();
        cx.fst = st.fifos.data();
        cx.ast = st.arrays.data();
        cx.fa = st.fifo_arena.data();
        cx.fpd = fifo_pend.data();
        cx.apd = arr_pend.data();
        cx.mst = mods.data();
        cx.touched_fifo = touched_fifo_w.data();
        cx.touched_arr = touched_arr_w.data();
        cx.touched_mod = touched_mod_w.data();
        cx.log_on = opts.capture_logs || opts.echo_logs;
    }

    /**
     * Derive the scheduler views from RunState: the ready set is
     * exactly drivers plus pending stages, idle spans of the others
     * open at the current cycle (their accumulated prefix is already in
     * idle_cycles), and every shadow cone is stale — the first
     * stepCycle re-derives all combinational state.
     */
    void
    rebuildReady()
    {
        ready_.clear();
        for (uint32_t mid : prog->topoIdx()) {
            RunState::Stage &rs = st.stages[mid];
            rs.idle_open = !mods[mid].driver && rs.pending == 0;
            if (rs.idle_open)
                rs.idle_anchor = st.cycle;
            else
                ready_.push_back(mid);
        }
        shadow_stale.assign(mods.size(), 1);
    }

    // ----------------------------------------------------------------------
    // Sensitivity and scheduling primitives
    // ----------------------------------------------------------------------

    void
    markFifoDirty(uint32_t fid)
    {
        for (uint32_t mid : prog->fifoWake()[fid])
            shadow_stale[mid] = 1;
    }

    void
    markArrayDirty(uint32_t aid)
    {
        for (uint32_t mid : prog->arrayWake()[aid])
            shadow_stale[mid] = 1;
    }

    void
    touchFifo(uint32_t fid)
    {
        touched_fifo_w[fid >> 6] |= 1ull << (fid & 63);
    }

    void
    touchArray(uint32_t aid)
    {
        touched_arr_w[aid >> 6] |= 1ull << (aid & 63);
    }

    void
    touchMod(uint32_t mid)
    {
        touched_mod_w[mid >> 6] |= 1ull << (mid & 63);
    }

    /** Wake @p mid into the ready set, keeping topological order. */
    void
    readyInsert(uint32_t mid)
    {
        st.stages[mid].idle_open = false;
        auto it = std::lower_bound(
            ready_.begin(), ready_.end(), mods[mid].topo_pos,
            [this](uint32_t m, uint32_t pos) {
                return mods[m].topo_pos < pos;
            });
        ready_.insert(it, mid);
    }

    // ----------------------------------------------------------------------
    // Execution
    // ----------------------------------------------------------------------

    /**
     * Interpret the steps [@p begin, @p end) of the tape: the fallback
     * evaluator of a span without compiled code.
     * @return false when a wait_until check failed (event retained).
     */
    bool
    runTape(uint32_t begin, uint32_t end)
    {
        ASSASSYN_EVENT_LOCALS(cx)
        const uint32_t *const sw = prog->switchTable().data();
        const DStep *s = prog->tape().data() + begin;
        const DStep *const e = prog->tape().data() + end;
        // Threaded dispatch (computed goto): every handler ends in its
        // own indirect jump to the next step's handler, so the branch
        // predictor learns per-opcode successor patterns that a single
        // shared switch branch cannot express. The table is generated
        // from the opcode lists, so it follows DOp by construction.
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

    void
    runShadow(uint32_t mid)
    {
        if (shadow_fn) {
            shadow_fn[mid](cx);
            return;
        }
        const StageSpan &sp = prog->spans()[mid];
        runTape(sp.shadow_begin, sp.shadow_end);
    }

    bool
    runActive(uint32_t mid)
    {
        if (active_fn)
            return active_fn[mid](cx);
        const StageSpan &sp = prog->spans()[mid];
        return runTape(sp.active_begin, sp.active_end);
    }

    void
    stepCycle()
    {
        RunState &rs = st;
        const uint64_t cycle = rs.cycle;
        if (rs.recorder)
            rs.recorder->beginCycle(cycle);
        rs.pre_hooks.fire(cycle);
        syncCtx();

        // Phase 0: re-evaluate stale shadow cones only, in topological
        // order. A shadow whose sensitivity inputs (FIFOs, arrays,
        // upstream shadow cones) are unchanged still holds exactly the
        // values an eager evaluation would produce.
        for (uint32_t mid : prog->shadowMods()) {
            if (!shadow_stale[mid])
                continue;
            shadow_stale[mid] = 0;
            runShadow(mid);
        }

        // Phase 1: execute the ready set (drivers plus stages with a
        // pending event). Membership only changes at commit, so the
        // visit set is start-of-cycle exact; idle stages cost nothing.
        const uint64_t stamp = cycle + 1;
        const std::vector<uint32_t> *order = &ready_;
        if (opts.shuffle) {
            // Sec. 5.1 randomization, now over the ready set: the
            // shadow pass keeps cross-stage reads well-defined, so
            // results must be invariant (tests assert exactly that).
            shuffle_scratch = ready_;
            rng.shuffle(shuffle_scratch);
            order = &shuffle_scratch;
        }
        RunState::Fifo *const fifos = rs.fifos.data();
        RunState::Stage *const stages = rs.stages.data();
        for (uint32_t mid : *order) {
            ModSched &ms = mods[mid];
            RunState::Stage &stg = stages[mid];
            // Publish this cycle's activity (stg.act below); stages
            // outside the ready set keep a stale stamp and read idle.
            stg.stamp = stamp;
            // Backpressure gate: a stage pushing into a full
            // kStallProducer FIFO does not execute this cycle. The gate
            // reads start-of-cycle occupancy (counts only change at
            // commit), so it is independent of stage order — shuffle
            // invariance holds — and matches the RTL's
            // `exec = pending & wait & ~full` gating exactly.
            bool full_stall = false;
            for (uint32_t fid : prog->stallFifos()[mid]) {
                RunState::Fifo &f = fifos[fid];
                if (f.count == f.depth) {
                    full_stall = true;
                    ++f.stall_cycles;
                }
            }
            if (full_stall) {
                stg.act = StageActivity::kBackpressure;
                ++stg.bp_stalls;
                ++stg.wait_spins;
                continue;
            }
            if (runActive(mid)) {
                ++stg.execs;
                ++rs.total_execs;
                stg.act = StageActivity::kExec;
                if (!ms.driver) {
                    ms.dec = true;
                    touchMod(mid);
                }
            } else {
                stg.act = StageActivity::kWaitSpin;
                ++stg.wait_spins;
            }
        }

        // Phase 2: commit buffered side effects — touched state only.
        // `progress` records any committed architectural state change
        // this cycle — the watchdog's definition of forward progress.
        // Bitmap scans visit set bits lowest-index-first, so commit
        // order (and any fatal raised from it) matches the full-scan
        // engine's dense-index iteration exactly.
        bool progress = false;
        for (size_t w = 0; w < touched_fifo_w.size(); ++w) {
          for (uint64_t bits = touched_fifo_w[w]; bits; bits &= bits - 1) {
            uint32_t fid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            FifoPending &pd = fifo_pend[fid];
            if (rs.commitFifo(fid, pd.deq, pd.push, pd.value, pd.src)) {
                progress = true;
                markFifoDirty(fid);
            }
            pd.deq = false;
            pd.push = false;
          }
          touched_fifo_w[w] = 0;
        }
        for (size_t w = 0; w < touched_arr_w.size(); ++w) {
          for (uint64_t bits = touched_arr_w[w]; bits; bits &= bits - 1) {
            uint32_t aid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            ArrayPending &pd = arr_pend[aid];
            RunState::Array &arr = rs.arrays[aid];
            arr.data[pd.index] = pd.value;
            pd.write = false;
            ++arr.writes;
            progress = true;
            markArrayDirty(aid);
          }
          touched_arr_w[w] = 0;
        }
        bool any_went_idle = false;
        for (size_t w = 0; w < touched_mod_w.size(); ++w) {
          for (uint64_t bits = touched_mod_w[w]; bits; bits &= bits - 1) {
            uint32_t mid = uint32_t(w * 64) +
                           uint32_t(__builtin_ctzll(bits));
            ModSched &ms = mods[mid];
            RunState::Stage &stg = stages[mid];
            // A received event, or a consumed one (a non-driver body
            // executed), changes the stage's event counter.
            if (ms.inc || ms.dec)
                progress = true;
            rs.commitEvents(stg, ms.inc, ms.dec);
            ms.dec = false;
            ms.inc = 0;
            if (stg.idle_open && stg.pending > 0) {
                // Wake: close the idle span (cycles idle_anchor..now,
                // this cycle included — the stage was not visited in
                // phase 1) and enter the ready set.
                stg.idle_cycles += (cycle + 1) - stg.idle_anchor;
                readyInsert(mid);
            } else if (!stg.idle_open && !ms.driver && stg.pending == 0) {
                any_went_idle = true;
            }
          }
          touched_mod_w[w] = 0;
        }
        if (any_went_idle) {
            // Retire drained stages; idle accounting restarts next
            // cycle (this cycle they executed, so it is not idle).
            ready_.erase(
                std::remove_if(
                    ready_.begin(), ready_.end(),
                    [&](uint32_t mid) {
                        RunState::Stage &stg = stages[mid];
                        if (!mods[mid].driver && stg.pending == 0) {
                            stg.idle_open = true;
                            stg.idle_anchor = cycle + 1;
                            return true;
                        }
                        return false;
                    }),
                ready_.end());
        }
        rs.done = cycle + 1;
        if (rs.observed)
            self.observeCycle();
        rs.post_hooks.fire(cycle);
        self.checkWatchdog(progress);
        if (rs.recorder)
            rs.recorder->endCycle();
        ++rs.cycle;
        if (cx.finish_pending)
            rs.finished = true;
    }
};

void
EventCtx::multiplePushes(uint32_t fid) const
{
    fatal("cycle ", st->cycle, ": multiple pushes to FIFO '",
          st->fifos[fid].port->fullName(), "' in one cycle");
}

void
EventCtx::badArrayWrite(uint32_t aid, uint64_t idx) const
{
    const RegArray &arr = *st->arrays[aid].array;
    if (idx >= st->arrays[aid].size)
        fatal("cycle ", st->cycle, ": out-of-range write to '", arr.name(),
              "[", idx, "]'");
    fatal("cycle ", st->cycle, ": register array '", arr.name(),
          "' written twice in one cycle");
}

void
EventCtx::assertFailed(uint32_t idx) const
{
    fatal("cycle ", st->cycle, ": assertion failed: ",
          prog->asserts()[idx]->msg());
}

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

bool
spanNop(EventCtx &)
{
    return true;
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
    for (const uint64_t start = st_.cycle; !st_.finished &&
                                           !st_.hazard_flag &&
                                           st_.cycle - start < max_cycles;)
        im.stepCycle();
}

void
Simulator::arrayPoked(uint32_t aid)
{
    impl_->markArrayDirty(aid);
}

void
Simulator::fifoPoked(uint32_t fid)
{
    impl_->markFifoDirty(fid);
}

void
Simulator::rebuildViews()
{
    Impl &im = *impl_;
    for (ArrayPending &pd : im.arr_pend)
        pd = ArrayPending{};
    for (FifoPending &pd : im.fifo_pend)
        pd = FifoPending{};
    for (ModSched &ms : im.mods) {
        ms.inc = 0;
        ms.dec = false;
    }
    im.rebuildReady();
    std::fill(im.touched_fifo_w.begin(), im.touched_fifo_w.end(), 0);
    std::fill(im.touched_arr_w.begin(), im.touched_arr_w.end(), 0);
    std::fill(im.touched_mod_w.begin(), im.touched_mod_w.end(), 0);
    im.cx.finish_pending = st_.finished;
    std::copy(im.prog->slotInit().begin(), im.prog->slotInit().end(),
              im.slots.begin());
}

// The shuffle RNG rides only event-engine snapshots; restoring a netlist
// snapshot keeps the constructor seed (documented caveat: a shuffled
// event run resumed from a netlist snapshot replays the stream from its
// seed).
void
Simulator::saveSections(Snapshot &snap) const
{
    ByteWriter w;
    for (uint64_t word : impl_->rng.state())
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
    impl_->rng.setState(state);
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
