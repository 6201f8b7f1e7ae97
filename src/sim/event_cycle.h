/**
 * @file
 * The event engine's two-phase cycle (Fig. 9 of the paper), written
 * once: phase 0 re-evaluates stale shadow cones in topological order,
 * phase 1 visits the ready set (in topological or shuffled order),
 * phase 2 commits the buffered FIFO, array and event-counter effects.
 *
 * runEventCycle<Plan> is a template over a *plan*, which says how the
 * phases reach a design's schedule and spans. Two plans exist:
 *
 *  - the generic one (sim/simulator.cc) reads the Program's vectors and
 *    runs each span through the interpreter; it serves Evaluator::kTape
 *    and every design outside the catalog;
 *  - CompiledPlan<S> below reads a catalog design's schedule from the
 *    `constexpr` tables S the tape generator prints (sim/tape_emit.h),
 *    so every loop over stages, FIFOs, arrays, stall gates and wake
 *    lists unrolls over constants and each span function is a direct
 *    call the C++ compiler may inline. The generated source
 *    instantiates it once per distinct tape.
 *
 * The prologue and epilogue of a cycle (recorder, hooks, observation,
 * watchdog, finish) are the shared cycle frame, Engine::runCycleFrames,
 * around the one call of the cycle function in Simulator::Impl::step.
 *
 * A plan provides, as static members, with `mid`, `fid` and `aid` a
 * uint32_t or (CompiledPlan) a std::integral_constant:
 *   forShadowMods(es, f)        f(mid) per nonempty shadow, topo order;
 *   shadow(es, mid), active(es, mid) -> bool   run a span;
 *   driver(es, mid) -> bool;
 *   topoPos(es, mid)            the stage's bit in the ready bitmap;
 *   forStallFifos(es, mid, f)   f(fid) per kStallProducer gate;
 *   forFifoWake(es, fid, f), forArrayWake(es, aid, f)   f(mid) per
 *                               shadow the FIFO / array feeds;
 *   visitInOrder(es), visitShuffled(es)   visitStage<Plan>(es, mid)
 *                               per ready stage, in topological or
 *                               shuffled (shuffledReady) order;
 *   commitFifo(es, fid, pd, recording) -> bool   RunState::commitFifo
 *                               of the FIFO's buffered effects;
 *   forTouchedFifos(es, f), forTouchedArrays(es, f),
 *   forTouchedMods(es, f)       f(index) per set bit of the touched
 *                               bitmap, lowest first, then clear it.
 * CompiledPlan commits FIFOs by call group (Program::callGroups): its
 * `fid` is a group's first FIFO, which alone carries the group's flags
 * and touched bit, and commitFifo and forFifoWake cover the group.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_ctx.h"
#include "support/rng.h"

namespace assassyn {
namespace sim {

/**
 * The event engine's per-run cycle state: the row context, the buffered
 * effects and scheduler records of the cycle in flight, and the
 * scheduler's views (indexed like RunState). Everything that survives a
 * cycle boundary lives in RunState (reached through cx.st).
 */
struct EventState {
    EventCtx cx;
    std::vector<uint64_t> slots;
    std::vector<FifoPending> fifo_pend; ///< by fifo index
    std::vector<ArrayPending> arr_pend; ///< by RegArray::id
    std::vector<ModSched> mods;         ///< by Module::id
    /**
     * The ready set (drivers plus stages with pending events) as a
     * bitmap over topological positions, so the unshuffled visit order
     * — and with it log order, fatal-error order and the serialized
     * event trace — is the topological one. A stage is in the ready
     * set exactly when its RunState idle span is closed.
     */
    std::vector<uint64_t> ready_w;
    /** By Module::id. Not a byte type: stores through a byte pointer
     *  may alias anything, which would make the compiler reload every
     *  pointer of the commit phase after each wake. */
    std::vector<uint32_t> shadow_stale;
    // Touched sets as bitmaps: effects set a bit (no branch, no
    // allocation); commit visits set bits lowest-first, which is the
    // dense-index order of a full scan.
    std::vector<uint64_t> touched_fifo_w;
    std::vector<uint64_t> touched_arr_w;
    std::vector<uint64_t> touched_mod_w;
    Rng rng;                        ///< SimOptions::shuffle_seed
    bool shuffle = false;           ///< SimOptions::shuffle
};

/**
 * Phase 1 for one ready stage: publish its activity, apply its
 * backpressure gate, run its body. A stage pushing into a full
 * kStallProducer FIFO does not execute; the gate reads start-of-cycle
 * occupancy (counts only change at commit), so it is independent of
 * stage order — shuffle invariance holds — and matches the RTL's
 * `exec = pending & wait & ~full` gating exactly.
 */
template <class Plan, class Mid>
void
visitStage(EventState &es, Mid mid)
{
    RunState &rs = *es.cx.st;
    RunState::Stage &stg = rs.stages[mid];
    // Stages outside the ready set keep a stale stamp and read idle.
    stg.stamp = rs.cycle + 1;
    RunState::Fifo *const fifos = rs.fifos.data();
    bool full_stall = false;
    Plan::forStallFifos(es, mid, [&](auto fid) {
        RunState::Fifo &f = fifos[fid];
        if (f.count == f.depth) {
            full_stall = true;
            ++f.stall_cycles;
        }
    });
    if (full_stall) {
        stg.act = StageActivity::kBackpressure;
        ++stg.bp_stalls;
        ++stg.wait_spins;
        return;
    }
    if (Plan::active(es, mid)) {
        ++stg.execs;
        ++rs.total_execs;
        stg.act = StageActivity::kExec;
        if (!Plan::driver(es, mid)) {
            es.mods[mid].dec = true;
            touchBit(es.touched_mod_w.data(), mid);
        }
    } else {
        stg.act = StageActivity::kWaitSpin;
        ++stg.wait_spins;
    }
}

/**
 * The shuffled visit order of Sec. 5.1: the ready stages in
 * topological order (@p topo maps a position to its module), permuted
 * by es.rng, into @p order. The draws are those of Rng::shuffle over
 * the topologically sorted ready list, so the permutation and the RNG
 * stream do not depend on the plan. @return the number of stages.
 */
inline size_t
shuffledReady(EventState &es, const uint32_t *topo, uint32_t *order)
{
    size_t n = 0;
    for (size_t k = 0; k < es.ready_w.size(); ++k)
        for (uint64_t bits = es.ready_w[k]; bits; bits &= bits - 1)
            order[n++] = topo[k * 64 + size_t(__builtin_ctzll(bits))];
    es.rng.shuffle(order, n);
    return n;
}

/**
 * RunState::commitFifo of each FIFO of the call group [@p first, @p end)
 * in turn, called out of line: the generated commits' path for recorded
 * runs and for overflows (sim/simulator.cc). The group's pop and push
 * flags and producer sit on @p fpd[first], each member's value on its
 * own record. @return whether any FIFO changed.
 */
bool commitGroupOutOfLine(RunState &rs, uint32_t first, uint32_t end,
                          const FifoPending *fpd);

/**
 * Phases 0-2 of the cycle st.cycle. @return whether the cycle committed
 * an architectural state change (the watchdog's forward progress).
 */
template <class Plan>
bool
runEventCycle(EventState &es)
{
    RunState &rs = *es.cx.st;
    const uint64_t cycle = rs.cycle;
    uint32_t *const stale = es.shadow_stale.data();

    // Phase 0: re-evaluate stale shadow cones only, in topological
    // order. A shadow whose sensitivity inputs (FIFOs, arrays, upstream
    // shadow cones) are unchanged still holds exactly the values an
    // eager evaluation would produce.
    Plan::forShadowMods(es, [&](auto mid) {
        if (!stale[mid])
            return;
        stale[mid] = 0;
        Plan::shadow(es, mid);
    });

    // Phase 1: visit the ready set. Membership only changes at commit,
    // so the visit set is start-of-cycle exact; idle stages cost
    // nothing. Sec. 5.1 randomization shuffles the topological order:
    // the shadow pass keeps cross-stage reads well-defined, so results
    // are invariant (tests assert exactly that).
    if (es.shuffle)
        Plan::visitShuffled(es);
    else
        Plan::visitInOrder(es);

    // Phase 2: commit buffered side effects, touched state only, in
    // dense-index order (so any fatal raised from a commit matches the
    // full-scan engine's).
    bool progress = false;
    FifoPending *const fpd = es.fifo_pend.data();
    const bool recording = rs.recorder != nullptr;
    Plan::forTouchedFifos(es, [&](auto fid) {
        FifoPending &pd = fpd[fid];
        if (Plan::commitFifo(es, fid, pd, recording)) {
            progress = true;
            Plan::forFifoWake(es, fid, [&](auto mid) { stale[mid] = 1; });
        }
        pd.deq = false;
        pd.push = false;
    });
    ArrayPending *const apd = es.arr_pend.data();
    RunState::Array *const arrays = rs.arrays.data();
    Plan::forTouchedArrays(es, [&](auto aid) {
        ArrayPending &pd = apd[aid];
        RunState::Array &arr = arrays[aid];
        arr.data[pd.index] = pd.value;
        pd.write = false;
        ++arr.writes;
        progress = true;
        Plan::forArrayWake(es, aid, [&](auto mid) { stale[mid] = 1; });
    });
    ModSched *const mods = es.mods.data();
    RunState::Stage *const stages = rs.stages.data();
    uint64_t *const ready = es.ready_w.data();
    Plan::forTouchedMods(es, [&](auto mid) {
        ModSched &ms = mods[mid];
        RunState::Stage &stg = stages[mid];
        // A received event, or a consumed one (a non-driver body
        // executed), changes the stage's event counter.
        if (ms.inc || ms.dec)
            progress = true;
        rs.commitEvents(stg, ms.inc, ms.dec);
        ms.dec = false;
        ms.inc = 0;
        const auto pos = Plan::topoPos(es, mid);
        if (stg.idle_open && stg.pending > 0) {
            // Wake: close the idle span (cycles idle_anchor..now, this
            // cycle included — the stage was not visited in phase 1)
            // and enter the ready set.
            stg.idle_cycles += (cycle + 1) - stg.idle_anchor;
            stg.idle_open = false;
            ready[pos >> 6] |= 1ull << (pos & 63);
        } else if (!stg.idle_open && !Plan::driver(es, mid) &&
                   stg.pending == 0) {
            // Retire a drained stage; idle accounting restarts next
            // cycle (this cycle it executed, so it is not idle).
            stg.idle_open = true;
            stg.idle_anchor = cycle + 1;
            ready[pos >> 6] &= ~(1ull << (pos & 63));
        }
    });
    return progress;
}

/**
 * The plan of a generated cycle: the schedule and shape of one catalog
 * tape as the `constexpr` tables of @p S (printed by
 * sim/tape_emit.cc):
 *   kMods, kFifos, kArrays, kShadowMods   counts;
 *   kTopo[kMods]                          topological order;
 *   kDriver[kMods]                        driver flags;
 *   kShadowMod[]                          the phase-0 worklist;
 *   kStallAt / kStall, kFifoWakeAt / kFifoWake,
 *   kArrayWakeAt / kArrayWake             IdLists, flattened;
 *   kFifoShape[kFifos]                    FIFO layout (fifoLayout);
 *   kGroups, kGroupAt[kGroups + 1]        the call groups;
 *   kGroupWakeAt / kGroupWake             each group's wake list, the
 *                                         union of its members';
 *   kShadow[kMods], kActive[kMods]        the span functions.
 * Every list is expanded at compile time, so each element is a
 * constant: slots, FIFO records and flags at fixed offsets, ring masks,
 * depths and arena offsets as literals, and span calls that are
 * direct.
 */
template <class S>
struct CompiledPlan {
    template <uint32_t I>
    using Id = std::integral_constant<uint32_t, I>;

    /** f(Id<List[B + I]>) for each I. */
    template <const auto &List, size_t B, class F, size_t... I>
    [[gnu::always_inline]] static void
    eachOf(F &f, std::index_sequence<I...>)
    {
        (f(Id<List[B + I]>{}), ...);
    }

    /** f(Id<List[i]>) for i in [B, E). */
    template <const auto &List, size_t B, size_t E, class F>
    [[gnu::always_inline]] static void
    each(F &f)
    {
        eachOf<List, B>(f, std::make_index_sequence<E - B>{});
    }

    /** f(Id<I>) for each set bit I < N of @p w, lowest first; clears
     *  the bitmap. */
    template <size_t N, class F, size_t... I>
    [[gnu::always_inline]] static void
    eachSetBit(uint64_t *w, F &f, std::index_sequence<I...>)
    {
        [[maybe_unused]] uint64_t bits[(N + 63) / 64 + 1];
        for (size_t k = 0; k < (N + 63) / 64; ++k) {
            bits[k] = w[k];
            w[k] = 0;
        }
        ((bits[I / 64] >> (I % 64) & 1 ? f(Id<I>{}) : void()), ...);
    }

    template <class F>
    static void
    forShadowMods(EventState &, F &&f)
    {
        each<S::kShadowMod, 0, S::kShadowMods>(f);
    }

    template <uint32_t M>
    static void
    shadow(EventState &es, Id<M>)
    {
        S::kShadow[M](es.cx);
    }

    template <uint32_t M>
    static bool
    active(EventState &es, Id<M>)
    {
        return S::kActive[M](es.cx);
    }

    template <uint32_t M>
    static constexpr bool
    driver(EventState &, Id<M>)
    {
        return S::kDriver[M] != 0;
    }

    /** The inverse of kTopo. */
    static constexpr std::array<uint32_t, S::kMods> kTopoPos = [] {
        std::array<uint32_t, S::kMods> pos{};
        for (uint32_t p = 0; p < S::kMods; ++p)
            pos[S::kTopo[p]] = p;
        return pos;
    }();

    template <uint32_t M>
    static constexpr Id<kTopoPos[M]>
    topoPos(EventState &, Id<M>)
    {
        return {};
    }

    template <uint32_t M, class F>
    static void
    forStallFifos(EventState &, Id<M>, F &&f)
    {
        each<S::kStall, S::kStallAt[M], S::kStallAt[M + 1]>(f);
    }

    /** The union of the wake lists of the call group led by Lead. */
    template <uint32_t Lead, class F>
    static void
    forFifoWake(EventState &, Id<Lead>, F &&f)
    {
        constexpr uint32_t g = kGroupOf[Lead];
        each<S::kGroupWake, S::kGroupWakeAt[g], S::kGroupWakeAt[g + 1]>(f);
    }

    template <uint32_t Aid, class F>
    static void
    forArrayWake(EventState &, Id<Aid>, F &&f)
    {
        each<S::kArrayWake, S::kArrayWakeAt[Aid],
             S::kArrayWakeAt[Aid + 1]>(f);
    }

    template <size_t... M>
    static constexpr auto
    visitTable(std::index_sequence<M...>)
    {
        using VisitFn = void (*)(EventState &);
        return std::array<VisitFn, sizeof...(M)>{
            [](EventState &es) __attribute__((noinline)) {
                visitStage<CompiledPlan>(es, Id<M>{});
            }...};
    }

    /** Each stage's visit, its span inlined, as an entry of a table:
     *  called directly in topological order, through the table in
     *  shuffled order. Kept out of line, so that each span has this
     *  one caller and is inlined into it. */
    static constexpr auto kVisit =
        visitTable(std::make_index_sequence<S::kMods>{});

    /** Every stage in topological order, straight-line, each visited
     *  when its ready bit is set. */
    template <size_t... P>
    [[gnu::always_inline]] static void
    visitEach(EventState &es, std::index_sequence<P...>)
    {
        uint64_t bits[(S::kMods + 63) / 64];
        for (size_t k = 0; k < (S::kMods + 63) / 64; ++k)
            bits[k] = es.ready_w[k];
        ((bits[P / 64] >> (P % 64) & 1 ? kVisit[S::kTopo[P]](es) : void()),
         ...);
    }

    static void
    visitInOrder(EventState &es)
    {
        visitEach(es, std::make_index_sequence<S::kMods>{});
    }

    static void
    visitShuffled(EventState &es)
    {
        uint32_t order[S::kMods];
        const size_t n = shuffledReady(es, S::kTopo, order);
        for (size_t i = 0; i < n; ++i)
            kVisit[order[i]](es);
    }

    /** The call group of each FIFO, by fifo index. */
    static constexpr std::array<uint32_t, S::kFifos> kGroupOf = [] {
        std::array<uint32_t, S::kFifos> g{};
        for (uint32_t k = 0; k < S::kGroups; ++k)
            for (uint32_t f = S::kGroupAt[k]; f < S::kGroupAt[k + 1]; ++f)
                g[f] = k;
        return g;
    }();

    /** The decision of one call group's commit in cycle `cycle`. */
    struct GroupCommit {
        bool pop, store, drop;
        uint32_t before, after; ///< the group's occupancy
        uint64_t cycle;
    };

    /**
     * One member Fid of a call group, committed on the group's decision
     * @p c: pop, store the member's own buffered value, or drop.
     */
    template <uint32_t Fid>
    [[gnu::always_inline]] static void
    commitMember(RunState &rs, const FifoPending *fpd, const GroupCommit &c)
    {
        constexpr FifoShape sh = S::kFifoShape[Fid];
        RunState::Fifo &f = rs.fifos[Fid];
        f.head = (f.head + c.pop) & sh.mask;
        f.pops += c.pop;
        if (c.store)
            rs.fifo_arena[sh.base +
                          ((f.head + c.before - c.pop) & sh.mask)] =
                fpd[Fid].value;
        f.pushes += c.store;
        f.drops += c.drop;
        f.count = c.after;
        if (c.after != c.before) {
            RunState::recordN(f.occupancy, c.before,
                              c.cycle - f.sampled_until);
            f.sampled_until = c.cycle;
        }
    }

    template <uint32_t Lead, size_t... M>
    [[gnu::always_inline]] static void
    commitMembers(RunState &rs, const FifoPending *fpd, const GroupCommit &c,
                  std::index_sequence<M...>)
    {
        (commitMember<Lead + M>(rs, fpd, c), ...);
    }

    /**
     * RunState::commitFifo of the call group led by FIFO Lead
     * (Program::callGroups), specialized on its shape: ring masks,
     * depth, arena offsets and policy are literals. The members hold
     * equal occupancy and share the lead's pop and push flags (@p pd),
     * so one decision, made on the lead's count, commits them all. A
     * recorded run (the recorder sees every pop and push) and an
     * overflow take the shared commit out of line, member by member.
     */
    template <uint32_t Lead>
    static bool
    commitFifo(EventState &es, Id<Lead>, const FifoPending &pd,
               bool recording)
    {
        constexpr uint32_t kEnd = S::kGroupAt[kGroupOf[Lead] + 1];
        constexpr FifoShape sh = S::kFifoShape[Lead];
        constexpr bool drops =
            FifoPolicy(sh.policy) == FifoPolicy::kDropNewest;
        RunState &rs = *es.cx.st;
        const FifoPending *const fpd = es.fifo_pend.data();
        const uint32_t before = rs.fifos[Lead].count;
        const bool pop = pd.deq && before;
        // Full after this cycle's pop, if any.
        const bool full = before == sh.depth && !pop;
        if (recording || (!drops && pd.push && full))
            return commitGroupOutOfLine(rs, Lead, kEnd, fpd);
        const bool store = pd.push && !full;
        const GroupCommit c{pop, store, pd.push && full, before,
                            before - pop + store, rs.cycle};
        commitMembers<Lead>(rs, fpd, c,
                            std::make_index_sequence<kEnd - Lead>{});
        return pop || store;
    }

    /** f(Id<lead>) for each call group whose lead's touched bit is
     *  set, lowest first; clears the bitmap. Only a group's lead is
     *  ever touched. */
    template <class F, size_t... G>
    [[gnu::always_inline]] static void
    eachTouchedGroup(uint64_t *w, F &f, std::index_sequence<G...>)
    {
        [[maybe_unused]] uint64_t bits[(S::kFifos + 63) / 64 + 1];
        for (size_t k = 0; k < (S::kFifos + 63) / 64; ++k) {
            bits[k] = w[k];
            w[k] = 0;
        }
        ((bits[S::kGroupAt[G] / 64] >> (S::kGroupAt[G] % 64) & 1
              ? f(Id<S::kGroupAt[G]>{})
              : void()),
         ...);
    }

    template <class F>
    static void
    forTouchedFifos(EventState &es, F &&f)
    {
        eachTouchedGroup(es.touched_fifo_w.data(), f,
                         std::make_index_sequence<S::kGroups>{});
    }

    template <class F>
    static void
    forTouchedArrays(EventState &es, F &&f)
    {
        eachSetBit<S::kArrays>(es.touched_arr_w.data(), f,
                               std::make_index_sequence<S::kArrays>{});
    }

    template <class F>
    static void
    forTouchedMods(EventState &es, F &&f)
    {
        eachSetBit<S::kMods>(es.touched_mod_w.data(), f,
                             std::make_index_sequence<S::kMods>{});
    }
};

} // namespace sim
} // namespace assassyn
