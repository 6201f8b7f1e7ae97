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
 *   forStallFifos(es, mid, f)   f(fid) per kStallProducer gate;
 *   forFifoWake(es, fid, f), forArrayWake(es, aid, f)   f(mid) per
 *                               shadow the FIFO / array feeds;
 *   visit(es, order)            visitStage<Plan>(es, mid) per mid;
 *   forTouchedFifos(es, f), forTouchedArrays(es, f),
 *   forTouchedMods(es, f)       f(index) per set bit of the touched
 *                               bitmap, lowest first, then clear it.
 */
#pragma once

#include <algorithm>
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
     * The ready set (drivers plus stages with pending events), kept
     * sorted by topological position so the unshuffled visit order —
     * and with it log order, fatal-error order and the serialized event
     * trace — is the topological one. A stage is in the ready set
     * exactly when its RunState idle span is closed.
     */
    std::vector<uint32_t> ready;
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
    std::vector<uint32_t> shuffled; ///< this cycle's visit order
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
    if (es.shuffle) {
        es.shuffled = es.ready;
        es.rng.shuffle(es.shuffled);
        Plan::visit(es, es.shuffled);
    } else {
        Plan::visit(es, es.ready);
    }

    // Phase 2: commit buffered side effects, touched state only, in
    // dense-index order (so any fatal raised from a commit matches the
    // full-scan engine's).
    bool progress = false;
    FifoPending *const fpd = es.fifo_pend.data();
    Plan::forTouchedFifos(es, [&](auto fid) {
        FifoPending &pd = fpd[fid];
        if (rs.commitFifo(fid, pd.deq, pd.push, pd.value, pd.src)) {
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
    bool any_went_idle = false;
    ModSched *const mods = es.mods.data();
    RunState::Stage *const stages = rs.stages.data();
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
        if (stg.idle_open && stg.pending > 0) {
            // Wake: close the idle span (cycles idle_anchor..now, this
            // cycle included — the stage was not visited in phase 1)
            // and enter the ready set in topological position.
            stg.idle_cycles += (cycle + 1) - stg.idle_anchor;
            stg.idle_open = false;
            es.ready.insert(
                std::lower_bound(es.ready.begin(), es.ready.end(),
                                 ms.topo_pos,
                                 [mods](uint32_t m, uint32_t pos) {
                                     return mods[m].topo_pos < pos;
                                 }),
                uint32_t(mid));
        } else if (!stg.idle_open && !Plan::driver(es, mid) &&
                   stg.pending == 0) {
            any_went_idle = true;
        }
    });
    if (any_went_idle) {
        // Retire drained stages; idle accounting restarts next cycle
        // (this cycle they executed, so it is not idle).
        es.ready.erase(std::remove_if(es.ready.begin(), es.ready.end(),
                                      [&](uint32_t mid) {
                                          RunState::Stage &stg = stages[mid];
                                          if (!mods[mid].driver &&
                                              stg.pending == 0) {
                                              stg.idle_open = true;
                                              stg.idle_anchor = cycle + 1;
                                              return true;
                                          }
                                          return false;
                                      }),
                       es.ready.end());
    }
    return progress;
}

/**
 * The plan of a generated cycle: the schedule of one catalog tape as
 * the `constexpr` tables of @p S (printed by sim/tape_emit.cc):
 *   kMods, kFifos, kArrays, kShadowMods   counts;
 *   kDriver[kMods]                        driver flags;
 *   kShadowMod[]                          the phase-0 worklist;
 *   kStallAt / kStall, kFifoWakeAt / kFifoWake,
 *   kArrayWakeAt / kArrayWake             IdLists, flattened;
 *   kShadow[kMods], kActive[kMods]        the span functions.
 * Every list is expanded at compile time, so each element is a
 * constant: slots, FIFO records and flags at fixed offsets, and span
 * calls that are direct.
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

    template <uint32_t M, class F>
    static void
    forStallFifos(EventState &, Id<M>, F &&f)
    {
        each<S::kStall, S::kStallAt[M], S::kStallAt[M + 1]>(f);
    }

    template <uint32_t Fid, class F>
    static void
    forFifoWake(EventState &, Id<Fid>, F &&f)
    {
        each<S::kFifoWake, S::kFifoWakeAt[Fid], S::kFifoWakeAt[Fid + 1]>(f);
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
            [](EventState &es) { visitStage<CompiledPlan>(es, Id<M>{}); }...};
    }

    /** Each stage's visit, inlined into its own entry of a table the
     *  (runtime) visit order indexes. */
    static void
    visit(EventState &es, const std::vector<uint32_t> &order)
    {
        static constexpr auto kVisit =
            visitTable(std::make_index_sequence<S::kMods>{});
        for (uint32_t mid : order)
            kVisit[mid](es);
    }

    template <class F>
    static void
    forTouchedFifos(EventState &es, F &&f)
    {
        eachSetBit<S::kFifos>(es.touched_fifo_w.data(), f,
                              std::make_index_sequence<S::kFifos>{});
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
