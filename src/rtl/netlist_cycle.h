/**
 * @file
 * The netlist engine's cycle, written once: drive the state-derived
 * nets (FIFO pop data, valid and full, event-counter nonzero) from the
 * run state, evaluate every cell in one levelized pass, classify each
 * stage's activity from its exec_valid net, run the testbench monitors,
 * then commit at the clock edge: FIFOs, arrays, event counters.
 *
 * runNetlistCycle<Plan> is a template over a *plan*, which says how the
 * cycle reaches a netlist's tables and nets (as sim/event_cycle.h does
 * for the event engine). Two plans exist:
 *
 *  - the generic one (rtl/netlist_sim.cc) reads the Netlist's
 *    CycleTables and a net store, and evaluates the cells with the tape
 *    interpreter; it serves Evaluator::kTape and every netlist outside
 *    the catalog;
 *  - CompiledPlan<S> below reads a catalog netlist's tables from the
 *    `constexpr` copies S the tape generator prints (sim/tape_emit.h),
 *    so every loop over blocks, sites, stages and monitors unrolls over
 *    constants. Its cells are S::evaluate, straight-line code whose
 *    nets are C++ locals (no net outlives a cycle) and whose constant
 *    nets are literals; the nets the rest of the cycle reads pass
 *    through a small frame, Frame::x. The generated source
 *    instantiates it once per distinct netlist.
 *
 * A plan provides, as static members, with every index (`b`, `a`, `c`,
 * `v`, `m`) and every net a uint32_t or (CompiledPlan) a
 * std::integral_constant:
 *   Frame(ns)                   this cycle's nets;
 *   net(fr, n), set(fr, n, x)   read net n, drive it (kNoNet: ignored);
 *   evaluate(ns, fr)            every cell, in levelized order;
 *   forFifos(ns, f)             f(b) per FifoBlock;
 *   fifo(ns, b) -> FifoRow;  popData, popValid, full(ns, b) -> net;
 *   forDeqs(ns, b, f)           f(enable net);
 *   forPushes(ns, b, f)         f(enable net, data net, src Module::id);
 *   forArrays(ns, f)            f(a) per RegArray::id; elemBits(ns, a);
 *   forWrites(ns, a, f)         f(enable net, index net, data net);
 *   forCounters(ns, f)          f(c); counter(ns, c) -> CounterRow;
 *   nonzero, dec(ns, c) -> net;  forIncs(ns, c, f)  f(enable net);
 *   forStages(ns, f)            f(v), topological order;
 *   stage(ns, v) -> StageRow;  exec(ns, v) -> net;
 *   forStalls(ns, v, f)         f(RunState FIFO id) per stall gate;
 *   forMonitors(ns, f)          f(m); kind(ns, m); enable(ns, m) -> net;
 *   withArgs(ns, fr, m, f)      f(const uint64_t *argument values).
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtl/compiled_netlist.h"
#include "support/bits.h"

namespace assassyn {
namespace rtl {

/**
 * What the netlist cycle runs over besides the run state: the netlist
 * (its tables and monitors) and, for the interpreter, the net store.
 */
struct NetState {
    sim::RunState *st = nullptr;
    const Netlist *nl = nullptr;
    const CycleTables *t = nullptr; ///< nl->cycleTables()
    /**
     * The interpreter's net values, constants preset. Empty on a
     * compiled netlist: its nets are locals of the generated cycle.
     */
    std::vector<uint64_t> nets;
    std::vector<uint64_t> args; ///< the interpreter's monitor arguments
};

// The cold monitor paths, out of line (rtl/netlist_sim.cc).

/** Append monitor @p m's log line, its argument values @p args. */
[[gnu::noinline]] void logMonitor(const NetState &ns, uint32_t m,
                                  const uint64_t *args);

/** Fail monitor @p m, an assertion. */
[[gnu::noinline, noreturn]] void failMonitor(const NetState &ns, uint32_t m);

/**
 * Evaluate and commit the cycle st.cycle: the netlist engine's step of
 * the shared cycle frame (sim::Engine::runCycleFrames).
 */
template <class Plan>
sim::CycleOutcome
runNetlistCycle(NetState &ns)
{
    sim::RunState &rs = *ns.st;
    sim::RunState::Fifo *const fifos = rs.fifos.data();
    sim::RunState::Stage *const stages = rs.stages.data();
    typename Plan::Frame fr(ns);

    // Drive state-derived nets: FIFO pop interfaces and event-pending
    // flags, all functions of sequential state at the clock edge.
    const uint64_t *const fa = rs.fifo_arena.data();
    Plan::forFifos(ns, [&](auto b) {
        const sim::RunState::Fifo &f = fifos[Plan::fifo(ns, b).fid];
        Plan::set(fr, Plan::popData(ns, b),
                  f.count ? fa[f.base + f.head] : 0);
        Plan::set(fr, Plan::popValid(ns, b), f.count > 0);
        Plan::set(fr, Plan::full(ns, b), f.count == f.depth);
    });
    Plan::forCounters(ns, [&](auto c) {
        Plan::set(fr, Plan::nonzero(ns, c),
                  stages[Plan::counter(ns, c).mid].pending > 0);
    });

    // Single-pass combinational evaluation over the levelized cells:
    // the static schedule, no settle loop and nothing skipped.
    Plan::evaluate(ns, fr);

    // Per-stage accounting, from the settled exec_valid nets,
    // published into RunState: the same classification the
    // event-driven simulator makes in its phase 1 (executed /
    // spinning on wait_until / idle). A pending stage whose
    // exec_valid is held low by a full kStallProducer FIFO
    // additionally counts as backpressure-stalled, charged both to
    // the stage and to each full gating FIFO.
    const uint64_t stamp = rs.cycle + 1;
    Plan::forStages(ns, [&](auto v) {
        const StageRow &row = Plan::stage(ns, v);
        sim::RunState::Stage &stg = stages[row.mid];
        stg.stamp = stamp;
        if (Plan::net(fr, Plan::exec(ns, v))) {
            ++stg.execs;
            ++rs.total_execs;
            stg.act = sim::StageActivity::kExec;
        } else if (row.driver || stg.pending > 0) {
            ++stg.wait_spins;
            bool bp = false;
            Plan::forStalls(ns, v, [&](auto fid) {
                if (fifos[fid].count == fifos[fid].depth) {
                    bp = true;
                    ++fifos[fid].stall_cycles;
                }
            });
            if (bp)
                ++stg.bp_stalls;
            stg.act = bp ? sim::StageActivity::kBackpressure
                         : sim::StageActivity::kWaitSpin;
        } else {
            ++stg.idle_cycles;
            stg.act = sim::StageActivity::kIdle;
        }
    });

    // Testbench monitors, in elaboration (topological) order.
    bool finish_req = false;
    Plan::forMonitors(ns, [&](auto m) {
        if (!Plan::net(fr, Plan::enable(ns, m)))
            return;
        switch (MonitorBlock::Kind(Plan::kind(ns, m))) {
          case MonitorBlock::Kind::kLog:
            if (rs.opts.capture_logs)
                Plan::withArgs(ns, fr, m, [&](const uint64_t *args) {
                    logMonitor(ns, m, args);
                });
            break;
          case MonitorBlock::Kind::kAssert:
            Plan::withArgs(ns, fr, m, [&](const uint64_t *args) {
                if (!args[0])
                    failMonitor(ns, m);
            });
            break;
          case MonitorBlock::Kind::kFinish:
            finish_req = true;
            break;
        }
    });

    // Sequential commit at the clock edge: FIFOs dequeue then enqueue
    // (the penetrable stage buffer of Sec. 5.2), arrays apply their
    // one-hot-gathered write, counters add activations and subtract
    // the clear. `progress` records any committed architectural
    // state change this cycle — the watchdog's definition of forward
    // progress. A FIFO with neither a dequeue nor a push enabled does
    // not change, so it is not committed.
    bool progress = false;
    Plan::forFifos(ns, [&](auto b) {
        bool deq = false;
        Plan::forDeqs(ns, b, [&](auto en) { deq |= Plan::net(fr, en) != 0; });
        int pushes = 0;
        uint64_t data = 0;
        uint32_t src = kNoNet;
        Plan::forPushes(ns, b, [&](auto en, auto d, uint32_t mid) {
            if (Plan::net(fr, en)) {
                ++pushes;
                data = Plan::net(fr, d);
                src = mid;
            }
        });
        if (!deq && !pushes)
            return;
        const FifoRow &row = Plan::fifo(ns, b);
        if (pushes > 1)
            rs.multiplePushes(row.fid);
        progress |= rs.commitFifo(row.fid, deq, pushes == 1,
                                  truncate(data, row.width),
                                  src == kNoNet ? nullptr : stages[src].mod);
    });
    sim::RunState::Array *const arrays = rs.arrays.data();
    Plan::forArrays(ns, [&](auto a) {
        sim::RunState::Array &arr = arrays[a];
        int writes = 0;
        uint64_t idx = 0, data = 0;
        Plan::forWrites(ns, a, [&](auto en, auto i, auto d) {
            if (Plan::net(fr, en)) {
                idx = Plan::net(fr, i);
                data = Plan::net(fr, d);
                // Range before count, as the event engine's
                // kArrayWrite checks it.
                if (idx >= arr.size || ++writes > 1)
                    rs.badArrayWrite(uint32_t(a), idx);
            }
        });
        if (writes == 1) {
            arr.data[idx] = truncate(data, Plan::elemBits(ns, a));
            ++arr.writes;
            progress = true;
        }
    });
    Plan::forCounters(ns, [&](auto c) {
        uint64_t inc = 0;
        Plan::forIncs(ns, c,
                      [&](auto en) { inc += Plan::net(fr, en) ? 1 : 0; });
        // A received event, or a consumed one (the stage executed),
        // changes the counter.
        const bool dec = Plan::net(fr, Plan::dec(ns, c)) != 0;
        if (inc || dec)
            progress = true;
        rs.commitEvents(stages[Plan::counter(ns, c).mid], inc, dec);
    });
    return {progress, finish_req};
}

/**
 * The plan of a generated cycle: one catalog netlist's cycle tables as
 * the `constexpr` members of @p S (printed by sim/tape_emit.cc):
 *   kFifos, kArrays, kCounters, kStages, kMonitors, kConsts, kFrame
 *                                        counts;
 *   kFifo[], kElemBits[], kCounter[], kStage[], kMonitor[]   rows;
 *   kDeqAt/kDeq, kPushAt/kPush, kWriteAt/kWrite, kIncAt/kInc,
 *   kStallAt/kStall, kArgAt/kArg         RowLists, flattened;
 *   kConstNet[], kConstValue[]           the constant nets, ascending;
 *   kFrameNet[kFrame]                    ascending: the nets the cycle
 *                                        drives or reads around the
 *                                        cells, Frame::x's slots;
 *   evaluate(x, ast)                     the cells over those slots.
 * Every loop expands at compile time, so each index and net is a
 * constant: a constant net is a literal, any other a fixed frame slot.
 */
template <class S>
struct CompiledPlan {
    template <uint32_t I>
    using Id = std::integral_constant<uint32_t, I>;

    /** f(Id<B + I>) for each I. */
    template <uint32_t B, class F, uint32_t... I>
    [[gnu::always_inline]] static void
    eachOf(F &f, std::integer_sequence<uint32_t, I...>)
    {
        (f(Id<B + I>{}), ...);
    }

    /** f(Id<i>) for i in [B, E). */
    template <uint32_t B, uint32_t E, class F>
    [[gnu::always_inline]] static void
    each(F &&f)
    {
        eachOf<B>(f, std::make_integer_sequence<uint32_t, E - B>{});
    }

    /** Position of @p x in the ascending @p list of @p n, or n. */
    static constexpr uint32_t
    find(const uint32_t *list, size_t n, uint32_t x)
    {
        const uint32_t *at = std::lower_bound(list, list + n, x);
        return at != list + n && *at == x ? uint32_t(at - list)
                                          : uint32_t(n);
    }

    /** Each slot is driven, or written by evaluate, before it is
     *  read. */
    struct Frame {
        explicit Frame(NetState &) {}
        uint64_t x[S::kFrame ? S::kFrame : 1];
    };

    template <uint32_t N>
    [[gnu::always_inline]] static uint64_t
    net(const Frame &fr, Id<N>)
    {
        constexpr uint32_t k = find(S::kConstNet, S::kConsts, N);
        if constexpr (k < S::kConsts) {
            return S::kConstValue[k];
        } else {
            constexpr uint32_t slot = find(S::kFrameNet, S::kFrame, N);
            static_assert(slot < S::kFrame, "a net outside the frame");
            return fr.x[slot];
        }
    }

    template <uint32_t N>
    [[gnu::always_inline]] static void
    set(Frame &fr, Id<N>, uint64_t value)
    {
        if constexpr (N != kNoNet) {
            constexpr uint32_t slot = find(S::kFrameNet, S::kFrame, N);
            static_assert(slot < S::kFrame, "a net outside the frame");
            fr.x[slot] = value;
        }
    }

    [[gnu::always_inline]] static void
    evaluate(NetState &ns, Frame &fr)
    {
        S::evaluate(fr.x, ns.st->arrays.data());
    }

    template <class F>
    static void
    forFifos(NetState &, F &&f)
    {
        each<0, S::kFifos>(f);
    }

    template <uint32_t B>
    static constexpr const FifoRow &
    fifo(NetState &, Id<B>)
    {
        return S::kFifo[B];
    }

    template <uint32_t B>
    static constexpr auto
    popData(NetState &, Id<B>)
    {
        return Id<S::kFifo[B].pop_data>{};
    }

    template <uint32_t B>
    static constexpr auto
    popValid(NetState &, Id<B>)
    {
        return Id<S::kFifo[B].pop_valid>{};
    }

    template <uint32_t B>
    static constexpr auto
    full(NetState &, Id<B>)
    {
        return Id<S::kFifo[B].full>{};
    }

    template <uint32_t B, class F>
    static void
    forDeqs(NetState &, Id<B>, F &&f)
    {
        each<S::kDeqAt[B], S::kDeqAt[B + 1]>(
            [&](auto i) { f(Id<S::kDeq[i]>{}); });
    }

    template <uint32_t B, class F>
    static void
    forPushes(NetState &, Id<B>, F &&f)
    {
        each<S::kPushAt[B], S::kPushAt[B + 1]>([&](auto i) {
            constexpr PushRow r = S::kPush[i];
            f(Id<r.enable>{}, Id<r.data>{}, r.src);
        });
    }

    template <class F>
    static void
    forArrays(NetState &, F &&f)
    {
        each<0, S::kArrays>(f);
    }

    template <uint32_t A>
    static constexpr uint32_t
    elemBits(NetState &, Id<A>)
    {
        return S::kElemBits[A];
    }

    template <uint32_t A, class F>
    static void
    forWrites(NetState &, Id<A>, F &&f)
    {
        each<S::kWriteAt[A], S::kWriteAt[A + 1]>([&](auto i) {
            constexpr WriteRow r = S::kWrite[i];
            f(Id<r.enable>{}, Id<r.index>{}, Id<r.data>{});
        });
    }

    template <class F>
    static void
    forCounters(NetState &, F &&f)
    {
        each<0, S::kCounters>(f);
    }

    template <uint32_t C>
    static constexpr const CounterRow &
    counter(NetState &, Id<C>)
    {
        return S::kCounter[C];
    }

    template <uint32_t C>
    static constexpr auto
    nonzero(NetState &, Id<C>)
    {
        return Id<S::kCounter[C].nonzero>{};
    }

    template <uint32_t C>
    static constexpr auto
    dec(NetState &, Id<C>)
    {
        return Id<S::kCounter[C].dec>{};
    }

    template <uint32_t C, class F>
    static void
    forIncs(NetState &, Id<C>, F &&f)
    {
        each<S::kIncAt[C], S::kIncAt[C + 1]>(
            [&](auto i) { f(Id<S::kInc[i]>{}); });
    }

    template <class F>
    static void
    forStages(NetState &, F &&f)
    {
        each<0, S::kStages>(f);
    }

    template <uint32_t V>
    static constexpr const StageRow &
    stage(NetState &, Id<V>)
    {
        return S::kStage[V];
    }

    template <uint32_t V>
    static constexpr auto
    exec(NetState &, Id<V>)
    {
        return Id<S::kStage[V].exec>{};
    }

    template <uint32_t V, class F>
    static void
    forStalls(NetState &, Id<V>, F &&f)
    {
        each<S::kStallAt[V], S::kStallAt[V + 1]>(
            [&](auto i) { f(Id<S::kStall[i]>{}); });
    }

    template <class F>
    static void
    forMonitors(NetState &, F &&f)
    {
        each<0, S::kMonitors>(f);
    }

    template <uint32_t M>
    static constexpr uint32_t
    kind(NetState &, Id<M>)
    {
        return S::kMonitor[M].kind;
    }

    template <uint32_t M>
    static constexpr auto
    enable(NetState &, Id<M>)
    {
        return Id<S::kMonitor[M].enable>{};
    }

    template <uint32_t B, class F, uint32_t... I>
    [[gnu::always_inline]] static void
    argsOf(const Frame &fr, F &f, std::integer_sequence<uint32_t, I...>)
    {
        const uint64_t args[] = {net(fr, Id<S::kArg[B + I]>{})..., 0};
        f(args);
    }

    /** f(the values of monitor M's argument nets), passed by value. */
    template <uint32_t M, class F>
    static void
    withArgs(NetState &, const Frame &fr, Id<M>, F &&f)
    {
        argsOf<S::kArgAt[M]>(
            fr, f,
            std::make_integer_sequence<uint32_t,
                                       S::kArgAt[M + 1] - S::kArgAt[M]>{});
    }
};

} // namespace rtl
} // namespace assassyn
