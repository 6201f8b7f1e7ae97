#include "rtl/netlist_sim.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "support/bits.h"
#include "support/logging.h"
#include "support/ops.h"

namespace assassyn {
namespace rtl {

namespace {

struct FifoRt {
    std::vector<uint64_t> buf;
    uint32_t head = 0;
    uint32_t count = 0;

    // Observability: committed traffic and end-of-cycle occupancy,
    // mirroring sim::Simulator's per-FIFO accounting key for key.
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t drops = 0;        ///< pushes discarded under kDropNewest
    uint64_t stall_cycles = 0; ///< producer-stall cycles charged to this FIFO
    sim::Histogram occupancy;

    uint64_t peek() const { return count ? buf[head] : 0; }
};

/** Per-stage execution statistics, measured from the netlist. */
struct ModStat {
    const Module *mod = nullptr;
    uint32_t exec_net = 0;  ///< exec_valid (pending & wait_cond & ~full)
    int counter_idx = -1;   ///< CounterBlock index; -1 for drivers
    bool bp_stalled = false; ///< gated this cycle by a full stall-policy FIFO
    uint64_t execs = 0;
    uint64_t wait_spins = 0;
    uint64_t idle_cycles = 0;
    uint64_t events_in = 0;
    uint64_t saturations = 0;
    uint64_t bp_stalls = 0; ///< cycles gated by backpressure
};

/**
 * Activity-gating state of one cone: the input values and array
 * versions it was last evaluated against. While they match the current
 * state and the stage's exec_valid is low, the cone's outputs are
 * already correct in the net store and its cells are skipped.
 */
struct ConeRt {
    bool valid = false;         ///< evaluated at least once
    std::vector<uint64_t> sig;  ///< input nets at last evaluation
    std::vector<uint64_t> aver; ///< read-array versions at last evaluation
};

} // namespace

struct NetlistSim::Impl {
    const Netlist &nl;
    NetlistSimOptions opts;

    // Hazard watchdog, shared with the event-driven simulator so the
    // wait-for-graph diagnosis renders byte-identically on both backends.
    sim::HazardAnalyzer analyzer;

    std::vector<uint64_t> nets;
    std::vector<FifoRt> fifos;
    std::vector<std::vector<uint64_t>> arrays;
    std::vector<uint64_t> counters;
    std::vector<uint64_t> array_writes;  ///< committed writes per array
    std::vector<uint64_t> array_version; ///< bumped on every array mutation
    std::vector<ModStat> mod_stats;
    std::vector<ConeRt> cone_rt;        ///< parallel to nl.cones()
    std::vector<uint32_t> counter_stat; ///< CounterBlock -> mod_stats index
    std::vector<uint32_t> stat_of_mod;  ///< Module::id -> mod_stats index
    std::vector<std::vector<uint32_t>> stall_fifos; ///< per mod_stats index

    uint64_t cycle = 0;
    bool finished = false;
    uint64_t total_execs = 0;
    uint64_t total_events = 0;
    /**
     * Idle stages woken by a committed event: 0 -> >0 pending-counter
     * transitions observed at the counter commit. The same boundary
     * transition sim::Simulator counts in readyInsert (a stage is in
     * the ready set exactly when driver || pending > 0), so the value
     * aligns across backends and rides the shared "meta" section.
     */
    uint64_t stages_woken = 0;

    // Zero-progress window state; `poked` records external state writes
    // (testbench / fault-injection hooks), which reset the window.
    uint64_t quiet_cycles = 0;
    bool poked = false;
    bool hazard_flag = false;
    sim::RunStatus hazard_status = sim::RunStatus::kMaxCycles;
    sim::HazardReport hazard;

    std::vector<std::string> logs;
    HookList pre_hooks;
    HookList post_hooks;

    std::unique_ptr<sim::TraceRecorder> recorder;

    Impl(const Netlist &n, NetlistSimOptions o)
        : nl(n), opts(o), analyzer(n.sys())
    {
        // Interned from the shared System IR (never from netlist-private
        // FIFO indices), so the emitted file is byte-identical to the
        // event simulator's for the same design and seed.
        if (!opts.timeline_path.empty())
            recorder = std::make_unique<sim::TraceRecorder>(
                nl.sys(), opts.timeline_path, opts.timeline_events);
        nets.assign(nl.numNets(), 0);
        for (const auto &[net, value] : nl.constNets())
            nets[net] = value;
        fifos.resize(nl.fifos().size());
        for (size_t i = 0; i < fifos.size(); ++i) {
            fifos[i].buf.assign(nl.fifos()[i].depth, 0);
            fifos[i].occupancy.buckets.assign(nl.fifos()[i].depth + 1, 0);
        }
        arrays.reserve(nl.arrays().size());
        for (size_t i = 0; i < nl.arrays().size(); ++i)
            arrays.push_back(nl.arrays()[i].array->init());
        array_writes.assign(nl.arrays().size(), 0);
        array_version.assign(nl.arrays().size(), 0);
        counters.assign(nl.counters().size(), 0);

        counter_stat.assign(nl.counters().size(), 0);
        stat_of_mod.assign(nl.sys().modules().size(), 0);
        for (const Module *mod : nl.sys().topoOrder()) {
            ModStat st;
            st.mod = mod;
            st.exec_net = nl.execNet(mod);
            st.counter_idx = nl.counterIndex(mod);
            if (st.counter_idx >= 0)
                counter_stat[st.counter_idx] =
                    static_cast<uint32_t>(mod_stats.size());
            stat_of_mod[mod->id()] =
                static_cast<uint32_t>(mod_stats.size());
            mod_stats.push_back(st);
        }
        stall_fifos.resize(mod_stats.size());
        for (size_t m = 0; m < mod_stats.size(); ++m)
            for (const Port *p : analyzer.stallPorts(mod_stats[m].mod))
                stall_fifos[m].push_back(nl.fifoIndex(p));

        cone_rt.resize(nl.cones().size());
        for (size_t c = 0; c < cone_rt.size(); ++c) {
            cone_rt[c].sig.assign(nl.cones()[c].inputs.size(), 0);
            cone_rt[c].aver.assign(nl.cones()[c].arrays.size(), 0);
        }
    }

    ~Impl()
    {
        if (recorder)
            recorder->finish(cycle);
    }

    /**
     * One pass over the pre-decoded tape records [@p begin, @p end),
     * i.e. over the levelized cells of the same index range.
     */
    void
    runTape(uint32_t begin, uint32_t end)
    {
        const CellStep *s = nl.tape().data() + begin;
        const CellStep *const e = nl.tape().data() + end;
        uint64_t *const ns = nets.data();
        const std::vector<uint64_t> *const arr = arrays.data();
#if defined(__GNUC__) || defined(__clang__)
        // Threaded dispatch (computed goto), as in sim::Simulator's
        // runTape: each handler ends in its own indirect jump. The table
        // is indexed by CellStepOp and lists every opcode in
        // declaration order.
        static const void *const kJump[] = {
            &&op_kAnd, &&op_kOr, &&op_kXor, &&op_kAdd, &&op_kSub,
            &&op_kMul, &&op_kShl, &&op_kShrU, &&op_kShrS, &&op_kEq,
            &&op_kNe, &&op_kLtU, &&op_kLeU, &&op_kGtU, &&op_kGeU,
            &&op_kLtS, &&op_kLeS, &&op_kGtS, &&op_kGeS, &&op_kNot,
            &&op_kNeg, &&op_kRedOr, &&op_kRedAnd, &&op_kSlice,
            &&op_kConcat, &&op_kMux, &&op_kMask, &&op_kSExt,
            &&op_kArrayRead, &&op_kBinGeneric,
        };
        static_assert(std::size(kJump) ==
                          size_t(CellStepOp::kBinGeneric) + 1,
                      "jump table must cover every CellStepOp");
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
#else
        // Portable fallback: the same handler bodies under a switch.
#define ASSASSYN_OP(name) case CellStepOp::name
#define ASSASSYN_NEXT() break
        for (; s != e; ++s) {
            switch (static_cast<CellStepOp>(s->op)) {
#endif

        ASSASSYN_OP(kAnd):
            ns[s->out] = (ns[s->a] & ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kOr):
            ns[s->out] = (ns[s->a] | ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kXor):
            ns[s->out] = (ns[s->a] ^ ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kAdd):
            ns[s->out] = (ns[s->a] + ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSub):
            ns[s->out] = (ns[s->a] - ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMul):
            ns[s->out] = (ns[s->a] * ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kShl): {
            uint64_t sh = ns[s->b];
            ns[s->out] = (sh >= 64 ? 0 : ns[s->a] << sh) & s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kShrU): {
            uint64_t sh = ns[s->b];
            ns[s->out] = (sh >= 64 ? 0 : ns[s->a] >> sh) & s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kShrS): {
            int64_t sa = int64_t(ns[s->a] << s->x8) >> s->x8;
            uint64_t sh = ns[s->b];
            ns[s->out] =
                uint64_t(sh >= 64 ? (sa < 0 ? -1 : 0) : sa >> sh) &
                s->u.mask;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kEq):
            ns[s->out] = ns[s->a] == ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNe):
            ns[s->out] = ns[s->a] != ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtU):
            ns[s->out] = ns[s->a] < ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeU):
            ns[s->out] = ns[s->a] <= ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtU):
            ns[s->out] = ns[s->a] > ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeU):
            ns[s->out] = ns[s->a] >= ns[s->b];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLtS):
            ns[s->out] = (int64_t(ns[s->a] << s->x8) >> s->x8) <
                         (int64_t(ns[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kLeS):
            ns[s->out] = (int64_t(ns[s->a] << s->x8) >> s->x8) <=
                         (int64_t(ns[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGtS):
            ns[s->out] = (int64_t(ns[s->a] << s->x8) >> s->x8) >
                         (int64_t(ns[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kGeS):
            ns[s->out] = (int64_t(ns[s->a] << s->x8) >> s->x8) >=
                         (int64_t(ns[s->b] << s->x8) >> s->x8);
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNot):
            ns[s->out] = ~ns[s->a] & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kNeg):
            ns[s->out] = (~ns[s->a] + 1) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kRedOr):
            ns[s->out] = ns[s->a] != 0;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kRedAnd):
            ns[s->out] = ns[s->a] == s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSlice):
            ns[s->out] = (ns[s->a] >> s->x8) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kConcat):
            ns[s->out] = ((ns[s->a] << s->x8) | ns[s->b]) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMux):
            ns[s->out] = ns[s->a] ? ns[s->b] : ns[s->u.ca.c];
            ASSASSYN_NEXT();
        ASSASSYN_OP(kMask):
            ns[s->out] = ns[s->a] & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kSExt):
            ns[s->out] =
                uint64_t(int64_t(ns[s->a] << s->x8) >> s->x8) & s->u.mask;
            ASSASSYN_NEXT();
        ASSASSYN_OP(kArrayRead): {
            const std::vector<uint64_t> &data = arr[s->u.ca.aux];
            uint64_t idx = ns[s->a];
            ns[s->out] = idx < data.size() ? data[idx] : 0;
            ASSASSYN_NEXT();
        }
        ASSASSYN_OP(kBinGeneric):
            ns[s->out] = ops::evalBin(
                static_cast<BinOpcode>(s->x8), ns[s->a], ns[s->b],
                s->u.ca.c, s->x16 != 0, s->u.ca.aux);
            ASSASSYN_NEXT();

#if !(defined(__GNUC__) || defined(__clang__))
            }
        }
#endif
#undef ASSASSYN_OP
#undef ASSASSYN_NEXT
    }

    /**
     * Evaluate the combinational logic for this cycle: exactly one pass
     * over the levelized cell list — no settle loop. With cone metadata
     * available, a stage whose exec_valid was low at its last evaluation
     * and whose external inputs (state nets, cross-cone wires, read
     * arrays) are unchanged is skipped outright: its cells are pure
     * functions of those inputs, so every output net already holds the
     * value this pass would recompute.
     */
    void
    evalCells()
    {
        const auto &cones = nl.cones();
        if (cones.empty()) {
            // Reordered (non-creation-order) netlist: no cone ranges;
            // run the whole tape.
            runTape(0, static_cast<uint32_t>(nl.tape().size()));
            return;
        }
        for (size_t c = 0; c < cones.size(); ++c) {
            const Cone &cone = cones[c];
            ConeRt &rt = cone_rt[c];
            if (rt.valid && !nets[cone.exec_net]) {
                bool same = true;
                for (size_t k = 0; k < cone.inputs.size(); ++k) {
                    if (nets[cone.inputs[k]] != rt.sig[k]) {
                        same = false;
                        break;
                    }
                }
                if (same) {
                    for (size_t k = 0; k < cone.arrays.size(); ++k) {
                        if (array_version[cone.arrays[k]] != rt.aver[k]) {
                            same = false;
                            break;
                        }
                    }
                }
                if (same)
                    continue; // outputs already correct
            }
            runTape(cone.begin, cone.end);
            rt.valid = true;
            for (size_t k = 0; k < cone.inputs.size(); ++k)
                rt.sig[k] = nets[cone.inputs[k]];
            for (size_t k = 0; k < cone.arrays.size(); ++k)
                rt.aver[k] = array_version[cone.arrays[k]];
        }
    }

    void
    step()
    {
        if (recorder)
            recorder->beginCycle(cycle);
        pre_hooks.fire(cycle);

        // Drive state-derived nets: FIFO pop interfaces and event-pending
        // flags, all functions of sequential state at the clock edge.
        for (size_t i = 0; i < fifos.size(); ++i) {
            const FifoBlock &blk = nl.fifos()[i];
            nets[blk.pop_data] = fifos[i].peek();
            nets[blk.pop_valid] = fifos[i].count > 0;
            if (blk.full != kNoNet)
                nets[blk.full] = fifos[i].count == fifos[i].buf.size();
        }
        for (size_t i = 0; i < counters.size(); ++i)
            nets[nl.counters()[i].nonzero] = counters[i] > 0;

        // Single-pass combinational evaluation over the levelized cells
        // (with per-stage activity gating) — the precompiled static
        // schedule that replaces the old sweep-until-settled loop.
        evalCells();

        // Per-stage accounting, from the settled exec_valid nets. This
        // is the same classification the event-driven simulator makes in
        // its phase 1 (executed / spinning on wait_until / idle), so the
        // counters align bit for bit. A pending stage whose exec_valid
        // is held low by a full kStallProducer FIFO additionally counts
        // as backpressure-stalled, charged both to the stage and to each
        // full gating FIFO — exactly the event simulator's accounting.
        for (size_t m = 0; m < mod_stats.size(); ++m) {
            ModStat &st = mod_stats[m];
            st.bp_stalled = false;
            bool pending = st.counter_idx < 0 ||
                           counters[st.counter_idx] > 0;
            sim::StageActivity act = sim::StageActivity::kIdle;
            if (nets[st.exec_net]) {
                ++st.execs;
                ++total_execs;
                act = sim::StageActivity::kExec;
            } else if (pending) {
                ++st.wait_spins;
                bool full_stall = false;
                for (uint32_t fid : stall_fifos[m]) {
                    if (fifos[fid].count == fifos[fid].buf.size()) {
                        full_stall = true;
                        ++fifos[fid].stall_cycles;
                    }
                }
                if (full_stall) {
                    st.bp_stalled = true;
                    ++st.bp_stalls;
                }
                act = full_stall ? sim::StageActivity::kBackpressure
                                 : sim::StageActivity::kWaitSpin;
            } else {
                ++st.idle_cycles;
            }
            if (recorder) {
                // The same four-way classification the event simulator
                // makes from its phase-1 flags, so the coalesced
                // activity spans align event for event.
                recorder->stageActivity(st.mod, act);
                if (nets[st.exec_net] && st.mod->isGenerated())
                    recorder->grant(st.mod);
            }
        }

        // Testbench monitors, in elaboration (topological) order.
        bool finish_req = false;
        for (const MonitorBlock &mon : nl.monitors()) {
            if (!nets[mon.enable])
                continue;
            switch (mon.kind) {
              case MonitorBlock::Kind::kLog:
                emitLog(mon);
                break;
              case MonitorBlock::Kind::kAssert:
                if (!nets[mon.args[0]])
                    fatal("cycle ", cycle, ": assertion failed: ",
                          static_cast<const AssertInst *>(mon.inst)->msg());
                break;
              case MonitorBlock::Kind::kFinish:
                finish_req = true;
                break;
            }
        }

        // Sequential commit at the clock edge: FIFOs dequeue then enqueue
        // (the penetrable stage buffer of Sec. 5.2), arrays apply their
        // one-hot-gathered write, counters add activations and subtract
        // the clear. `progress` records any committed architectural
        // state change this cycle — the watchdog's definition of
        // forward progress, shared with the event simulator.
        bool progress = false;
        for (size_t i = 0; i < fifos.size(); ++i) {
            const FifoBlock &blk = nl.fifos()[i];
            FifoRt &rt = fifos[i];
            bool deq = false;
            for (uint32_t en : blk.deq_enables)
                deq |= nets[en] != 0;
            if (deq && rt.count) {
                rt.head = (rt.head + 1) % rt.buf.size();
                --rt.count;
                ++rt.pops;
                if (recorder)
                    recorder->pop(blk.port);
                progress = true;
            }
            int pushes = 0;
            uint64_t data = 0;
            const Module *push_src = nullptr;
            for (const PushSite &site : blk.pushes) {
                if (nets[site.enable]) {
                    ++pushes;
                    data = nets[site.data];
                    push_src = site.origin;
                }
            }
            if (pushes > 1)
                fatal("cycle ", cycle, ": multiple pushes to FIFO '",
                      blk.port->fullName(), "' in one cycle");
            if (pushes == 1) {
                if (rt.count == rt.buf.size()) {
                    if (blk.port->policy() == FifoPolicy::kDropNewest) {
                        ++rt.drops;
                    } else {
                        // kAbort (kStallProducer cannot reach here: its
                        // ~full gate holds every producer's exec_valid
                        // low while the FIFO is full).
                        fatal("cycle ", cycle, ": FIFO overflow on '",
                              blk.port->fullName(), "' (occupancy ",
                              rt.count, "/", rt.buf.size(),
                              "; push from stage '",
                              push_src ? push_src->name() : "?",
                              "'); tune fifo_depth or set a "
                              "backpressure policy");
                    }
                } else {
                    rt.buf[(rt.head + rt.count) % rt.buf.size()] =
                        truncate(data, blk.width);
                    ++rt.count;
                    ++rt.pushes;
                    if (recorder)
                        recorder->push(blk.port, push_src);
                    progress = true;
                }
            }
            // End-of-cycle occupancy sample, the instant the event
            // simulator samples too.
            rt.occupancy.record(rt.count);
        }
        for (size_t i = 0; i < arrays.size(); ++i) {
            const ArrayBlock &blk = nl.arrays()[i];
            int writes = 0;
            uint64_t idx = 0, data = 0;
            for (const WriteSite &site : blk.writes) {
                if (nets[site.enable]) {
                    ++writes;
                    idx = nets[site.index];
                    data = nets[site.data];
                }
            }
            if (writes > 1)
                fatal("cycle ", cycle, ": register array '",
                      blk.array->name(), "' written twice in one cycle");
            if (writes == 1) {
                if (idx >= arrays[i].size())
                    fatal("cycle ", cycle, ": out-of-range write to '",
                          blk.array->name(), "[", idx, "]'");
                arrays[i][idx] =
                    truncate(data, blk.array->elemType().bits());
                ++array_writes[i];
                ++array_version[i];
                progress = true;
            }
        }
        for (size_t i = 0; i < counters.size(); ++i) {
            const CounterBlock &blk = nl.counters()[i];
            uint64_t inc = 0;
            for (uint32_t en : blk.incs)
                inc += nets[en] ? 1 : 0;
            ModStat &st = mod_stats[counter_stat[i]];
            st.events_in += inc;
            total_events += inc;
            if (inc)
                progress = true;
            uint64_t next = counters[i] + inc - (nets[blk.dec] ? 1 : 0);
            if (next > opts.max_pending_events) {
                if (!opts.saturate_events)
                    fatal("cycle ", cycle,
                          ": event counter overflow on stage '",
                          blk.mod->name(), "' (", next,
                          " pending events > bound ",
                          opts.max_pending_events,
                          "); enable saturate_events or throttle callers");
                // The bounded hardware counter saturates; drops counted.
                st.saturations += next - opts.max_pending_events;
                next = opts.max_pending_events;
            }
            // Wake: the stage had no pending event at the last boundary
            // and has one now. When counters[i] == 0 the exec net was
            // necessarily low this cycle, so the decrement is 0 and the
            // transition is exactly inc > 0 on an empty counter.
            if (counters[i] == 0 && next > 0)
                ++stages_woken;
            counters[i] = next;
        }
        for (const ModStat &st : mod_stats) {
            if (nets[st.exec_net] && !st.mod->isDriver())
                progress = true;
        }

        post_hooks.fire(cycle);
        checkWatchdog(progress);
        if (recorder)
            recorder->endCycle();
        ++cycle;
        if (finish_req)
            finished = true;
    }

    /**
     * Post-commit pending count of a stage (0 for drivers), the value
     * the shared HazardAnalyzer expects.
     */
    uint64_t
    pendingOf(const ModStat &st) const
    {
        return st.counter_idx < 0 ? 0 : counters[st.counter_idx];
    }

    /** Shared wait-for-graph diagnosis over the current netlist state. */
    sim::HazardReport
    analyzeNow(uint64_t window) const
    {
        return analyzer.analyze(
            cycle, window,
            [&](const Module *m) {
                return nets[mod_stats[stat_of_mod[m->id()]].exec_net] != 0;
            },
            [&](const Module *m) {
                return pendingOf(mod_stats[stat_of_mod[m->id()]]);
            },
            [&](const Port *p) {
                return uint64_t(fifos[nl.fifoIndex(p)].count);
            });
    }

    /**
     * The zero-progress watchdog, in lockstep with
     * sim::Simulator::Impl::checkWatchdog: same progress definition,
     * same blocked predicate, same trigger cycle — so the resulting
     * report is byte-identical across backends.
     */
    void
    checkWatchdog(bool progress)
    {
        if (!opts.watchdog_window || hazard_flag)
            return;
        if (poked) {
            progress = true;
            poked = false;
        }
        bool blocked = false;
        for (const ModStat &st : mod_stats)
            blocked |= st.bp_stalled ||
                       (!st.mod->isDriver() && pendingOf(st) > 0 &&
                        !nets[st.exec_net]);
        if (progress || !blocked) {
            quiet_cycles = 0;
            return;
        }
        if (++quiet_cycles < opts.watchdog_window)
            return;
        hazard = analyzeNow(quiet_cycles);
        hazard_status = hazard.kind == "livelock"
                            ? sim::RunStatus::kLivelock
                            : sim::RunStatus::kDeadlock;
        hazard_flag = true;
        if (recorder)
            recorder->hazard(hazard);
    }


    void
    emitLog(const MonitorBlock &mon)
    {
        if (!opts.capture_logs)
            return;
        const auto *lg = static_cast<const Log *>(mon.inst);
        std::ostringstream os;
        const std::string &fmt = lg->fmt();
        size_t arg = 0;
        for (size_t i = 0; i < fmt.size(); ++i) {
            if (i + 1 < fmt.size() && fmt[i] == '{' && fmt[i + 1] == '}') {
                Value *v = lg->args()[arg];
                uint64_t raw = nets[mon.args[arg]];
                if (v->type().isSigned())
                    os << v->type().asSigned(raw);
                else
                    os << raw;
                ++arg;
                ++i;
            } else {
                os << fmt[i];
            }
        }
        logs.push_back(os.str());
    }
};

NetlistSim::NetlistSim(const Netlist &nl, NetlistSimOptions opts)
    : impl_(std::make_unique<Impl>(nl, opts))
{}

NetlistSim::~NetlistSim() = default;

sim::RunResult
NetlistSim::run(uint64_t max_cycles)
{
    Impl &im = *impl_;
    // A netlist with a residual combinational cycle has no valid
    // evaluation order: refuse to run it, returning the structured
    // diagnostic naming the offending cells instead of sweeping
    // toward a convergence that cannot happen.
    if (!im.nl.levelized()) {
        sim::RunResult res;
        res.status = sim::RunStatus::kFault;
        res.error = im.nl.combCycleDiag();
        res.cycles = 0;
        return res;
    }
    uint64_t start = im.cycle;
    sim::RunResult res;
    try {
        while (!im.finished && !im.hazard_flag &&
               im.cycle - start < max_cycles)
            im.step();
    } catch (const FatalError &err) {
        // A simulated-design fault: report it structurally, exactly as
        // the event simulator does. Toolchain bugs (InternalError)
        // still propagate.
        res.status = sim::RunStatus::kFault;
        res.error = err.what();
        res.cycles = im.cycle - start;
        // Best-effort post-mortem timeline: close every open interval
        // at the faulting cycle and write the file now, so the trace
        // survives even if the NetlistSim object is kept alive.
        if (im.recorder)
            im.recorder->finish(im.cycle);
        return res;
    }
    res.cycles = im.cycle - start;
    if (im.finished) {
        res.status = sim::RunStatus::kFinished;
    } else if (im.hazard_flag) {
        res.status = im.hazard_status;
        res.hazard = im.hazard;
    } else {
        res.status = sim::RunStatus::kMaxCycles;
        // Best-effort diagnosis of who was blocked when the budget ran
        // out; `kind` is advisory here (status stays kMaxCycles).
        res.hazard = im.analyzeNow(im.quiet_cycles);
        res.hazard.kind.clear();
    }
    return res;
}

bool NetlistSim::finished() const { return impl_->finished; }
uint64_t NetlistSim::cycle() const { return impl_->cycle; }

uint64_t
NetlistSim::readArray(const RegArray *array, size_t index) const
{
    const auto &data = impl_->arrays.at(array->id());
    if (index >= data.size())
        fatal("readArray: index out of range for '", array->name(), "'");
    return data[index];
}

void
NetlistSim::writeArray(const RegArray *array, size_t index, uint64_t value)
{
    auto &data = impl_->arrays.at(array->id());
    if (index >= data.size())
        fatal("writeArray: index out of range for '", array->name(), "'");
    data[index] = truncate(value, array->elemType().bits());
    ++impl_->array_version[array->id()]; // invalidate gated reader cones
    impl_->poked = true; // external state change: reset the watchdog
}

uint64_t
NetlistSim::fifoOccupancy(const Port *port) const
{
    return impl_->fifos.at(impl_->nl.fifoIndex(port)).count;
}

uint64_t
NetlistSim::readFifo(const Port *port, size_t pos) const
{
    const FifoRt &f = impl_->fifos.at(impl_->nl.fifoIndex(port));
    if (pos >= f.count)
        fatal("readFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    return f.buf[(f.head + pos) % f.buf.size()];
}

void
NetlistSim::writeFifo(const Port *port, size_t pos, uint64_t value)
{
    FifoRt &f = impl_->fifos.at(impl_->nl.fifoIndex(port));
    if (pos >= f.count)
        fatal("writeFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    f.buf[(f.head + pos) % f.buf.size()] =
        truncate(value, port->type().bits());
    impl_->poked = true;
}

const std::vector<std::string> &
NetlistSim::logOutput() const
{
    return impl_->logs;
}

uint64_t
NetlistSim::netValue(uint32_t net) const
{
    return impl_->nets.at(net);
}

sim::StageCounters
NetlistSim::stageCounters(const Module *mod) const
{
    const ModStat &st =
        impl_->mod_stats[impl_->stat_of_mod.at(mod->id())];
    sim::StageCounters c;
    c.execs = st.execs;
    c.wait_spins = st.wait_spins;
    c.idle_cycles = st.idle_cycles;
    c.events_in = st.events_in;
    c.backpressure_stalls = st.bp_stalls;
    c.pending = impl_->pendingOf(st);
    return c;
}

sim::FifoTraffic
NetlistSim::fifoTraffic(const Port *port) const
{
    const FifoRt &f = impl_->fifos.at(impl_->nl.fifoIndex(port));
    return sim::FifoTraffic{f.pushes, f.pops, f.drops, f.stall_cycles};
}

uint64_t
NetlistSim::arrayWrites(const RegArray *array) const
{
    return impl_->array_writes.at(array->id());
}

sim::MetricsRegistry
NetlistSim::metrics() const
{
    using sim::arrayKey;
    using sim::fifoKey;
    using sim::stageKey;
    sim::MetricsRegistry reg;
    reg.set("cycles", impl_->cycle);
    reg.set("total.executions", impl_->total_execs);
    reg.set("total.events", impl_->total_events);
    uint64_t skipped = 0;
    for (const ModStat &st : impl_->mod_stats) {
        reg.set(stageKey(*st.mod, "execs"), st.execs);
        reg.set(stageKey(*st.mod, "wait_spins"), st.wait_spins);
        reg.set(stageKey(*st.mod, "idle_cycles"), st.idle_cycles);
        reg.set(stageKey(*st.mod, "events_in"), st.events_in);
        reg.set(stageKey(*st.mod, "event_saturations"), st.saturations);
        reg.set(stageKey(*st.mod, "backpressure_stalls"), st.bp_stalls);
        skipped += st.idle_cycles;
    }
    // Scheduler health, in lockstep with sim::Simulator::metrics():
    // both counters are architectural quantities (sim/metrics.h), so
    // the netlist values equal the event engine's.
    reg.set("sched.executions", impl_->total_execs);
    reg.set("sched.events_skipped", skipped);
    reg.set("sched.stages_woken", impl_->stages_woken);
    for (size_t i = 0; i < impl_->fifos.size(); ++i) {
        const Port &port = *impl_->nl.fifos()[i].port;
        const FifoRt &rt = impl_->fifos[i];
        reg.set(fifoKey(port, "pushes"), rt.pushes);
        reg.set(fifoKey(port, "pops"), rt.pops);
        reg.set(fifoKey(port, "high_water"), rt.occupancy.high_water);
        reg.set(fifoKey(port, "drops"), rt.drops);
        reg.set(fifoKey(port, "stall_cycles"), rt.stall_cycles);
        reg.histogram(fifoKey(port, "occupancy")) = rt.occupancy;
    }
    for (size_t i = 0; i < impl_->nl.arrays().size(); ++i)
        reg.set(arrayKey(*impl_->nl.arrays()[i].array, "writes"),
                impl_->array_writes[i]);
    // Dropped-span accounting, in lockstep with sim::Simulator: the
    // recorder state is deterministic, so these keys align too.
    if (const sim::TraceRecorder *rec = impl_->recorder.get()) {
        reg.set("trace.events", rec->eventsRecorded());
        reg.set("trace.dropped_events", rec->eventsDropped());
    }
    return reg;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore. Section layouts mirror simulator.cc byte for
// byte (that file is the canonical definition): the same System IR
// ordering, the same field sequence, the same entry normalization —
// which is what makes a netlist snapshot restorable by the event
// engine and vice versa (tests/ckpt_test.cc pins the byte identity).
// ---------------------------------------------------------------------------

sim::Snapshot
NetlistSim::snapshot() const
{
    const Impl &im = *impl_;
    const System &sys = im.nl.sys();
    if (im.hazard_flag)
        fatal("snapshot: the run of '", sys.name(),
              "' already ended with a ",
              sim::runStatusName(im.hazard_status), " verdict at cycle ",
              im.cycle, "; verdict runs are not resumable");
    sim::Snapshot snap;
    snap.design = sys.name();
    snap.engine = "netlist";
    snap.cycle = im.cycle;
    {
        sim::ByteWriter w;
        w.u64(im.cycle);
        w.u8(im.finished ? 1 : 0);
        // The event engine's finish_pending; at a cycle boundary it
        // always equals finished on both engines.
        w.u8(im.finished ? 1 : 0);
        w.u64(im.quiet_cycles);
        w.u8(im.poked ? 1 : 0);
        w.u64(im.total_execs);
        w.u64(im.total_events);
        w.u64(im.stages_woken);
        snap.add("meta", w.take());
    }
    {
        sim::ByteWriter w;
        w.u32(uint32_t(im.arrays.size()));
        for (const auto &arr : sys.arrays()) {
            const std::vector<uint64_t> &data = im.arrays[arr->id()];
            w.u32(uint32_t(data.size()));
            w.u64s(data.data(), data.size());
            w.u64(im.array_writes[arr->id()]);
        }
        snap.add("arrays", w.take());
    }
    {
        sim::ByteWriter w;
        w.u32(uint32_t(im.fifos.size()));
        for (const auto &mod : sys.modules()) {
            for (const auto &port : mod->ports()) {
                const FifoRt &f = im.fifos[im.nl.fifoIndex(port.get())];
                w.u32(uint32_t(f.buf.size()));
                w.u32(f.count);
                for (uint32_t i = 0; i < f.count; ++i)
                    w.u64(f.buf[(f.head + i) % f.buf.size()]);
                w.u64(f.pushes);
                w.u64(f.pops);
                w.u64(f.drops);
                w.u64(f.stall_cycles);
                w.u64(f.occupancy.high_water);
                w.u64(f.occupancy.samples);
                w.vec64(f.occupancy.buckets);
            }
        }
        snap.add("fifos", w.take());
    }
    {
        sim::ByteWriter w;
        w.u32(uint32_t(im.mod_stats.size()));
        for (const auto &mod : sys.modules()) {
            const ModStat &st = im.mod_stats[im.stat_of_mod[mod->id()]];
            w.u64(im.pendingOf(st));
            w.u64(st.execs);
            w.u64(st.wait_spins);
            w.u64(st.idle_cycles);
            w.u64(st.events_in);
            w.u64(st.saturations);
            w.u64(st.bp_stalls);
        }
        snap.add("mods", w.take());
    }
    {
        sim::ByteWriter w;
        w.u32(uint32_t(im.logs.size()));
        for (const std::string &line : im.logs)
            w.str(line);
        snap.add("logs", w.take());
    }
    if (im.recorder) {
        sim::ByteWriter w;
        im.recorder->serialize(w);
        snap.add("trace", w.take());
    }
    return snap;
}

void
NetlistSim::restore(const sim::Snapshot &snap)
{
    Impl &im = *impl_;
    const System &sys = im.nl.sys();
    if (snap.design != sys.name())
        fatal("checkpoint: snapshot of design '", snap.design,
              "' cannot restore into a run of '", sys.name(), "'");
    {
        sim::ByteReader r = snap.reader("meta");
        im.cycle = r.u64();
        im.finished = r.flag();
        r.flag(); // finish_pending: equals finished at every boundary
        im.quiet_cycles = r.u64();
        im.poked = r.flag();
        im.total_execs = r.u64();
        im.total_events = r.u64();
        im.stages_woken = r.u64();
        r.expectEnd();
    }
    if (im.cycle != snap.cycle)
        fatal("checkpoint: header cycle ", snap.cycle,
              " disagrees with section 'meta' cycle ", im.cycle);
    {
        sim::ByteReader r = snap.reader("arrays");
        uint32_t count = r.u32();
        if (count != im.arrays.size())
            fatal("checkpoint: section 'arrays' carries ", count,
                  " array(s), design '", sys.name(), "' has ",
                  im.arrays.size());
        for (const auto &arr : sys.arrays()) {
            std::vector<uint64_t> &data = im.arrays[arr->id()];
            uint32_t size = r.u32();
            if (size != data.size())
                fatal("checkpoint: array '", arr->name(), "' has ", size,
                      " element(s) in the snapshot, ", data.size(),
                      " in the design");
            r.u64s(data.data(), data.size());
            im.array_writes[arr->id()] = r.u64();
            im.array_version[arr->id()] = 0;
        }
        r.expectEnd();
    }
    {
        sim::ByteReader r = snap.reader("fifos");
        uint32_t count = r.u32();
        if (count != im.fifos.size())
            fatal("checkpoint: section 'fifos' carries ", count,
                  " FIFO(s), design '", sys.name(), "' has ",
                  im.fifos.size());
        for (const auto &mod : sys.modules()) {
            for (const auto &port : mod->ports()) {
                FifoRt &f = im.fifos[im.nl.fifoIndex(port.get())];
                uint32_t depth = r.u32();
                if (depth != f.buf.size())
                    fatal("checkpoint: FIFO '", port->fullName(),
                          "' has depth ", depth, " in the snapshot, ",
                          f.buf.size(), " in the design");
                uint32_t occ = r.u32();
                if (occ > depth)
                    fatal("checkpoint: FIFO '", port->fullName(),
                          "' claims occupancy ", occ, " above depth ",
                          depth);
                std::fill(f.buf.begin(), f.buf.end(), 0);
                f.head = 0;
                f.count = occ;
                for (uint32_t i = 0; i < occ; ++i)
                    f.buf[i] = r.u64();
                f.pushes = r.u64();
                f.pops = r.u64();
                f.drops = r.u64();
                f.stall_cycles = r.u64();
                f.occupancy.high_water = r.u64();
                f.occupancy.samples = r.u64();
                std::vector<uint64_t> buckets =
                    r.vec64(f.occupancy.buckets.size());
                if (buckets.size() != f.occupancy.buckets.size())
                    fatal("checkpoint: FIFO '", port->fullName(),
                          "' occupancy histogram has ", buckets.size(),
                          " bucket(s), expected ",
                          f.occupancy.buckets.size());
                f.occupancy.buckets = std::move(buckets);
            }
        }
        r.expectEnd();
    }
    {
        sim::ByteReader r = snap.reader("mods");
        uint32_t count = r.u32();
        if (count != im.mod_stats.size())
            fatal("checkpoint: section 'mods' carries ", count,
                  " module(s), design '", sys.name(), "' has ",
                  im.mod_stats.size());
        for (const auto &mod : sys.modules()) {
            ModStat &st = im.mod_stats[im.stat_of_mod[mod->id()]];
            uint64_t pending = r.u64();
            if (st.counter_idx >= 0)
                im.counters[st.counter_idx] = pending;
            else if (pending != 0)
                fatal("checkpoint: stage '", mod->name(),
                      "' has no event counter but the snapshot claims ",
                      pending, " pending event(s)");
            st.execs = r.u64();
            st.wait_spins = r.u64();
            st.idle_cycles = r.u64();
            st.events_in = r.u64();
            st.saturations = r.u64();
            st.bp_stalls = r.u64();
            st.bp_stalled = false;
        }
        r.expectEnd();
    }
    {
        sim::ByteReader r = snap.reader("logs");
        uint32_t count = r.u32();
        im.logs.clear();
        for (uint32_t i = 0; i < count; ++i)
            im.logs.push_back(r.str(size_t(1) << 20));
        r.expectEnd();
    }
    // Nets are cycle-transient: step() re-drives every state-derived
    // net before evaluation. Zero them, re-apply elaborated constants,
    // and invalidate every activity-gating cone so the first resumed
    // cycle evaluates from the restored sequential state.
    std::fill(im.nets.begin(), im.nets.end(), 0);
    for (const auto &[net, value] : im.nl.constNets())
        im.nets[net] = value;
    for (ConeRt &rt : im.cone_rt) {
        rt.valid = false;
        std::fill(rt.sig.begin(), rt.sig.end(), 0);
        std::fill(rt.aver.begin(), rt.aver.end(), 0);
    }
    im.hazard_flag = false;
    im.hazard_status = sim::RunStatus::kMaxCycles;
    im.hazard = sim::HazardReport{};
    if (im.recorder && snap.find("trace")) {
        sim::ByteReader r = snap.reader("trace");
        im.recorder->deserialize(r);
        r.expectEnd();
    }
}

void
NetlistSim::addPreCycleHook(CycleHook hook)
{
    impl_->pre_hooks.add(std::move(hook));
}

void
NetlistSim::addPostCycleHook(CycleHook hook)
{
    impl_->post_hooks.add(std::move(hook));
}

sim::TraceRecorder *
NetlistSim::traceRecorder() const
{
    return impl_->recorder.get();
}

} // namespace rtl
} // namespace assassyn
