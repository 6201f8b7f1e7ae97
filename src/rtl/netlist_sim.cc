#include "rtl/netlist_sim.h"

#include <iterator>

#include "rtl/compiled_netlist.h"
#include "support/bits.h"
#include "support/logging.h"

namespace assassyn {
namespace rtl {

namespace {

/** Where one stage lives in the netlist, in topological order. */
struct StageView {
    uint32_t mid = 0;       ///< Module::id (RunState stage index)
    uint32_t exec_net = 0;  ///< exec_valid (pending & wait_cond & ~full)
    bool driver = false;    ///< no event counter
    std::vector<uint32_t> stall_fifos; ///< RunState FIFO ids gating it
};

} // namespace

struct NetlistSim::Impl {
    sim::RunState &st;
    const Netlist &nl;

    std::vector<uint64_t> nets;
    std::vector<StageView> views;      ///< topological order
    std::vector<uint32_t> block_fifo;  ///< FifoBlock -> RunState FIFO id
    std::vector<uint32_t> counter_mod; ///< CounterBlock -> Module::id

    Impl(NetlistSim &owner, const Netlist &n)
        : st(owner.st_), nl(n)
    {
        nets.assign(nl.numNets(), 0);
        for (const auto &[net, value] : nl.constNets())
            nets[net] = value;
        for (const FifoBlock &blk : nl.fifos())
            block_fifo.push_back(st.fifoIndex(blk.port));
        for (const CounterBlock &blk : nl.counters())
            counter_mod.push_back(blk.mod->id());
        for (const Module *mod : nl.sys().topoOrder()) {
            StageView v;
            v.mid = mod->id();
            v.exec_net = nl.execNet(mod);
            v.driver = nl.counterIndex(mod) < 0;
            for (const Port *p : nl.analyzer().stallPorts(mod))
                v.stall_fifos.push_back(st.fifoIndex(p));
            views.push_back(std::move(v));
        }
    }

    /**
     * One pass over the whole pre-decoded tape, i.e. over every
     * levelized cell in order. The handlers are generated from the
     * event engine's own rows (ASSASSYN_PURE_HANDLERS, sim/tape.h).
     */
    void
    runTape()
    {
        const sim::DStep *s = nl.tape().data();
        const sim::DStep *const e = s + nl.tape().size();
        uint64_t *const v = nets.data();
        const sim::RunState::Array *const ast = st.arrays.data();
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
     * Evaluate the combinational logic for this cycle: exactly one pass
     * over every levelized cell, no settle loop and nothing skipped,
     * as an RTL simulator does. A compiled netlist (Netlist::compiled())
     * calls each cone's generated function in order; the cones tile the
     * tape, so that is the same pass the interpreter makes.
     */
    void
    evalCells()
    {
        if (const CompiledNetlist *cn = nl.compiled()) {
            for (size_t c = 0; c < cn->num_cones; ++c)
                cn->cone_fns[c](nets.data(), st.arrays.data());
        } else {
            runTape();
        }
    }

    /**
     * Evaluate and commit one cycle: the netlist engine's step of the
     * shared cycle frame (sim::Engine::runCycleFrames).
     */
    sim::CycleOutcome
    step()
    {
        sim::RunState &rs = st;
        const uint64_t cycle = rs.cycle;

        // Drive state-derived nets: FIFO pop interfaces and event-pending
        // flags, all functions of sequential state at the clock edge.
        sim::RunState::Fifo *const fifos = rs.fifos.data();
        sim::RunState::Stage *const stages = rs.stages.data();
        const uint64_t *const fa = rs.fifo_arena.data();
        for (size_t i = 0; i < block_fifo.size(); ++i) {
            const FifoBlock &blk = nl.fifos()[i];
            const sim::RunState::Fifo &f = fifos[block_fifo[i]];
            nets[blk.pop_data] = f.count ? fa[f.base + f.head] : 0;
            nets[blk.pop_valid] = f.count > 0;
            if (blk.full != kNoNet)
                nets[blk.full] = f.count == f.depth;
        }
        for (size_t i = 0; i < counter_mod.size(); ++i)
            nets[nl.counters()[i].nonzero] = stages[counter_mod[i]].pending > 0;

        // Single-pass combinational evaluation over the levelized cells
        // — the precompiled static schedule that replaces the old
        // sweep-until-settled loop.
        evalCells();

        // Per-stage accounting, from the settled exec_valid nets,
        // published into RunState: the same classification the
        // event-driven simulator makes in its phase 1 (executed /
        // spinning on wait_until / idle). A pending stage whose
        // exec_valid is held low by a full kStallProducer FIFO
        // additionally counts as backpressure-stalled, charged both to
        // the stage and to each full gating FIFO.
        const uint64_t stamp = cycle + 1;
        for (const StageView &v : views) {
            sim::RunState::Stage &stg = stages[v.mid];
            stg.stamp = stamp;
            if (nets[v.exec_net]) {
                ++stg.execs;
                ++rs.total_execs;
                stg.act = sim::StageActivity::kExec;
            } else if (v.driver || stg.pending > 0) {
                ++stg.wait_spins;
                bool bp = false;
                for (uint32_t fid : v.stall_fifos) {
                    if (fifos[fid].count == fifos[fid].depth) {
                        bp = true;
                        ++fifos[fid].stall_cycles;
                    }
                }
                if (bp)
                    ++stg.bp_stalls;
                stg.act = bp ? sim::StageActivity::kBackpressure
                             : sim::StageActivity::kWaitSpin;
            } else {
                ++stg.idle_cycles;
                stg.act = sim::StageActivity::kIdle;
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
                    rs.assertFailed(*static_cast<const AssertInst *>(mon.inst));
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
        // forward progress.
        bool progress = false;
        for (size_t i = 0; i < block_fifo.size(); ++i) {
            const FifoBlock &blk = nl.fifos()[i];
            bool deq = false;
            for (uint32_t en : blk.deq_enables)
                deq |= nets[en] != 0;
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
                rs.multiplePushes(block_fifo[i]);
            progress |= rs.commitFifo(block_fifo[i], deq, pushes == 1,
                                      truncate(data, blk.width), push_src);
        }
        for (size_t i = 0; i < nl.arrays().size(); ++i) {
            const ArrayBlock &blk = nl.arrays()[i];
            sim::RunState::Array &a = rs.arrays[i];
            int writes = 0;
            uint64_t idx = 0, data = 0;
            for (const WriteSite &site : blk.writes) {
                if (nets[site.enable]) {
                    idx = nets[site.index];
                    data = nets[site.data];
                    // Range before count, as the event engine's
                    // kArrayWrite checks it.
                    if (idx >= a.size || ++writes > 1)
                        rs.badArrayWrite(uint32_t(i), idx);
                }
            }
            if (writes == 1) {
                a.data[idx] =
                    truncate(data, blk.array->elemType().bits());
                ++a.writes;
                progress = true;
            }
        }
        for (size_t i = 0; i < counter_mod.size(); ++i) {
            const CounterBlock &blk = nl.counters()[i];
            uint64_t inc = 0;
            for (uint32_t en : blk.incs)
                inc += nets[en] ? 1 : 0;
            // A received event, or a consumed one (the stage executed),
            // changes the counter.
            bool dec = nets[blk.dec] != 0;
            if (inc || dec)
                progress = true;
            rs.commitEvents(stages[counter_mod[i]], inc, dec);
        }
        return {progress, finish_req};
    }

    void
    emitLog(const MonitorBlock &mon)
    {
        if (!st.opts.capture_logs)
            return;
        const auto *lg = static_cast<const Log *>(mon.inst);
        st.emitLog(lg->fmt(), [&](std::ostream &os, size_t i) {
            const DataType &type = lg->args()[i]->type();
            uint64_t raw = nets[mon.args[i]];
            if (type.isSigned())
                os << type.asSigned(raw);
            else
                os << raw;
        });
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
    runCycleFrames(max_cycles, [&im] { return im.step(); });
}

} // namespace rtl
} // namespace assassyn
