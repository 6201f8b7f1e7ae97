#include "sim/engine.h"

#include <algorithm>

#include "sim/vcd.h"
#include "support/bits.h"
#include "support/logging.h"

namespace assassyn {
namespace sim {

namespace {

/** Arrays traced element-wise in the VCD; memories and big arrays are not. */
bool
inWaveform(const RunState::Array &a)
{
    return !a.array->isMemory() && a.size <= 64;
}

/**
 * Open the VCD of one run and declare its signals: array elements,
 * then one execution strobe per stage, then one occupancy per FIFO,
 * each in RunState order — the order Engine::observeCycle samples in.
 */
std::unique_ptr<VcdWriter>
openWaveform(const RunState &st)
{
    auto vcd = std::make_unique<VcdWriter>(st.opts.vcd_path);
    for (const RunState::Array &a : st.arrays) {
        if (!inWaveform(a))
            continue;
        for (uint32_t i = 0; i < a.size; ++i)
            vcd->addSignal(a.size > 1 ? a.array->name() + "_" +
                                            std::to_string(i)
                                      : a.array->name(),
                           a.array->elemType().bits());
    }
    for (const RunState::Stage &s : st.stages)
        vcd->addSignal(s.mod->name() + "__exec", 1);
    for (const RunState::Fifo &f : st.fifos)
        vcd->addSignal(f.port->owner()->name() + "__" + f.port->name() +
                           "__count",
                       log2ceil(uint64_t(f.depth) + 1));
    vcd->writeHeader(st.sys.name());
    return vcd;
}

} // namespace

// ---------------------------------------------------------------------------
// RunState
// ---------------------------------------------------------------------------

RunState::RunState(const System &s, const SimOptions &o)
    : sys(s), opts(o)
{
    // One allocation per array rather than one arena: an arena over
    // large memories is a block above the allocator's mmap threshold,
    // and every engine construction would page-fault it in afresh.
    arrays.resize(sys.arrays().size());
    for (const auto &arr : sys.arrays()) {
        Array &a = arrays[arr->id()];
        a.array = arr.get();
        a.data = arr->init();
        a.size = uint32_t(a.data.size());
    }
    port_base.reserve(sys.modules().size());
    stages.resize(sys.modules().size());
    for (const auto &mod : sys.modules()) {
        stages[mod->id()].mod = mod.get();
        port_base.push_back(uint32_t(fifos.size()));
        for (const auto &port : mod->ports()) {
            Fifo f;
            f.port = port.get();
            f.policy = port->policy();
            f.depth = uint32_t(port->depth());
            uint32_t cap = 1;
            while (cap < f.depth)
                cap <<= 1;
            f.mask = cap - 1;
            f.base = uint32_t(fifo_arena.size());
            fifo_arena.resize(fifo_arena.size() + cap, 0);
            f.occupancy.buckets.assign(f.depth + 1, 0);
            fifos.push_back(std::move(f));
        }
    }
    // Every observer is interned from the shared System IR and fed only
    // from RunState, so each file is byte-identical across engines for
    // the same design and seed. Opening one leases its path: two
    // concurrent runs handed the same path fail here, before any cycle.
    if (!opts.timeline_path.empty())
        recorder = std::make_unique<TraceRecorder>(
            sys, opts.timeline_path, opts.timeline_events);
    if (!opts.vcd_path.empty())
        vcd = openWaveform(*this);
    if (!opts.trace_path.empty())
        trace = std::make_unique<OutputFile>(opts.trace_path);
    observed = recorder || vcd || trace;
}

RunState::~RunState()
{
    if (recorder)
        recorder->finish(cycle);
}

Histogram
RunState::foldedOccupancy(const Fifo &f) const
{
    Histogram h = f.occupancy;
    recordN(h, f.count, done - f.sampled_until);
    return h;
}

void
RunState::overflow(const Fifo &f, const Module *src) const
{
    fatal("cycle ", cycle, ": FIFO overflow on '", f.port->fullName(),
          "' (occupancy ", f.count, "/", f.depth, "; push from stage '",
          src ? src->name() : "?",
          "'); tune fifo_depth or set a backpressure policy");
}

void
RunState::counterOverflow(const Stage &s, uint64_t next) const
{
    fatal("cycle ", cycle, ": event counter overflow on stage '",
          s.mod->name(), "' (", next, " pending events > bound ",
          opts.max_pending_events,
          "); enable saturate_events or throttle callers");
}

// ---------------------------------------------------------------------------
// Engine: run loop, watchdog, inspection
// ---------------------------------------------------------------------------

Engine::Engine(const System &sys, const HazardAnalyzer &analyzer,
               const SimOptions &opts, const char *name)
    : st_(sys, opts), analyzer_(analyzer), name_(name)
{
}

Engine::~Engine() = default;

RunResult
Engine::run(uint64_t max_cycles)
{
    RunResult res;
    if (!unrunnable_.empty()) {
        res.status = RunStatus::kFault;
        res.error = unrunnable_;
        return res;
    }
    const uint64_t start = st_.cycle;
    try {
        runCycles(max_cycles);
    } catch (const FatalError &err) {
        // A simulated-design fault: flush post-mortem artifacts and
        // report it structurally. Toolchain bugs (InternalError) still
        // propagate — they are our fault, not the design's. The faulting
        // cycle committed no consistent state, so it gets no VCD frame:
        // the waveform ends at the last committed cycle.
        if (st_.trace) {
            st_.trace->write("#" + std::to_string(st_.cycle) +
                             ": FAULT: " + err.what() + "\n");
            st_.trace->flush();
        }
        // Close every open timeline interval at the faulting cycle and
        // write the file now, so the trace survives even if the engine
        // is kept alive.
        if (st_.recorder)
            st_.recorder->finish(st_.cycle);
        res.status = RunStatus::kFault;
        res.error = err.what();
        res.cycles = st_.cycle - start;
        return res;
    }
    res.cycles = st_.cycle - start;
    if (st_.finished) {
        res.status = RunStatus::kFinished;
    } else if (st_.hazard_flag) {
        res.status = st_.hazard_status;
        res.hazard = st_.hazard;
    } else {
        res.status = RunStatus::kMaxCycles;
        // Best-effort diagnosis of who was blocked when the budget ran
        // out; `kind` is advisory here (status stays kMaxCycles).
        res.hazard = analyzer_.analyze(st_, st_.quiet_cycles);
        res.hazard.kind.clear();
    }
    return res;
}

/**
 * The zero-progress watchdog's verdict. A cycle with no committed state
 * change and at least one blocked stage can only repeat forever: the
 * design's logic is deterministic, so identical state implies an
 * identical next cycle.
 */
void
Engine::raiseHazard()
{
    st_.hazard = analyzer_.analyze(st_, st_.quiet_cycles);
    st_.hazard_status = st_.hazard.kind == "livelock" ? RunStatus::kLivelock
                                                      : RunStatus::kDeadlock;
    st_.hazard_flag = true;
    if (st_.recorder)
        st_.recorder->hazard(st_.hazard);
    if (st_.trace) {
        st_.trace->write(st_.hazard.toString());
        st_.trace->flush();
    }
}

bool
Engine::anyBlocked() const
{
    for (const RunState::Stage &s : st_.stages) {
        StageActivity act = st_.activity(s);
        if (act == StageActivity::kBackpressure ||
            (act != StageActivity::kExec && s.pending > 0 &&
             !s.mod->isDriver()))
            return true;
    }
    return false;
}

void
Engine::observeCycle()
{
    RunState &st = st_;
    if (st.recorder) {
        // Tracing observes every stage, idle spans included.
        for (const RunState::Stage &s : st.stages) {
            StageActivity act = st.activity(s);
            st.recorder->stageActivity(s.mod, act);
            if (act == StageActivity::kExec && s.mod->isGenerated())
                st.recorder->grant(s.mod);
        }
    }
    if (st.vcd) {
        VcdWriter &vcd = *st.vcd;
        vcd.beginCycle(st.cycle);
        size_t sig = 0;
        for (const RunState::Array &a : st.arrays)
            if (inWaveform(a))
                for (uint32_t i = 0; i < a.size; ++i)
                    vcd.set(sig++, a.data[i]);
        for (const RunState::Stage &s : st.stages)
            vcd.set(sig++, st.activity(s) == StageActivity::kExec);
        for (const RunState::Fifo &f : st.fifos)
            vcd.set(sig++, f.count);
        vcd.flush();
    }
    if (st.trace) {
        // One line per cycle with any activity, stages in topological
        // order; one composed line is one locked write, so concurrent
        // runs can never interleave mid-line.
        std::string line;
        for (const Module *mod : st.sys.topoOrder()) {
            StageActivity act = st.activity(st.stages[mod->id()]);
            if (act == StageActivity::kIdle)
                continue;
            line += ' ';
            line += mod->name();
            if (act != StageActivity::kExec) {
                line += "(wait:";
                line += act == StageActivity::kBackpressure
                            ? "fifo_full"
                            : waitReason(*mod);
                line += ')';
            }
        }
        if (!line.empty()) {
            st.trace->write("#" + std::to_string(st.cycle) + ":" + line +
                            "\n");
            st.trace->flush();
        }
    }
}

uint64_t
Engine::readArray(const RegArray *array, size_t index) const
{
    const RunState::Array &a = st_.arrays.at(array->id());
    if (index >= a.size)
        fatal("readArray: index ", index, " out of range for '",
              array->name(), "'");
    return a.data[index];
}

void
Engine::writeArray(const RegArray *array, size_t index, uint64_t value)
{
    RunState::Array &a = st_.arrays.at(array->id());
    if (index >= a.size)
        fatal("writeArray: index ", index, " out of range for '",
              array->name(), "'");
    a.data[index] =
        truncate(value, array->elemType().bits());
    st_.poked = true; // external state change: reset the watchdog
    arrayPoked(array->id());
}

uint64_t
Engine::fifoOccupancy(const Port *port) const
{
    return st_.fifos.at(st_.fifoIndex(port)).count;
}

uint64_t
Engine::readFifo(const Port *port, size_t pos) const
{
    const RunState::Fifo &f = st_.fifos.at(st_.fifoIndex(port));
    if (pos >= f.count)
        fatal("readFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    return st_.fifo_arena[f.slot(uint32_t(pos))];
}

void
Engine::writeFifo(const Port *port, size_t pos, uint64_t value)
{
    uint32_t fid = st_.fifoIndex(port);
    const RunState::Fifo &f = st_.fifos.at(fid);
    if (pos >= f.count)
        fatal("writeFifo: position ", pos, " out of range for '",
              port->fullName(), "' (occupancy ", f.count, ")");
    st_.fifo_arena[f.slot(uint32_t(pos))] =
        truncate(value, port->type().bits());
    st_.poked = true;
    fifoPoked(fid);
}

StageCounters
Engine::stageCounters(const Module *mod) const
{
    const RunState::Stage &s = st_.stages.at(mod->id());
    StageCounters c;
    c.execs = s.execs;
    c.wait_spins = s.wait_spins;
    c.idle_cycles = st_.foldedIdle(s);
    c.events_in = s.events_in;
    c.backpressure_stalls = s.bp_stalls;
    c.pending = s.pending;
    return c;
}

FifoTraffic
Engine::fifoTraffic(const Port *port) const
{
    const RunState::Fifo &f = st_.fifos.at(st_.fifoIndex(port));
    return FifoTraffic{f.pushes, f.pops, f.drops, f.stall_cycles};
}

uint64_t
Engine::arrayWrites(const RegArray *array) const
{
    return st_.arrays.at(array->id()).writes;
}

StageActivity
Engine::stageActivity(const Module *mod) const
{
    return st_.activity(st_.stages.at(mod->id()));
}

MetricsRegistry
Engine::metrics() const
{
    MetricsRegistry reg;
    reg.set("cycles", st_.cycle);
    reg.set("total.executions", st_.total_execs);
    reg.set("total.events", st_.total_events);
    uint64_t skipped = 0;
    for (const RunState::Stage &s : st_.stages) {
        uint64_t idle = st_.foldedIdle(s);
        reg.set(stageKey(*s.mod, "execs"), s.execs);
        reg.set(stageKey(*s.mod, "wait_spins"), s.wait_spins);
        reg.set(stageKey(*s.mod, "idle_cycles"), idle);
        reg.set(stageKey(*s.mod, "events_in"), s.events_in);
        reg.set(stageKey(*s.mod, "event_saturations"), s.saturations);
        reg.set(stageKey(*s.mod, "backpressure_stalls"), s.bp_stalls);
        skipped += idle;
    }
    // Scheduler health under cross-engine keys: both quantities are
    // architectural (see the key-scheme note in sim/metrics.h).
    reg.set("sched.executions", st_.total_execs);
    reg.set("sched.events_skipped", skipped);
    reg.set("sched.stages_woken", st_.stages_woken);
    for (const RunState::Fifo &f : st_.fifos) {
        Histogram occ = st_.foldedOccupancy(f);
        reg.set(fifoKey(*f.port, "pushes"), f.pushes);
        reg.set(fifoKey(*f.port, "pops"), f.pops);
        reg.set(fifoKey(*f.port, "high_water"), occ.high_water);
        reg.set(fifoKey(*f.port, "drops"), f.drops);
        reg.set(fifoKey(*f.port, "stall_cycles"), f.stall_cycles);
        reg.histogram(fifoKey(*f.port, "occupancy")) = std::move(occ);
    }
    for (const RunState::Array &a : st_.arrays)
        reg.set(arrayKey(*a.array, "writes"), a.writes);
    // Dropped-span accounting for the timeline ring, only when tracing
    // is on, so untraced runs keep their exact historical snapshots.
    if (const TraceRecorder *rec = st_.recorder.get()) {
        reg.set("trace.events", rec->eventsRecorded());
        reg.set("trace.dropped_events", rec->eventsDropped());
    }
    return reg;
}

void
Engine::addPreCycleHook(CycleHook hook)
{
    st_.pre_hooks.add(std::move(hook));
}

void
Engine::addPostCycleHook(CycleHook hook)
{
    st_.post_hooks.add(std::move(hook));
}

// ---------------------------------------------------------------------------
// Checkpoint/restore (sim/ckpt.h): the one serializer. Sections follow
// RunState's layout, which is the shared System IR's order — arrays by
// RegArray::id, FIFOs in module/port declaration order, modules by
// Module::id. Lazily folded counters (idle cycles, occupancy histograms)
// serialize in their folded form, and FIFO entries head-first, so no
// engine-private layout detail reaches the bytes.
// ---------------------------------------------------------------------------

Snapshot
Engine::snapshot() const
{
    if (st_.hazard_flag)
        fatal("snapshot: the run of '", st_.sys.name(),
              "' already ended with a ", runStatusName(st_.hazard_status),
              " verdict at cycle ", st_.cycle,
              "; verdict runs are not resumable");
    Snapshot snap;
    snap.design = st_.sys.name();
    snap.engine = name_;
    snap.cycle = st_.cycle;
    {
        ByteWriter w;
        w.u64(st_.cycle);
        w.u8(st_.finished ? 1 : 0);
        // A pending finish: at a cycle boundary it equals `finished`.
        w.u8(st_.finished ? 1 : 0);
        w.u64(st_.quiet_cycles);
        w.u8(st_.poked ? 1 : 0);
        w.u64(st_.total_execs);
        w.u64(st_.total_events);
        w.u64(st_.stages_woken);
        snap.add("meta", w.take());
    }
    {
        ByteWriter w;
        w.u32(uint32_t(st_.arrays.size()));
        for (const RunState::Array &a : st_.arrays) {
            w.u32(a.size);
            w.u64s(a.data.data(), a.size);
            w.u64(a.writes);
        }
        snap.add("arrays", w.take());
    }
    {
        ByteWriter w;
        w.u32(uint32_t(st_.fifos.size()));
        for (const RunState::Fifo &f : st_.fifos) {
            w.u32(f.depth);
            w.u32(f.count);
            for (uint32_t i = 0; i < f.count; ++i)
                w.u64(st_.fifo_arena[f.slot(i)]);
            w.u64(f.pushes);
            w.u64(f.pops);
            w.u64(f.drops);
            w.u64(f.stall_cycles);
            Histogram occ = st_.foldedOccupancy(f);
            w.u64(occ.high_water);
            w.u64(occ.samples);
            w.vec64(occ.buckets);
        }
        snap.add("fifos", w.take());
    }
    {
        ByteWriter w;
        w.u32(uint32_t(st_.stages.size()));
        for (const RunState::Stage &s : st_.stages) {
            w.u64(s.pending);
            w.u64(s.execs);
            w.u64(s.wait_spins);
            w.u64(st_.foldedIdle(s));
            w.u64(s.events_in);
            w.u64(s.saturations);
            w.u64(s.bp_stalls);
        }
        snap.add("mods", w.take());
    }
    {
        ByteWriter w;
        w.u32(uint32_t(st_.logs.size()));
        for (const std::string &line : st_.logs)
            w.str(line);
        snap.add("logs", w.take());
    }
    if (st_.recorder) {
        ByteWriter w;
        st_.recorder->serialize(w);
        snap.add("trace", w.take());
    }
    saveSections(snap);
    return snap;
}

void
Engine::restore(const Snapshot &snap)
{
    RunState &st = st_;
    const std::string &design = st.sys.name();
    if (snap.design != design)
        fatal("checkpoint: snapshot of design '", snap.design,
              "' cannot restore into a run of '", design, "'");
    {
        ByteReader r = snap.reader("meta");
        st.cycle = r.u64();
        st.finished = r.flag();
        r.flag(); // pending finish: equals `finished` at every boundary
        st.quiet_cycles = r.u64();
        st.poked = r.flag();
        st.total_execs = r.u64();
        st.total_events = r.u64();
        st.stages_woken = r.u64();
        r.expectEnd();
    }
    if (st.cycle != snap.cycle)
        fatal("checkpoint: header cycle ", snap.cycle,
              " disagrees with section 'meta' cycle ", st.cycle);
    st.done = st.cycle;
    {
        ByteReader r = snap.reader("arrays");
        uint32_t count = r.u32();
        if (count != st.arrays.size())
            fatal("checkpoint: section 'arrays' carries ", count,
                  " array(s), design '", design, "' has ", st.arrays.size());
        for (RunState::Array &a : st.arrays) {
            uint32_t size = r.u32();
            if (size != a.size)
                fatal("checkpoint: array '", a.array->name(), "' has ", size,
                      " element(s) in the snapshot, ", a.size,
                      " in the design");
            r.u64s(a.data.data(), a.size);
            a.writes = r.u64();
        }
        r.expectEnd();
    }
    {
        ByteReader r = snap.reader("fifos");
        uint32_t count = r.u32();
        if (count != st.fifos.size())
            fatal("checkpoint: section 'fifos' carries ", count,
                  " FIFO(s), design '", design, "' has ", st.fifos.size());
        for (RunState::Fifo &f : st.fifos) {
            const std::string name = f.port->fullName();
            uint32_t depth = r.u32();
            if (depth != f.depth)
                fatal("checkpoint: FIFO '", name, "' has depth ", depth,
                      " in the snapshot, ", f.depth, " in the design");
            uint32_t occ = r.u32();
            if (occ > depth)
                fatal("checkpoint: FIFO '", name, "' claims occupancy ",
                      occ, " above depth ", depth);
            std::fill(st.fifo_arena.begin() + f.base,
                      st.fifo_arena.begin() + f.base + f.mask + 1, 0);
            f.head = 0;
            f.count = occ;
            for (uint32_t i = 0; i < occ; ++i)
                st.fifo_arena[f.base + i] = r.u64();
            f.pushes = r.u64();
            f.pops = r.u64();
            f.drops = r.u64();
            f.stall_cycles = r.u64();
            f.occupancy.high_water = r.u64();
            f.occupancy.samples = r.u64();
            std::vector<uint64_t> buckets =
                r.vec64(f.occupancy.buckets.size());
            if (buckets.size() != f.occupancy.buckets.size())
                fatal("checkpoint: FIFO '", name, "' occupancy histogram has ",
                      buckets.size(), " bucket(s), expected ",
                      f.occupancy.buckets.size());
            f.occupancy.buckets = std::move(buckets);
            f.sampled_until = st.cycle;
        }
        r.expectEnd();
    }
    {
        ByteReader r = snap.reader("mods");
        uint32_t count = r.u32();
        if (count != st.stages.size())
            fatal("checkpoint: section 'mods' carries ", count,
                  " module(s), design '", design, "' has ",
                  st.stages.size());
        for (RunState::Stage &s : st.stages) {
            s.pending = r.u64();
            if (s.mod->isDriver() && s.pending != 0)
                fatal("checkpoint: stage '", s.mod->name(),
                      "' has no event counter but the snapshot claims ",
                      s.pending, " pending event(s)");
            s.execs = r.u64();
            s.wait_spins = r.u64();
            s.idle_cycles = r.u64();
            s.idle_open = false;
            s.events_in = r.u64();
            s.saturations = r.u64();
            s.bp_stalls = r.u64();
            s.act = StageActivity::kIdle;
            s.stamp = 0;
        }
        r.expectEnd();
    }
    {
        ByteReader r = snap.reader("logs");
        uint32_t count = r.u32();
        st.logs.clear();
        for (uint32_t i = 0; i < count; ++i)
            st.logs.push_back(r.str(size_t(1) << 20));
        r.expectEnd();
    }
    st.hazard_flag = false;
    st.hazard_status = RunStatus::kMaxCycles;
    st.hazard = HazardReport{};
    loadSections(snap);
    if (st.recorder && snap.find("trace")) {
        ByteReader r = snap.reader("trace");
        st.recorder->deserialize(r);
        r.expectEnd();
    }
    rebuildViews();
}

} // namespace sim
} // namespace assassyn
