/**
 * @file
 * The engine contract shared by both execution backends
 * (docs/architecture.md, "The engine contract").
 *
 * sim::Simulator (the event-driven tape interpreter of paper Sec. 5.1)
 * and rtl::NetlistSim (the levelized-netlist Verilator stand-in of
 * Sec. 5.2) differ only in how they evaluate and commit one cycle.
 * Everything else — the state that survives a cycle boundary, the run
 * loop's fault and verdict handling, the zero-progress watchdog,
 * inspection and pokes, metrics, checkpoints and hooks — exists once,
 * here:
 *
 *  - RunState holds every piece of mutable run state that outlives a
 *    cycle: register arrays, the FIFO arena, their traffic counters, the
 *    per-stage scheduler counters and the cycle's published stage
 *    activity, the run meta fields, logs, the watchdog verdict, the
 *    per-cycle observers (timeline recorder, VCD, text trace) and the
 *    hooks. Both engines' commits go through its helpers (FIFO pop/push
 *    with the overflow policy, event-counter saturation), and its lazily
 *    folded counters (idle spans, occupancy histograms) are folded in
 *    one place.
 *  - Engine owns a RunState and implements the public surface over it
 *    with non-virtual methods, including the one end-of-cycle
 *    observation point that renders every per-cycle output from the
 *    published activity. Its virtual calls are all cold: one per run()
 *    into the engine's cycle loop, plus poke invalidation, engine-private
 *    snapshot sections and post-restore view rebuilding. Nothing
 *    virtual runs per cycle or per tape step.
 *
 * Because metrics(), snapshot(), the hazard report and every per-cycle
 * output file are produced by one implementation from one RunState
 * layout, cross-engine byte identity of those artifacts holds by
 * construction; what the differential tests still pin is that both
 * evaluators commit the same state and publish the same activity each
 * cycle.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/ckpt.h"
#include "sim/hazard.h"
#include "sim/metrics.h"
#include "sim/trace.h"
#include "support/hooks.h"

namespace assassyn {
namespace sim {

class VcdWriter;

/** Runtime configuration of a simulation, on either engine. */
struct SimOptions {
    /**
     * Shuffle stage execution order each cycle (Sec. 5.1 randomization).
     * The shadow pass keeps cross-stage reads well-defined, so results
     * must be invariant; tests assert exactly that. The netlist engine
     * has no stage order and ignores it.
     */
    bool shuffle = false;
    uint64_t shuffle_seed = 1;

    /** Collect log() output; disable for pure-throughput benchmarks. */
    bool capture_logs = true;

    /**
     * When nonempty, stream a VCD waveform here: register-array elements
     * (arrays up to 64 entries), stage execution strobes, and FIFO
     * occupancies, sampled once per committed cycle — a faulting cycle
     * committed nothing consistent and gets no frame. Byte-identical
     * across engines for the same design.
     */
    std::string vcd_path = {};

    /**
     * When nonempty, stream a human-readable event trace here: one line
     * per cycle with activity, naming the stages that executed and the
     * stages spinning on a wait_until, plus the watchdog verdict or the
     * FAULT line that ends the run. The serialized-trace debugging story
     * of paper Sec. 7 Q5. Byte-identical across engines for the same
     * design.
     */
    std::string trace_path = {};

    /**
     * When nonempty, record a structured Chrome-trace / Perfetto
     * timeline here (sim/trace.h, schema assassyn.trace.v1): coalesced
     * per-stage activity spans, FIFO push->pop flows, arbiter grants,
     * fault injections, and watchdog verdicts, byte-identical across
     * engines for the same design and seed. Off (empty) by default;
     * see docs/observability.md ("Timeline tracing").
     */
    std::string timeline_path = {};

    /**
     * Ring bound on retained timeline events when timeline_path is set:
     * the oldest events fall out first, and the drop count surfaces as
     * the trace.dropped_events metric.
     */
    size_t timeline_events = size_t(1) << 20;

    /** Event-counter saturation bound, mirroring the 8-bit RTL counter. */
    uint64_t max_pending_events = 255;

    /**
     * What happens when a stage's pending-event counter would exceed
     * max_pending_events. With false (default), the run aborts — the
     * design is broken and silently dropping events would hide it. With
     * true, the counter saturates exactly like the bounded hardware
     * counter of the RTL backend: excess increments are dropped, each
     * drop is counted under stage.<mod>.event_saturations, and the run
     * continues.
     */
    bool saturate_events = false;

    /**
     * Deadlock/livelock watchdog: after this many consecutive cycles in
     * which no architectural state changed and at least one stage was
     * blocked (retained event, spinning wait, or backpressure stall),
     * run() stops with a wait-for-graph diagnosis instead of burning
     * the rest of max_cycles. The design's logic is deterministic, so a
     * zero-progress cycle with a blocked stage can only repeat forever;
     * external pokes (writeArray / writeFifo from hooks) reset the
     * window. 0 disables the watchdog. See docs/robustness.md.
     */
    uint64_t watchdog_window = 1024;
};

/**
 * Every piece of run state that survives a cycle boundary, laid out
 * once for both engines. Arrays are indexed by RegArray::id, stages by
 * Module::id, and FIFOs densely in module/port declaration order
 * (fifoIndex) — the shared System IR's numbering, never an engine's
 * private one. Per-cycle scratch (buffered effects, nets, ready sets)
 * stays engine-private.
 */
struct RunState {
    /** One FIFO: a power-of-two ring in fifo_arena plus its counters. */
    struct Fifo {
        const Port *port = nullptr;
        FifoPolicy policy = FifoPolicy::kAbort;
        uint32_t base = 0;  ///< offset into fifo_arena
        uint32_t mask = 0;  ///< pow2 ring mask (ring size - 1)
        uint32_t depth = 0; ///< architectural capacity (overflow bound)
        uint32_t head = 0;
        uint32_t count = 0;
        uint64_t pushes = 0;
        uint64_t pops = 0;
        uint64_t drops = 0;        ///< pushes discarded under kDropNewest
        uint64_t stall_cycles = 0; ///< producer-stall cycles charged here
        /**
         * End-of-cycle occupancy distribution, folded lazily: every
         * cycle in [sampled_until, done) sampled the current count.
         */
        Histogram occupancy;
        uint64_t sampled_until = 0;

        uint64_t
        slot(uint32_t pos) const
        {
            return base + ((head + pos) & mask);
        }
    };

    /** One register array: its elements plus write traffic. */
    struct Array {
        const RegArray *array = nullptr;
        std::vector<uint64_t> data;
        uint32_t size = 0; ///< data.size(), kept for the hot bound checks
        uint64_t writes = 0;
    };

    /** Per-stage event counter and scheduler counters. */
    struct Stage {
        const Module *mod = nullptr;
        uint64_t pending = 0; ///< events retained at the boundary
        uint64_t execs = 0;
        uint64_t wait_spins = 0;
        /**
         * Idle cycles; while idle_open, the span [idle_anchor, done) is
         * idle too but not yet added (foldedIdle). Only the event
         * engine leaves spans open.
         */
        uint64_t idle_cycles = 0;
        uint64_t idle_anchor = 0;
        bool idle_open = false;
        uint64_t events_in = 0;
        uint64_t saturations = 0; ///< increments dropped at the bound
        uint64_t bp_stalls = 0;   ///< cycles gated by backpressure
        /**
         * The activity the evaluating engine published for cycle
         * stamp - 1. The event engine stamps only the stages it visits,
         * so a stale stamp means the stage sat idle (activity()).
         */
        StageActivity act = StageActivity::kIdle;
        uint64_t stamp = 0;
    };

    RunState(const System &sys, const SimOptions &opts);
    ~RunState();

    const System &sys;
    const SimOptions opts;

    std::vector<uint64_t> fifo_arena; ///< all FIFO rings, contiguous
    std::vector<Fifo> fifos;          ///< by fifoIndex
    std::vector<Array> arrays;        ///< by RegArray::id
    std::vector<Stage> stages;        ///< by Module::id
    std::vector<uint32_t> port_base;  ///< first fifoIndex of each module

    uint64_t cycle = 0;   ///< cycles started (== committed between runs)
    uint64_t done = 0;    ///< cycles fully committed
    bool finished = false;
    uint64_t quiet_cycles = 0; ///< current zero-progress window
    bool poked = false;        ///< external write since the last check
    uint64_t total_execs = 0;
    uint64_t total_events = 0;
    uint64_t stages_woken = 0; ///< 0 -> >0 pending transitions

    bool hazard_flag = false;
    RunStatus hazard_status = RunStatus::kMaxCycles;
    HazardReport hazard;

    std::vector<std::string> logs;
    // The per-cycle observers, each fed only from the published stage
    // activity and committed state (Engine::observeCycle).
    std::unique_ptr<TraceRecorder> recorder; ///< SimOptions::timeline_path
    std::unique_ptr<VcdWriter> vcd;          ///< SimOptions::vcd_path
    std::unique_ptr<OutputFile> trace;       ///< SimOptions::trace_path
    bool observed = false;                   ///< any of the three is open
    HookList pre_hooks;
    HookList post_hooks;

    uint32_t
    fifoIndex(const Port *port) const
    {
        return port_base[port->owner()->id()] + port->index();
    }

    /** @p s's activity in the last committed cycle. */
    StageActivity
    activity(const Stage &s) const
    {
        return s.stamp == done ? s.act : StageActivity::kIdle;
    }

    /** Idle cycles including the open span. */
    uint64_t
    foldedIdle(const Stage &s) const
    {
        return s.idle_cycles + (s.idle_open ? done - s.idle_anchor : 0);
    }

    /** Occupancy histogram including the open constant-count span. */
    Histogram foldedOccupancy(const Fifo &f) const;

    /**
     * Commit one FIFO at the clock edge of the current cycle: dequeue
     * (when @p deq and nonempty), then enqueue @p value (when @p push)
     * under the port's overflow policy. A push into a full FIFO is
     * dropped and counted under kDropNewest and a fatal overflow
     * otherwise (kStallProducer cannot get here: its gate keeps
     * producers from executing while full). Only a change of occupancy
     * touches the histogram: it folds the open span at the old count,
     * and this cycle's end-of-cycle occupancy opens the next one.
     * Returns true when the FIFO's contents changed.
     */
    bool
    commitFifo(uint32_t fid, bool deq, bool push, uint64_t value,
               const Module *src)
    {
        Fifo &f = fifos[fid];
        const uint32_t before = f.count;
        bool changed = false;
        if (deq && f.count) {
            f.head = (f.head + 1) & f.mask;
            --f.count;
            ++f.pops;
            if (recorder)
                recorder->pop(f.port);
            changed = true;
        }
        if (push) {
            if (f.count == f.depth) {
                if (f.policy != FifoPolicy::kDropNewest)
                    overflow(f, src);
                ++f.drops;
            } else {
                fifo_arena[f.slot(f.count)] = value;
                ++f.count;
                ++f.pushes;
                if (recorder)
                    recorder->push(f.port, src);
                changed = true;
            }
        }
        if (f.count != before) {
            recordN(f.occupancy, before, cycle - f.sampled_until);
            f.sampled_until = cycle;
        }
        return changed;
    }

    /**
     * Commit one stage's event counter: pending' = pending - dec + inc,
     * saturating at the bound (counted) or failing fatally, as the
     * options say. Counts the received events and a 0 -> >0 wake.
     */
    void
    commitEvents(Stage &s, uint64_t inc, bool dec)
    {
        s.events_in += inc;
        total_events += inc;
        uint64_t next = s.pending - (dec ? 1 : 0) + inc;
        if (next > opts.max_pending_events) {
            if (!opts.saturate_events)
                counterOverflow(s, next);
            s.saturations += next - opts.max_pending_events;
            next = opts.max_pending_events;
        }
        if (s.pending == 0 && next > 0)
            ++stages_woken;
        s.pending = next;
    }

    /**
     * Format one log() line — each "{}" in @p fmt replaced by the next
     * argument, which @p arg(os, index) writes — and append it to logs.
     * Both engines call it only when capture_logs is on.
     */
    template <typename ArgFn>
    void
    emitLog(const std::string &fmt, ArgFn &&arg)
    {
        std::ostringstream os;
        size_t n = 0;
        for (size_t i = 0; i < fmt.size(); ++i) {
            if (i + 1 < fmt.size() && fmt[i] == '{' && fmt[i + 1] == '}') {
                arg(os, n++);
                ++i;
            } else {
                os << fmt[i];
            }
        }
        logs.push_back(os.str());
    }

    /** buckets[value] += n, exactly as n calls to Histogram::record. */
    static void
    recordN(Histogram &h, uint64_t value, uint64_t n)
    {
        if (!n)
            return;
        if (value >= h.buckets.size())
            h.buckets.resize(value + 1, 0);
        h.buckets[value] += n;
        if (value > h.high_water)
            h.high_water = value;
        h.samples += n;
    }

    /**
     * The design faults both engines raise, each message written once:
     * a second push into FIFO @p fid this cycle; a write to array
     * @p aid at @p idx that is out of range, or else its second write
     * this cycle; a failed assertion @p as. Engine::run reports them as
     * RunResult::kFault.
     */
    [[gnu::noinline, noreturn]] void multiplePushes(uint32_t fid) const;
    [[gnu::noinline, noreturn]] void badArrayWrite(uint32_t aid,
                                                   uint64_t idx) const;
    [[gnu::noinline, noreturn]] void assertFailed(const AssertInst &as) const;

  private:
    [[noreturn]] void overflow(const Fifo &f, const Module *src) const;
    [[noreturn]] void counterOverflow(const Stage &s, uint64_t next) const;
};

/**
 * The engine base class: one RunState plus the public surface both
 * engines share. Construct a concrete engine (sim::Simulator,
 * rtl::NetlistSim) and drive it through Engine& — the debugger, the
 * grader, the sweep runner and the fault injector all do.
 */
class Engine {
  public:
    virtual ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Run until finish() commits, @p max_cycles elapse, the watchdog
     * detects a hazard, or the simulated design faults. Design-level
     * failures (FIFO overflow under the Abort policy, assertion
     * failure, event-counter overflow) do not throw: they come back as
     * RunResult::kFault with the message in RunResult::error, after the
     * text trace's FAULT line and the timeline have been flushed.
     * Toolchain bugs (InternalError) still propagate.
     */
    RunResult run(uint64_t max_cycles);

    /** True once a finish() committed. */
    bool finished() const { return st_.finished; }

    /** Cycles simulated so far. */
    uint64_t cycle() const { return st_.cycle; }

    /** "event" or "netlist": the Snapshot::engine label. */
    const char *engineName() const { return name_; }

    /** The design this engine runs. */
    const System &sys() const { return st_.sys; }

    /** Read one element of a register array. */
    uint64_t readArray(const RegArray *array, size_t index) const;

    /** Overwrite one element of a register array (testbench poke). */
    void writeArray(const RegArray *array, size_t index, uint64_t value);

    /** Current number of entries in a port's FIFO. */
    uint64_t fifoOccupancy(const Port *port) const;

    /** Read the FIFO entry @p pos slots behind the head (0 = head). */
    uint64_t readFifo(const Port *port, size_t pos) const;

    /** Overwrite a live FIFO entry (fault injection / testbench poke). */
    void writeFifo(const Port *port, size_t pos, uint64_t value);

    /** Captured log() lines, in execution order. */
    const std::vector<std::string> &logOutput() const { return st_.logs; }

    /**
     * Point-in-time scheduler counters for one stage (sim/metrics.h),
     * read from live state without folding a full MetricsRegistry —
     * the time-travel debugger's per-cycle polling surface.
     */
    StageCounters stageCounters(const Module *mod) const;

    /** Point-in-time traffic counters for one FIFO. */
    FifoTraffic fifoTraffic(const Port *port) const;

    /** Committed write count of one register array. */
    uint64_t arrayWrites(const RegArray *array) const;

    /**
     * What @p mod did in the last committed cycle, as its engine
     * published it: the activity the timeline, the VCD strobe, the text
     * trace, the hazard report and the debugger's stall history read.
     * kIdle before the first cycle and right after restore().
     */
    StageActivity stageActivity(const Module *mod) const;

    /**
     * Snapshot of every performance counter and occupancy histogram
     * (see sim/metrics.h for the key scheme). May be taken mid-run or
     * after finish.
     */
    MetricsRegistry metrics() const;

    /**
     * Serialize every piece of mutable run state into an
     * engine-portable Snapshot (sim/ckpt.h, docs/robustness.md). Must
     * be taken between run() calls, i.e. at a cycle boundary. A run
     * that already ended with a watchdog verdict is not resumable and
     * fatal()s here; take checkpoints before the verdict instead.
     */
    Snapshot snapshot() const;

    /**
     * Rewind this instance to @p snap, taken from either engine over
     * the same design (and, for byte-identical timelines, the same
     * timeline options). Layout mismatches are structured FatalErrors.
     * After restore, run(n) continues exactly as the checkpointed run
     * would have (tests/ckpt_test.cc).
     */
    void restore(const Snapshot &snap);

    /**
     * Register a hook fired before each cycle's evaluation, seeing
     * architectural state as of the start of that cycle.
     */
    void addPreCycleHook(CycleHook hook);

    /** Register a hook fired after each cycle's commit. */
    void addPostCycleHook(CycleHook hook);

    /**
     * The timeline recorder (sim/trace.h), or nullptr when
     * SimOptions::timeline_path is empty.
     */
    TraceRecorder *traceRecorder() const { return st_.recorder.get(); }

  protected:
    Engine(const System &sys, const HazardAnalyzer &analyzer,
           const SimOptions &opts, const char *name);

    /**
     * The engine's cycle loop: step cycles until finished, a watchdog
     * verdict, or @p max_cycles more cycles. Called once per run().
     */
    virtual void runCycles(uint64_t max_cycles) = 0;

    /** Invalidate derived views after an external array write. */
    virtual void arrayPoked(uint32_t aid) = 0;

    /** Invalidate derived views after an external FIFO write. */
    virtual void fifoPoked(uint32_t fid) { (void)fid; }

    /**
     * Rebuild every derived view (scheduler sets, nets, cones, ...)
     * from the RunState restore() just loaded.
     */
    virtual void rebuildViews() = 0;

    /** Append engine-private snapshot sections. */
    virtual void saveSections(Snapshot &snap) const { (void)snap; }

    /** Load engine-private sections (absent when the source differs). */
    virtual void loadSections(const Snapshot &snap) { (void)snap; }

    /**
     * The end-of-cycle observation point. Each engine calls it once per
     * committed cycle — after publishing every stage's activity and
     * setting `done`, before the post-cycle hooks — behind the single
     * branch `if (st_.observed)`. It feeds the timeline recorder, samples
     * the VCD and writes the text-trace line.
     */
    void observeCycle();

    /**
     * The end-of-cycle watchdog step. @p progress says whether the
     * cycle committed any architectural change; only a zero-progress
     * cycle scans the published activity for a blocked stage. External
     * pokes count as progress.
     */
    void
    checkWatchdog(bool progress)
    {
        if (!st_.opts.watchdog_window || st_.hazard_flag)
            return;
        if (st_.poked) {
            progress = true;
            st_.poked = false;
        }
        if (progress || !anyBlocked()) {
            st_.quiet_cycles = 0;
            return;
        }
        if (++st_.quiet_cycles >= st_.opts.watchdog_window)
            raiseHazard();
    }

    RunState st_;
    /** When nonempty, run() refuses to start and reports this fault. */
    std::string unrunnable_;

  private:
    /** Some stage was backpressured or kept a pending event unserved. */
    bool anyBlocked() const;
    void raiseHazard();

    const HazardAnalyzer &analyzer_;
    const char *name_;
};

} // namespace sim
} // namespace assassyn
