/**
 * @file
 * DebugSession: deterministic time-travel debugging over either engine
 * (docs/debugging.md).
 *
 * The session drives a live sim::Engine (sim::Simulator or
 * rtl::NetlistSim) through one stepping interface — runTo / stepCycles
 * / reverseStep / reverseTo — in single-cycle run(1) slices. Slicing is
 * free of observable effect: PR 7's checkpoint work pins that run(1) loops are
 * byte-identical to run(N) in metrics, logs, and timelines, which is
 * the property that makes everything here composition rather than new
 * engine machinery.
 *
 * Reverse execution restores the nearest automatic keyframe — an
 * in-memory engine snapshot taken every keyframe_every cycles into a
 * bounded ring — and re-executes forward deterministically. Faults
 * re-fire identically (the sim::FaultInjector plan is a pure function
 * of (System, spec)), the trace recorder rewinds with the snapshot, and
 * hit/stall history is truncated to the keyframe and regenerated
 * during replay, so a reverseTo(k) followed by runTo(N) is
 * byte-identical to the uninterrupted run (tests/debug_test.cc pins
 * this on both backends, both CPUs, with mid-flight faults).
 *
 * Breakpoints and watchpoints evaluate *committed* end-of-cycle state
 * between slices — IR value cones via debug/eval.h, array/FIFO/exec
 * event deltas via the Engine's StageCounters / FifoTraffic
 * accessors — so hit cycles are identical across backends and shuffle
 * seeds by construction. A stop at cycle C means C cycles have
 * committed and the next step executes cycle index C: a grader repro
 * with --until pinned at the frozen divergence cycle lands exactly one
 * `step` away from watching the divergence commit.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/engine.h"
#include "sim/fault.h"

namespace assassyn {
namespace debug {

/** Session knobs; the defaults suit corpus-sized runs. */
struct DebugOptions {
    /**
     * Keyframe period K: reverse work is bounded by K-1 re-executed
     * cycles, memory by keyframe_ring snapshots. 0 disables automatic
     * keyframes (reverse then always re-executes from session start).
     */
    uint64_t keyframe_every = 1024;

    /** Ring bound on retained keyframes; the oldest falls out first. */
    size_t keyframe_ring = 16;

    /** Bound on the retained stall-reason history (`bt`). */
    size_t stall_history = 64;
};

/** Why stepping returned. */
enum class StopKind : uint8_t {
    kNone,       ///< nothing ran (empty step)
    kCycle,      ///< target cycle reached
    kBreakpoint, ///< a stopping breakpoint hit
    kFinished,   ///< the design executed finish()
    kVerdict,    ///< watchdog deadlock/livelock verdict
    kFault,      ///< the simulated design faulted
};

const char *stopKindName(StopKind kind);

/** Where and why stepping stopped. */
struct Stop {
    StopKind kind = StopKind::kNone;
    uint64_t cycle = 0; ///< committed cycles at the stop boundary
    std::string what;   ///< breakpoint spec / fault text / verdict
    int index = -1;     ///< breakpoint index when kind == kBreakpoint
};

/** One registered break/watch, as listed by breakpoints(). */
struct Breakpoint {
    std::string spec;   ///< the grammar string it was created from
    bool stops = true;  ///< break (stops) vs watch (records only)
    bool enabled = true;
    uint64_t hits = 0;
};

/** One recorded break/watch hit. */
struct HitRecord {
    uint64_t cycle = 0; ///< boundary at which the hit was observed
    int index = -1;     ///< breakpoints() index
    std::string spec;
    std::string detail; ///< e.g. "42 -> 43", the fault target, ...
};

/** One recorded stall reason (the `bt` surface). */
struct StallRecord {
    uint64_t cycle = 0;
    std::string stage;
    std::string reason; ///< "backpressure stall" / "wait_until spin"
};

/**
 * One deterministic replay session over a live engine instance. The
 * session does not own the engine; it owns every piece of debugging
 * state (keyframes, breakpoints, histories). Construct it *after*
 * restoring any starting checkpoint into the engine — the base
 * keyframe, which reverse can always fall back to, is taken here.
 */
class DebugSession {
  public:
    DebugSession(sim::Engine &engine, const System &sys,
                 DebugOptions opts = {});
    ~DebugSession();

    DebugSession(const DebugSession &) = delete;
    DebugSession &operator=(const DebugSession &) = delete;

    // --- Stepping -----------------------------------------------------------

    /** Run forward @p n cycles (honoring breakpoints). */
    Stop stepCycles(uint64_t n);

    /**
     * Run forward until cycle() == @p target (honoring breakpoints);
     * a target at or behind the current cycle is a no-op kCycle stop.
     */
    Stop runTo(uint64_t target);

    /** Step backward @p n cycles (clamped at the session start). */
    Stop reverseStep(uint64_t n);

    /**
     * Land at cycle() == @p target in the past: restore the nearest
     * keyframe at or before the target and re-execute forward with
     * breakpoint *stops* suppressed (hit/stall history for the
     * replayed span is regenerated identically). Fatals on a target
     * before the session-start cycle. A target at or beyond the
     * current cycle delegates to runTo.
     */
    Stop reverseTo(uint64_t target);

    uint64_t cycle() const;
    bool finished() const;

    /** Engine label of the wrapped backend ("event" / "netlist"). */
    const std::string &engine() const;

    // --- Breakpoints / watchpoints ------------------------------------------

    /**
     * Register a stopping breakpoint. Grammar (docs/debugging.md):
     *   mod.value            committed value changed
     *   mod.value==K         committed value became K (edge-triggered)
     *   exec:mod             stage body executed this cycle
     *   array:name           any committed write to the array
     *   array:name[i]        element i changed
     *   fifo:mod.port        any committed push or pop
     *   fifo:mod.port:push   committed push
     *   fifo:mod.port:pop    committed pop
     *   fifo:mod.port:overflow  overflow drop committed
     *   fault                a fault-injection instant fired
     *   hazard               watchdog verdict (always also a Stop)
     * Returns the breakpoint index. Bad grammar or unknown names are
     * structured FatalErrors.
     */
    int addBreak(const std::string &spec);

    /** Register a non-stopping watchpoint (records hits only). */
    int addWatch(const std::string &spec);

    void setBreakEnabled(int index, bool enabled);
    const std::vector<Breakpoint> &breakpoints() const;
    const std::vector<HitRecord> &hits() const;

    /**
     * Observe @p injector for "fault" break/watch specs and hit
     * records. The injector must outlive the session and stay attached
     * to the same engine instance.
     */
    void watchFaults(const sim::FaultInjector *injector);

    // --- Inspection ---------------------------------------------------------

    /** Evaluate "mod.value" over committed state (debug/eval.h). */
    uint64_t read(const std::string &name) const;
    uint64_t readValue(const Value *value) const;

    /** Live FIFO contents, head first. */
    std::vector<uint64_t> fifoContents(const Port *port) const;
    std::vector<uint64_t> fifoContents(const std::string &name) const;

    /** Elements [lo, lo+n) of a register array (clamped to size). */
    std::vector<uint64_t> arraySlice(const RegArray *array, size_t lo,
                                     size_t n) const;
    std::vector<uint64_t> arraySlice(const std::string &name, size_t lo,
                                     size_t n) const;

    /** The last @p n recorded stall reasons, oldest first. */
    std::vector<StallRecord> stallReasons(size_t n) const;

    sim::MetricsRegistry metrics() const;
    const std::vector<std::string> &logOutput() const;

    // --- Name resolution (shared with the replay CLI) -----------------------

    const Value *resolveValue(const std::string &name) const;
    const Port *resolvePort(const std::string &name) const;
    const RegArray *resolveArray(const std::string &name) const;

    // --- Session accounting / summary ---------------------------------------

    uint64_t keyframesTaken() const;
    uint64_t keyframesEvicted() const;
    uint64_t keyframesRestored() const;
    uint64_t cyclesRun() const;
    uint64_t cyclesReexecuted() const;

    /** The session summary (schema assassyn.debug.v1). */
    std::string summaryJson() const;
    void writeSummary(const std::string &path) const;

    const System &system() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace debug
} // namespace assassyn
