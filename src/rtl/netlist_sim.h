/**
 * @file
 * The RTL-level cycle simulator: this repo's stand-in for Verilator.
 *
 * Unlike the event-driven simulator (src/sim), which lowers each stage
 * to a bytecode tape and runs only the stages with pending events, this
 * simulator evaluates all of the elaborated netlist's cells, then
 * commits every sequential block — the cost structure of an RTL
 * simulator. The netlist is levelized once at elaboration, so each
 * cycle is exactly one pass over the cells (no settle loop), with
 * per-stage activity gating skipping cones whose inputs are unchanged
 * (docs/performance.md). The cells are executed from the Netlist's
 * pre-decoded tape (Netlist::tape(): one handler per semantic op,
 * threaded dispatch), the same interpreter technique as the event
 * engine's, so the two engines differ in what they evaluate each cycle,
 * not in how well they interpret it. The paper's Q5 speedup (2.2-8.1x)
 * comes from the backends' remaining cost difference, and its Q5
 * alignment claim is validated by running one design through both
 * engines and comparing cycle counts, committed state, and log output
 * byte for byte.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/netlist.h"
#include "sim/ckpt.h"
#include "sim/hazard.h"
#include "sim/metrics.h"
#include "sim/trace.h"
#include "support/hooks.h"

namespace assassyn {
namespace rtl {

/** Runtime configuration of a netlist-level simulation. */
struct NetlistSimOptions {
    /** Collect $display output; disable for throughput benchmarks. */
    bool capture_logs = true;

    /**
     * Pending-event counter bound. The generated RTL uses an 8-bit
     * counter, hence the 255 default; kept configurable so differential
     * tests can tighten it in lockstep with SimOptions.
     */
    uint64_t max_pending_events = 255;

    /**
     * Saturate (instead of abort) when an event counter hits the bound,
     * mirroring sim::SimOptions::saturate_events so both backends stay
     * bit-identical under overflow.
     */
    bool saturate_events = false;

    /**
     * Deadlock/livelock watchdog window, in lockstep with
     * sim::SimOptions::watchdog_window: after this many consecutive
     * zero-progress cycles with a blocked stage, run() stops with a
     * wait-for-graph diagnosis byte-identical to the event simulator's.
     * 0 disables.
     */
    uint64_t watchdog_window = 1024;

    /**
     * When nonempty, record the structured Chrome-trace / Perfetto
     * timeline here (sim/trace.h, schema assassyn.trace.v1),
     * byte-identical to the sim::Simulator trace of the same design
     * and seed. Off (empty) by default; see docs/observability.md.
     */
    std::string timeline_path = {};

    /**
     * Ring bound on retained timeline events, in lockstep with
     * sim::SimOptions::timeline_events so both backends drop the
     * identical oldest prefix.
     */
    size_t timeline_events = size_t(1) << 20;
};

/** Executes an elaborated Netlist cycle by cycle. */
class NetlistSim {
  public:
    explicit NetlistSim(const Netlist &nl, NetlistSimOptions opts = {});
    ~NetlistSim();

    NetlistSim(const NetlistSim &) = delete;
    NetlistSim &operator=(const NetlistSim &) = delete;

    /**
     * Run until $finish, @p max_cycles, a watchdog hazard, or a design
     * fault. Same structured-result contract as sim::Simulator::run —
     * design faults return RunResult::kFault instead of throwing, and
     * the hazard report is byte-identical to the event simulator's for
     * the same design. A netlist with a residual combinational cycle
     * (Netlist::levelized() false) returns kFault immediately, carrying
     * the diagnostic that names the offending cells.
     */
    sim::RunResult run(uint64_t max_cycles);

    bool finished() const;
    uint64_t cycle() const;

    uint64_t readArray(const RegArray *array, size_t index) const;
    void writeArray(const RegArray *array, size_t index, uint64_t value);

    /** Current number of entries in a port's FIFO. */
    uint64_t fifoOccupancy(const Port *port) const;

    /** Read the FIFO entry @p pos slots behind the head (0 = head). */
    uint64_t readFifo(const Port *port, size_t pos) const;

    /** Overwrite a live FIFO entry (fault injection / testbench poke). */
    void writeFifo(const Port *port, size_t pos, uint64_t value);

    const std::vector<std::string> &logOutput() const;

    /** Current value of a net (post the last evaluated cycle). */
    uint64_t netValue(uint32_t net) const;

    /**
     * Point-in-time scheduler counters for one stage (sim/metrics.h),
     * identical in signature and value to
     * sim::Simulator::stageCounters — the debugger's per-cycle polling
     * surface (src/debug/).
     */
    sim::StageCounters stageCounters(const Module *mod) const;

    /** Point-in-time traffic counters for one FIFO (same contract). */
    sim::FifoTraffic fifoTraffic(const Port *port) const;

    /** Committed write count of one register array (same contract). */
    uint64_t arrayWrites(const RegArray *array) const;

    /**
     * Snapshot of the same counters and histograms the event-driven
     * simulator collects (sim/metrics.h), measured from the netlist:
     * the paper's cycle-alignment guarantee extends to every key here.
     */
    sim::MetricsRegistry metrics() const;

    /**
     * Serialize every piece of mutable run state into an
     * engine-portable sim::Snapshot (sim/ckpt.h). Sections are keyed
     * off the shared System IR (never netlist-private dense ids), so
     * for the same design at the same cycle they are byte-identical to
     * a sim::Simulator snapshot. Nets are *not* serialized: step()
     * re-derives every state-driven net from sequential state at the
     * top of each cycle, so the sequential sections alone reconstruct
     * the machine. Must be taken between run() calls; a run that ended
     * with a watchdog verdict fatal()s here.
     */
    sim::Snapshot snapshot() const;

    /**
     * Rewind this instance to @p snap (from either engine). Layout
     * mismatches are structured FatalErrors. Nets are zeroed,
     * constants re-applied, and every activity-gating cone
     * invalidated, so the first resumed cycle re-evaluates everything
     * from the restored sequential state.
     */
    void restore(const sim::Snapshot &snap);

    /** Hook fired before each cycle's combinational evaluation. */
    void addPreCycleHook(CycleHook hook);

    /** Hook fired after each cycle's sequential commit. */
    void addPostCycleHook(CycleHook hook);

    /**
     * The timeline recorder (sim/trace.h), or nullptr when
     * NetlistSimOptions::timeline_path is empty. Exposed for
     * dropped-span accounting in tests and for fault-injection event
     * routing.
     */
    sim::TraceRecorder *traceRecorder() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rtl
} // namespace assassyn
