/**
 * @file
 * The hazard-aware runtime layer shared by both execution backends.
 *
 * Both sim::Simulator (the event-driven engine of paper Sec. 5.1) and
 * rtl::NetlistSim (the Verilator stand-in of Sec. 5.2) can end a run in
 * one of three bad ways: a simulated-design fault (FIFO overflow under
 * the Abort policy, assertion failure, event-counter overflow), a
 * deadlock (every ready stage blocked on an architectural condition that
 * can never change), or a livelock (a stage spinning forever on an
 * explicit wait_until). This header gives all of them one structured
 * vocabulary:
 *
 *  - RunStatus / RunResult: what run() returns instead of throwing for
 *    design-level failures, so metrics, traces, and waveforms survive
 *    every failure mode;
 *  - HazardReport / WaitForEdge: the wait-for graph a watchdog renders
 *    when it detects a zero-progress window — which stage is blocked,
 *    why (the stall-reason vocabulary of the event trace), and which
 *    FIFO / producer it is waiting on;
 *  - HazardAnalyzer: the shared analysis, built once from the lowered
 *    System, that reads the shared run state (sim/engine.h) — the stage
 *    activity each engine publishes, pending events, FIFO occupancy.
 *    Because it walks the same IR in the same deterministic order, the
 *    rendered report is byte-identical across backends — the alignment
 *    guarantee extended to failure diagnostics.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ir/system.h"

namespace assassyn {
namespace sim {

struct RunState;

/** How a run ended. */
enum class RunStatus : uint8_t {
    kFinished,  ///< a finish() committed
    kMaxCycles, ///< the cycle budget elapsed with no verdict
    kDeadlock,  ///< watchdog: zero progress, no explicit wait involved
    kLivelock,  ///< watchdog: zero progress, a wait_until spinning forever
    kFault,     ///< a simulated-design fault (overflow, assertion, ...)
};

const char *runStatusName(RunStatus status);

/**
 * Why @p mod spins on its wait_until: "wait_until" for the developer's
 * own guard, "fifo_empty" for the argument-validity wait the compiler
 * synthesized (an input FIFO is still empty). A stage gated by a full
 * output FIFO is blocked on "fifo_full" instead.
 */
const char *waitReason(const Module &mod);

/** One blocked stage in the wait-for graph. */
struct WaitForEdge {
    std::string stage;    ///< the blocked stage
    std::string reason;   ///< "wait_until" | "fifo_empty" | "fifo_full"
    uint64_t pending = 0; ///< pending events retained by the stage
    std::string fifo;     ///< the FIFO waited on; empty if none named
    std::string peer;     ///< its producers (empty FIFO) / owner (full FIFO)
};

/** The watchdog's diagnosis of a zero-progress window. */
struct HazardReport {
    std::string kind;           ///< "deadlock" | "livelock"; empty if none
    uint64_t detected_cycle = 0;///< cycle index at which the window closed
    uint64_t window = 0;        ///< consecutive zero-progress cycles seen
    std::vector<WaitForEdge> waiting; ///< deterministic (topo) order

    bool empty() const { return waiting.empty() && kind.empty(); }

    /**
     * Render the full report. Both backends produce this from the same
     * IR walk and cycle-aligned state, so the text is byte-identical
     * across sim::Simulator and rtl::NetlistSim for the same design —
     * tests/hazard_test.cc pins that.
     */
    std::string toString() const;
};

/** What run() returns. */
struct RunResult {
    RunStatus status = RunStatus::kMaxCycles;
    uint64_t cycles = 0;  ///< cycles simulated by this run() call
    HazardReport hazard;  ///< set for deadlock/livelock (and max-cycles)
    std::string error;    ///< the fatal message for status == kFault

    bool ok() const { return status == RunStatus::kFinished; }
};

/**
 * The shared hazard analysis. Construction walks the lowered IR once:
 * per-port producer lists (who pushes into each FIFO), per-module wait
 * sets (the FIFOs whose validity feeds the module's wait_until cone),
 * and per-module stall sets (the kStallProducer FIFOs the module pushes
 * into). At detection time it reads the engine's run state and returns
 * the wait-for graph.
 */
class HazardAnalyzer {
  public:
    explicit HazardAnalyzer(const System &sys);

    /**
     * Diagnose @p st at the end of its last committed cycle: stages that
     * executed are not blocked; the rest are judged by their retained
     * events and the end-of-cycle occupancy of the FIFOs they wait on.
     * Stages are visited in topological order, so the report is
     * deterministic and identical across backends.
     */
    HazardReport analyze(const RunState &st, uint64_t window) const;

    /** Stages pushing into @p port, in module declaration order. */
    const std::vector<const Module *> &producersOf(const Port *port) const;

    /** kStallProducer FIFOs @p mod pushes into (the stall gate set). */
    const std::vector<const Port *> &stallPorts(const Module *mod) const;

    /** FIFOs whose validity feeds @p mod's wait_until cone. */
    const std::vector<const Port *> &waitPorts(const Module *mod) const;

  private:
    const System *sys_;
    std::map<const Port *, std::vector<const Module *>> producers_;
    std::map<const Module *, std::vector<const Port *>> wait_ports_;
    std::map<const Module *, std::vector<const Port *>> stall_ports_;
    std::vector<const Module *> empty_mods_;
    std::vector<const Port *> empty_ports_;
};

} // namespace sim
} // namespace assassyn
