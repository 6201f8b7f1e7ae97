/**
 * @file
 * The Assassyn-generated cycle-accurate simulator (paper Sec. 5.1).
 *
 * The paper's toolchain emits a Rust simulator from the lowered IR; this
 * reproduction instead compiles the lowered IR into a compact register-VM
 * program per stage and drives it with the two-phase engine of Fig. 9:
 *
 *   phase 1 (stage execution): traverse the *ready set* — drivers plus
 *     stages with a pending event — in the topological order of Sec. 4.1;
 *     a ready stage evaluates its wait_until and, when it holds, runs its
 *     body. Register writes, FIFO operations and event subscriptions are
 *     buffered, not applied. Idle stages are never visited: the commit
 *     phase wakes a stage into the ready set exactly when a Subscribe to
 *     it commits, and retires it when its event counter drains, with
 *     idle_cycles/occupancy metrics reconstructed exactly from the
 *     wake/retire boundaries (tests/scheduler_test.cc).
 *   phase 2 (commit): buffered side effects commit — FIFO dequeues, then
 *     pushes (power-of-two rings, mask-indexed), register writes
 *     (write-once enforced, Fig. 9 b.2/b.3), and event-counter updates.
 *     Only state touched this cycle is visited.
 *
 * Combinational values exposed for cross-stage reference are maintained
 * by a per-stage "shadow" tape, exactly mirroring the always-on
 * combinational wires of the generated RTL; this is what makes the
 * simulator and the netlist backend cycle-exact against each other. A
 * shadow tape re-evaluates (phase 0, topological order) only when one of
 * its sensitivity inputs — the FIFOs and arrays its cone reads,
 * transitively across cross-stage references (sim/program.h) — changed
 * since its last evaluation; unchanged inputs make re-evaluation a
 * provable no-op.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ir/system.h"
#include "sim/engine.h"
#include "sim/program.h"

namespace assassyn {
namespace sim {

/** Aggregate statistics of a finished run. */
struct SimStats {
    uint64_t cycles = 0;
    uint64_t total_stage_executions = 0;
    uint64_t total_events_subscribed = 0;
    /**
     * Stage-visits the wake-list scheduler skipped: one per cycle per
     * stage with no pending event (the full-scan engine paid for each
     * of these). Event-engine only; zero on the netlist backend, so it
     * lives here rather than in the cross-backend MetricsRegistry.
     */
    uint64_t events_skipped = 0;
    /** Ready-set insertions: idle stages woken by a committed event. */
    uint64_t stages_woken = 0;
};

/**
 * Executes one compiled System. A Simulator is the *run-time* half of
 * the compile/run split (docs/architecture.md): on top of the shared
 * RunState (sim/engine.h) it owns only the event engine's private
 * state — slot store, buffered effects, the ready set, shadow
 * staleness flags and the shuffle RNG — and executes an immutable
 * sim::Program. Phase 1 publishes each visited stage's activity into
 * RunState, where the shared observers read it. Construct once, then run();
 * architectural state is inspectable through the Engine surface before
 * and after.
 */
class Simulator final : public Engine {
  public:
    /** Convenience: compiles a private Program, then runs it. */
    explicit Simulator(const System &sys, SimOptions opts = {});

    /**
     * Construct from a prebuilt compiled artifact. Allocates per-run
     * state only — no IR walking, no Step compilation — so many
     * Simulators (sequential or concurrent, each on its own thread)
     * can share one Program (docs/architecture.md, sweep.h).
     */
    explicit Simulator(std::shared_ptr<const Program> program,
                       SimOptions opts = {});
    ~Simulator() override;

    /** Run statistics so far. */
    SimStats stats() const;

    /** The immutable compiled artifact this instance executes. */
    const std::shared_ptr<const Program> &program() const;

  private:
    void runCycles(uint64_t max_cycles) override;
    void arrayPoked(uint32_t aid) override;
    void fifoPoked(uint32_t fid) override;
    void rebuildViews() override;
    void saveSections(Snapshot &snap) const override;
    void loadSections(const Snapshot &snap) override;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace sim
} // namespace assassyn
