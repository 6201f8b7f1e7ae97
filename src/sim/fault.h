/**
 * @file
 * Deterministic, seeded fault injection for both execution backends.
 *
 * The differential metrics harness (tests/metrics_alignment_test.cc)
 * claims it would catch any divergence between the event-driven
 * simulator and the RTL netlist simulator. This harness proves it: it
 * flips scheduled bits in register arrays and FIFO payloads — the same
 * bits, at the same cycles, in whichever backend it is attached to — so
 * a corrupted run must either diverge identically on both backends (and
 * the harness still reports alignment) or differ from the clean run's
 * snapshot (and the harness flags it). The paper's cycle-alignment
 * guarantee thus extends to fault behaviour.
 *
 * The entire injection plan is derived up front from (System, FaultSpec)
 * through support/rng.h, with no draws at fire time, so a plan is a pure
 * function of its inputs: repeat runs are bit-identical, and two
 * injectors built from the same spec (one per backend) fire the same
 * faults. Attach one injector to exactly one simulator.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ir/system.h"

namespace assassyn {
namespace sim {

class Engine;

/** What to corrupt, where, and when. */
struct FaultSpec {
    uint64_t seed = 1;        ///< RNG seed; the whole plan derives from it
    uint64_t count = 1;       ///< number of single-bit faults to schedule
    uint64_t first_cycle = 0; ///< inclusive injection window start
    uint64_t last_cycle = 0;  ///< inclusive injection window end
    bool arrays = true;       ///< target register arrays
    bool fifos = true;        ///< target FIFO payloads
    bool include_memories = false; ///< also target backing memories
};

/** One fired (or skipped) fault, for reporting and determinism checks. */
struct FaultRecord {
    uint64_t cycle = 0;
    std::string target; ///< e.g. "array 'pc[0]' bit 3", "fifo 'sink.x[1]' bit 7"
    uint64_t before = 0;
    uint64_t after = 0;
    bool applied = false; ///< false when the target FIFO was empty
};

/**
 * Schedules and applies the faults of one FaultSpec to either engine
 * (sim/engine.h); faults fire in a pre-cycle hook, corrupting state as
 * seen at the start of the scheduled cycle.
 */
class FaultInjector {
  public:
    FaultInjector(const System &sys, FaultSpec spec);

    /**
     * Register the injection hook on @p engine; this injector must stay
     * alive while the engine runs. Attach to one engine only.
     */
    void attach(Engine &engine);

    /** Apply every fault scheduled for @p cycle to @p engine. */
    void fire(uint64_t cycle, Engine &engine);

    /** Faults scheduled (a pure function of the System and the spec). */
    size_t planned() const { return plan_.size(); }

    /** Faults fired so far, in firing order. */
    const std::vector<FaultRecord> &records() const { return records_; }

    /** One line per fired fault; identical across aligned backends. */
    std::string summary() const;

  private:
    struct PlannedFault {
        uint64_t cycle = 0;
        bool is_array = false;
        const RegArray *array = nullptr;
        size_t elem = 0;
        const Port *port = nullptr;
        uint64_t entry_roll = 0; ///< picks the entry: roll % occupancy
        unsigned bit = 0;
    };

    std::vector<PlannedFault> plan_;
    std::vector<FaultRecord> records_;
};

} // namespace sim
} // namespace assassyn
