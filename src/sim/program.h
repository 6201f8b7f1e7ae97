/**
 * @file
 * The immutable compiled artifact of the event-driven backend: the
 * compile-time half of the compile/run split (docs/architecture.md).
 *
 * The paper's pitch is "compile once, get a cycle-accurate simulator".
 * A sim::Program is that compiled simulator as a value: the dense
 * step tape of every stage, the index tables that map IR
 * entities to runtime storage, the topological schedule, the per-stage
 * sensitivity metadata driving the wake-list scheduler, and the shared
 * hazard analysis — everything derivable from the lowered System and
 * nothing else. It is built once by Program::compile() and held by
 * shared_ptr<const Program>; constructing a sim::Simulator from it
 * allocates only per-run mutable state (slots, FIFO/array storage,
 * metrics, RNG) and does **no IR walking or step compilation**
 * (tests/program_test.cc counts compile invocations to pin this).
 *
 * Tape encoding v2 (docs/architecture.md "Interpreter core"): one
 * contiguous structure-of-arrays tape of 24-byte DSteps shared by all
 * stages, addressed through per-stage [shadow | active] spans. DStep is
 * also the netlist's cell-tape record: the 30 pure opcodes leading DOp
 * are the whole vocabulary of rtl::Netlist::tape(), encoded by the same
 * encoders and run by handlers generated from the same rows
 * (sim/tape.h, the semantics kernel). The re-lowering performs operand
 * fusion the generic v1 register VM paid for at run time:
 *   - identity casts (zext/bitcast widenings, same-width sext) are
 *     dissolved into slot aliases — slotOf() resolves through them, so
 *     they cost zero steps;
 *   - non-identity casts and result truncations become single
 *     AND-with-precomputed-mask steps; no per-step width arithmetic
 *     survives to run time;
 *   - constant operands are folded: all-constant cones evaluate at
 *     compile time straight into slot initial values (zero steps); an
 *     operation with one constant operand otherwise reads the constant
 *     from its own slot, except for the four measured immediate forms
 *     (see ASSASSYN_EVENT_DOPS);
 *   - kPredAnd predicate chains are folded into the kSkipIfFalse
 *     region guards, and per-effect predicate tests are dropped
 *     entirely: every effect step is provably dominated by the skip
 *     guard of its own predicate, so reaching it implies the predicate
 *     held;
 *   - a guard whose condition is `x == K`, read by nothing else, tests
 *     x itself (kSkipIfNeImm) and the compare is never emitted; runs of
 *     such FSM state guards then collapse into one kSwitch;
 *   - the active tape is de-duplicated against the stage's shadow
 *     tape: values the shadow pass already computes (from the same
 *     start-of-cycle state) are never recomputed by the body.
 *
 * Compiled evaluators: compile() also looks the finished tape up among
 * the straight-line evaluators the build generated for the design
 * catalog (sim/event_ctx.h, docs/architecture.md "Compiled
 * evaluators") and attaches the one whose embedded tape, switch table,
 * spans and slot initial values, whose schedule (topological order,
 * drivers, shadow worklist, stall gates, wake lists), and whose shape
 * (FIFO layout, array sizes) equal this Program's byte for byte; the
 * Simulator then runs the entry's generated cycle (sim/event_cycle.h)
 * instead of the interpreted one.
 *
 * Call groups: the argument ports of one `async_call` are pushed by one
 * run of steps and popped by another, so their occupancies move
 * together. compile() proves that from the tape (buildCallGroups) and
 * the generated cycle commits each group as one unit. The groups are a
 * pure function of the tape, switch table, spans and FIFO shapes, all of
 * which the fingerprint hashes and attachCompiled() byte-checks, so an
 * attached entry's groups are this Program's. The proof covers every
 * reachable state; a restored snapshot that breaks it (members of one
 * group at different occupancies) runs the generic cycle instead
 * (sim::Simulator).
 *
 * Sensitivity metadata: for every FIFO and register array, the list of
 * stages whose shadow cone (transitively, across cross-stage exposure
 * references) reads it. The scheduler re-evaluates a shadow tape only
 * when one of its inputs changed; combined with the event wake-list
 * (Subscribe commits wake their target stage) this is what lets idle
 * stages cost zero work per cycle while remaining cycle-exact against
 * the always-on combinational wires of the netlist backend.
 *
 * Thread-safety contract: a const Program is immutable after
 * construction — no mutable members, no lazily-initialized caches — so
 * any number of Simulator instances on any number of threads may share
 * one Program concurrently (tests/parallel_determinism_test.cc). The
 * referenced System must outlive the Program, and the Program must
 * outlive every Simulator built from it (shared_ptr enforces the
 * latter).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/hazard.h"
#include "sim/tape.h"

namespace assassyn {
namespace sim {

/** The [shadow | active] spans of one stage over the tape. */
struct StageSpan {
    uint32_t shadow_begin = 0;
    uint32_t shadow_end = 0;
    uint32_t active_begin = 0;
    uint32_t active_end = 0;
};

/**
 * Where one FIFO's ring lives and how it fills: the part of its run
 * state fixed at construction (RunState::Fifo). Every field is a
 * uint32_t, so a shape has no padding and compares as bytes.
 */
struct FifoShape {
    uint32_t base = 0;   ///< offset into the FIFO arena
    uint32_t mask = 0;   ///< pow2 ring mask (ring size - 1)
    uint32_t depth = 0;  ///< architectural capacity (overflow bound)
    uint32_t policy = 0; ///< FifoPolicy

    bool operator==(const FifoShape &) const = default;
};

/**
 * The FIFO layout of @p sys, by dense fifo index (module, then port
 * declaration order): each ring the next power of two at least its
 * depth, packed in that order. RunState's constructor lays its FIFOs
 * out from it, and a Program records it for the generated cycle.
 */
std::vector<FifoShape> fifoLayout(const System &sys);

struct CompiledTape;  // sim/event_ctx.h
struct CompiledTapes; // sim/event_ctx.h
struct EventState;   // sim/event_cycle.h

/**
 * A generated two-phase cycle (sim/event_cycle.h): phases 0-2 of one
 * event-engine cycle over @p es. Returns whether the cycle committed an
 * architectural change (the watchdog's progress).
 */
using CycleFn = bool (*)(EventState &es);

/** One list of ids per index, flattened: list i is ids[at[i], at[i+1]). */
struct IdLists {
    std::vector<uint32_t> at{0};
    std::vector<uint32_t> ids;

    size_t size() const { return at.size() - 1; }

    std::span<const uint32_t>
    operator[](size_t i) const
    {
        return {ids.data() + at[i], ids.data() + at[i + 1]};
    }

    /** Append a list. */
    template <typename Range>
    void
    push(const Range &list)
    {
        ids.insert(ids.end(), list.begin(), list.end());
        at.push_back(uint32_t(ids.size()));
    }
};

/**
 * Which evaluator runs a tape: a Program's spans or an rtl::Netlist's
 * cones. kCompiled attaches the generated straight-line code of a
 * catalog design whose tape matches byte for byte (docs/architecture.md
 * "Compiled evaluators") and falls back to the interpreter otherwise;
 * kTape always interprets, for the tests and benchmarks that compare
 * the two.
 */
enum class Evaluator { kCompiled, kTape };

/** Precompiled log effect: format plus dense arg descriptors. */
struct LogArg {
    uint32_t slot = 0;
    bool sgn = false;
    uint8_t bits = 0;
};
struct LogSpec {
    const Log *inst = nullptr;
    std::vector<LogArg> args;
};

/**
 * The immutable compiled simulator of one lowered System. Build with
 * compile(); share freely across threads through the const handle.
 */
class Program {
  public:
    /**
     * Compile @p sys into a shareable Program. The System must have
     * been compiled/lowered (System::isLowered) and must outlive the
     * returned Program.
     */
    static std::shared_ptr<const Program>
    compile(const System &sys, Evaluator ev = Evaluator::kCompiled);

    /**
     * Process-wide count of Program compilations, for tests proving
     * that Simulator construction from a prebuilt Program performs no
     * compilation. Monotonic; incremented once per compile().
     */
    static uint64_t compileCount();

    const System &sys() const { return *sys_; }

    /** Initial slot values (constants materialized). */
    const std::vector<uint64_t> &slotInit() const { return slot_init_; }

    /** The step tape shared by all stages. */
    const std::vector<DStep> &tape() const { return tape_; }

    /** Jump tables of the kSwitch steps: relative skip counts, one
     *  dense key range plus a trailing miss entry per switch. */
    const std::vector<uint32_t> &switchTable() const
    {
        return switch_table_;
    }

    /**
     * The generated evaluator of this Program (its span functions and
     * its cycle), or nullptr when the tape is interpreted
     * (Evaluator::kTape, or no compiled tape matches).
     */
    const CompiledTape *compiled() const { return compiled_; }

    /** 64-bit hash of everything the generated code is specialized on:
     *  the tape, switch table, spans and slot initial values, the
     *  schedule the cycle bakes in, and the FIFO shapes and array sizes
     *  it prints as literals. The tape generator keeps one evaluator per
     *  distinct fingerprint. */
    uint64_t fingerprint() const { return fingerprint_; }

    /** The fingerprint() of everything but the array sizes: the key of
     *  an any-size catalog entry, whose cycle reads each array bound
     *  from the array state (CompiledTape::array_sizes). */
    uint64_t anySizeFingerprint() const { return any_size_fingerprint_; }

    /** Per-stage tape spans, indexed by Module::id. */
    const std::vector<StageSpan> &spans() const { return spans_; }

    /** Precompiled log effects (kLog operand a indexes this). */
    const std::vector<LogSpec> &logs() const { return logs_; }

    /** Assertion side table (kAssertEff operand b indexes this). */
    const std::vector<const AssertInst *> &asserts() const
    {
        return asserts_;
    }

    /** Whether each stage is a driver (runs every cycle, no event
     *  counter), by Module::id. */
    const std::vector<uint8_t> &drivers() const { return drivers_; }

    /** Stage execution order (module ids, topological). */
    const std::vector<uint32_t> &topoIdx() const { return topo_idx_; }

    /** Topological position of each stage, by Module::id. */
    const std::vector<uint32_t> &topoPos() const { return topo_pos_; }

    /** Module ids with a nonempty shadow span, in topological order:
     *  the scheduler's phase-0 worklist. */
    const std::vector<uint32_t> &shadowMods() const { return shadow_mods_; }

    /** Sensitivity metadata: stages whose shadow cone (transitively)
     *  reads this FIFO, by dense fifo index. A committed pop/push (or
     *  an external poke) marks exactly these shadows stale. */
    const IdLists &fifoWake() const { return fifo_wake_; }

    /** Sensitivity metadata: stages whose shadow cone (transitively)
     *  reads this register array, by RegArray::id. */
    const IdLists &arrayWake() const { return array_wake_; }

    /** kStallProducer FIFO ids gating each stage, by Module::id. */
    const IdLists &stallFifos() const { return stall_fifos_; }

    /** The FIFO shapes (fifoLayout), by dense fifo index. */
    const std::vector<FifoShape> &fifoShapes() const { return fifo_shapes_; }

    /** Each register array's element count, by RegArray::id. */
    const std::vector<uint32_t> &arraySizes() const { return array_sizes_; }

    /**
     * The call groups, as the first fifo index of each followed by the
     * FIFO count (just {0} without FIFOs): group g is the fifos
     * [at[g], at[g + 1]). Every FIFO is
     * in exactly one group, most of them alone. Ports with contiguous
     * fifo ids, one consumer and the same depth and policy share a group
     * when every step that pushes any of them sits in a straight-line
     * run (no jump target inside, no exit before its end) that pushes
     * each of them exactly once, and every step that pops any of them
     * likewise: then, from reset, their occupancies stay equal.
     */
    const std::vector<uint32_t> &callGroups() const { return call_groups_; }

    /**
     * A human-readable summary of the compiled artifact: each stage's
     * shadow and active tape lengths and its formed guards (x == K
     * guards, including those folded into switches) and switches, and
     * the call groups as `consumer: fifos [a..b]`.
     */
    std::string describe() const;

    /** The shared hazard analysis (const; safe to query concurrently). */
    const HazardAnalyzer &analyzer() const { return analyzer_; }

    /** Dense FIFO index of a port; equals sim::RunState::fifoIndex. */
    uint32_t
    fifoIndex(const Port *port) const
    {
        return port_base_[port->owner()->id()] + port->index();
    }

    /**
     * Dense slot of a value (after cross-stage reference chasing and
     * identity-cast alias resolution: a zext/bitcast widening or
     * same-width sext shares its operand's slot).
     */
    uint32_t slotOf(const Value *val) const;

  private:
    explicit Program(const System &sys);
    friend struct ProgCompiler; ///< the step compiler (sim/program.cc)
    friend struct ProgramTestPeer; ///< tests: attach a test-built entry

    void build();
    void attachCompiled(const CompiledTapes &all);
    void buildAliases();
    void buildSwitches();
    void buildCallGroups();
    uint32_t aliasOf(const Value *val);
    void compileModule(const Module &mod, std::vector<uint32_t> &ext_mods,
                       std::vector<uint32_t> &fifo_deps,
                       std::vector<uint32_t> &arr_deps);
    uint32_t rawSlotOf(const Value *val) const;

    const System *sys_;
    HazardAnalyzer analyzer_;
    std::vector<uint64_t> slot_init_;
    // Build-time constant tracking: 1 when the slot's value is fully
    // known at compile time (a ConstInt, or a pure cone folded over
    // constants). Drives constant folding, the immediate forms and
    // guard formation; never consulted at run time.
    std::vector<uint8_t> slot_is_const_;
    uint32_t num_fifos_ = 0;
    std::vector<FifoShape> fifo_shapes_; ///< by fifo index
    std::vector<uint32_t> array_sizes_;  ///< by RegArray::id
    std::vector<DStep> tape_;      ///< SoA tape (all stages)
    std::vector<uint32_t> switch_table_; ///< kSwitch jump tables
    std::vector<StageSpan> spans_; ///< indexed by Module::id
    std::vector<LogSpec> logs_;
    std::vector<const AssertInst *> asserts_;
    std::vector<uint32_t> topo_idx_; ///< execution order (mod ids)
    std::vector<uint32_t> topo_pos_; ///< inverse of topo_idx_
    std::vector<uint32_t> shadow_mods_;
    std::vector<uint8_t> drivers_; ///< by Module::id
    uint64_t fingerprint_ = 0;
    uint64_t any_size_fingerprint_ = 0;
    const CompiledTape *compiled_ = nullptr;
    std::vector<uint32_t> call_groups_; ///< callGroups()
    IdLists fifo_wake_;  ///< by fifo index
    IdLists array_wake_; ///< by RegArray::id
    // Dense compile-time index tables: a port's FIFO is
    // port_base[owner id] + port index, a value's slot is
    // slot_base[parent id] + value id,
    // resolved through the identity-cast alias table.
    std::vector<uint32_t> port_base_; ///< by Module::id
    std::vector<uint32_t> slot_base_; ///< by Module::id
    std::vector<uint32_t> alias_;     ///< raw slot -> canonical slot
    std::vector<uint8_t> alias_done_;
    IdLists stall_fifos_; ///< by Module::id
};

} // namespace sim
} // namespace assassyn
