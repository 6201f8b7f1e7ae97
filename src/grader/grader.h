/**
 * @file
 * The differential grader: golden-model retirement diffing of the DSL
 * CPUs across both execution backends (docs/grading.md).
 *
 * One grade runs a corpus program (grader/corpus.h) on a device under
 * test — the in-order core (designs/cpu.h) or the OoO core
 * (designs/ooo.h), executed by either the event-driven sim::Simulator
 * or the RTL-level rtl::NetlistSim — in lockstep against the functional
 * ISS (isa/iss.h). At every retirement the DUT's architectural state is
 * diffed against the golden model:
 *
 *  - the retired pc (the cores' ret_pc register) against the ISS pc of
 *    the same dynamic instruction;
 *  - the full 32-entry register file (both cores write the destination
 *    register in the same cycle the retirement counter increments);
 *  - memory, as an ordered visible-store match: the ISS pre-run records
 *    every store that changes memory, and each per-cycle memory change
 *    observed on the DUT must be the next store of that sequence. The
 *    order-based match absorbs the in-order core's store skew (stores
 *    commit at MEM, up to two cycles before their retirement) without
 *    weakening the check.
 *
 * The first mismatch is frozen into a Divergence naming the retirement
 * index, cycle, pc, and state delta; the run's Verdict serializes it.
 * Verdict::toJson() deliberately excludes the engine and wall-clock, so
 * a fault injected via sim::FaultSpec produces byte-identical verdicts
 * on both backends — the cycle-alignment guarantee extended to failure
 * reporting (tests/grader_verdict_test.cc pins exactly this).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grader/corpus.h"
#include "sim/fault.h"

namespace assassyn {
namespace grader {

/** Which CPU design is under test. */
enum class Core : uint8_t {
    kInOrder, ///< designs/cpu.h, always-taken variant
    kOoO,     ///< designs/ooo.h
};

/** Which execution backend runs the design. */
enum class Engine : uint8_t {
    kEvent,   ///< sim::Simulator
    kNetlist, ///< rtl::NetlistSim
};

const char *coreName(Core core);
const char *engineName(Engine engine);

/** How a grade ended. */
enum class GradeStatus : uint8_t {
    kPass,     ///< ran to ECALL, zero divergences, final state golden
    kDiverged, ///< architectural state left the golden trajectory
    kFault,    ///< the simulated design faulted (RunStatus::kFault)
    kHazard,   ///< watchdog verdict (deadlock / livelock)
    kTimeout,  ///< cycle budget elapsed before ECALL
};

const char *gradeStatusName(GradeStatus status);

/** One disagreeing piece of architectural state. */
struct StateDelta {
    std::string kind;      ///< "reg", "pc", "mem", "retired"
    uint64_t index = 0;    ///< register number or word address
    uint64_t expected = 0; ///< golden-model value
    uint64_t actual = 0;   ///< DUT value
};

/** The first point where the DUT left the golden trajectory. */
struct Divergence {
    uint64_t retirement = 0; ///< 1-based index of the divergent retirement
    uint64_t cycle = 0;      ///< DUT cycle the divergence was observed
    uint64_t pc = 0;         ///< golden pc of that retirement
    std::string kind;        ///< "pc", "reg", "mem", "final-state"
    std::vector<StateDelta> deltas; ///< capped at GradeOptions::max_deltas
};

/** The outcome of grading one program on one core. */
struct Verdict {
    std::string program;
    Core core = Core::kInOrder;
    GradeStatus status = GradeStatus::kPass;
    uint64_t retirements = 0;    ///< DUT retirements observed
    uint64_t golden_retired = 0; ///< ISS retirement count
    uint64_t cycles = 0;         ///< DUT cycles simulated
    double ipc = 0.0;            ///< retirements / cycles
    std::string error;           ///< fault / hazard message, if any
    std::optional<Divergence> divergence;

    bool pass() const { return status == GradeStatus::kPass; }

    /**
     * The verdict as a JSON object. Excludes the engine and any timing
     * by design: the same (program, core, fault) graded on both
     * backends must render byte-identically.
     */
    std::string toJson() const;
};

/** Knobs of one grading run. */
struct GradeOptions {
    /** Optional deterministic fault plan (sim/fault.h). */
    std::optional<sim::FaultSpec> fault;

    /** When nonempty, record the DUT's Perfetto timeline here. */
    std::string timeline_path;

    /** Shuffle stage order on the event backend (alignment stays). */
    bool shuffle = false;
    uint64_t shuffle_seed = 1;

    /** Cap on deltas recorded per divergence. */
    size_t max_deltas = 8;

    /**
     * Periodic checkpointing (docs/robustness.md): when nonzero AND
     * ckpt_path is nonempty, the grade runs in ckpt_every-cycle slices
     * and persists a checkpoint after each slice — the engine snapshot
     * plus a "grader" section carrying the lockstep diffing cursor, so
     * a resumed grade reproduces the uninterrupted verdict byte for
     * byte.
     */
    uint64_t ckpt_every = 0;
    std::string ckpt_path; ///< manifest path for periodic checkpoints

    /** When nonempty, resume the grade from this checkpoint manifest. */
    std::string resume_from;
};

/**
 * Grade one program on one core under one engine: the one-job case of
 * gradeCorpus().
 */
Verdict gradeProgram(const CorpusProgram &program, Core core,
                     Engine engine, const GradeOptions &opts = {});

/**
 * The one-command `replay` repro of a (typically failed) grade: the
 * workload (corpus file, or --fuzz-seed for generated programs), core,
 * engine, shuffle seed, fault plan, checkpoint, and a --until pinned to
 * the frozen divergence cycle (falling back to the final cycle for
 * fault/hazard/timeout verdicts). Deterministic replay guarantees the
 * command lands stopped at the offending cycle (tests/debug_test.cc).
 */
std::string reproCommand(const CorpusProgram &program, Core core,
                         Engine engine, const GradeOptions &opts,
                         const Verdict &verdict);

/** One verdict plus the run context the verdict itself excludes. */
struct GradeRun {
    Engine engine = Engine::kEvent;
    /**
     * Wall-clock of this grade alone: assembling the image, the golden
     * pre-run, engine construction and image load, and the run. The
     * core's build and compile are shared by the call's grades and
     * counted once, in GradeReport::setup_seconds.
     */
    double seconds = 0.0;
    Verdict verdict;

    /**
     * For a failed verdict: the one-command `replay` invocation
     * (sim/repro.h, docs/debugging.md) that rebuilds this exact run and
     * stops at the divergence/failure cycle. Empty on a pass. Lives
     * here — not in the Verdict — because the recipe names the engine,
     * which Verdict::toJson() excludes by design; the field is additive
     * in the assassyn.grade.v1 runs[] objects.
     */
    std::string repro;
};

/** The aggregated outcome of grading a corpus. */
struct GradeReport {
    std::vector<GradeRun> runs; ///< program-major, core, then engine

    /**
     * Wall-clock of building the shared cores, summed over cores: each
     * (core, mem_words) pair's elaboration and compiler passes, plus its
     * sim::Program and rtl::Netlist for the engines requested. Additive
     * in assassyn.grade.v1.
     */
    double setup_seconds = 0.0;

    /** True when every verdict passed. */
    bool allPass() const;

    /** The machine-readable report (schema assassyn.grade.v1). */
    std::string toJson(const std::string &corpus) const;

    /** Write toJson() to @p path. */
    void write(const std::string &path, const std::string &corpus) const;
};

/**
 * Grade every program of @p programs on every requested core and
 * engine, distributing grades over @p workers threads
 * (sim::parallelFor). Each distinct (core, mem_words) pair is
 * elaborated and compiled once, over a blank memory image, and shared
 * by every grade on it; each grade then loads its program's image into
 * a fresh engine before cycle 0. Results keep (program, core, engine)
 * order regardless of completion order.
 */
GradeReport gradeCorpus(const std::vector<CorpusProgram> &programs,
                        const std::vector<Core> &cores,
                        const std::vector<Engine> &engines,
                        const GradeOptions &opts = {}, size_t workers = 1);

} // namespace grader
} // namespace assassyn
