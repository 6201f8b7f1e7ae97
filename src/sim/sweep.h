/**
 * @file
 * The parallel sweep runner: batch simulation over one compiled design
 * (docs/architecture.md).
 *
 * The compile/run split makes a compiled artifact — a sim::Program or a
 * const rtl::Netlist — immutable and shareable, so N runs of the same
 * design (seed sweeps, workload sweeps, fault campaigns) pay ONE compile
 * and then execute concurrently, one instance per worker thread. This
 * header is the harness around that: describe each run as a RunConfig,
 * hand runSweep() an InstanceFn that turns a config into a finished
 * InstanceResult, and get back a SweepReport with per-run RunResults,
 * per-run metrics, merged metrics, and a JSON rendering.
 *
 * Layering note: assassyn_rtl links against assassyn_sim, not the other
 * way around, so this header never names rtl types. Any engine runs
 * through instanceOf(), which takes a factory returning a
 * std::unique_ptr<Engine>; eventInstance() is that factory for the
 * event engine. Determinism contract: an InstanceFn must depend only on its
 * RunConfig, so results are independent of worker count and of the
 * order instances get picked up — tests/parallel_determinism_test.cc
 * pins sweep output byte-identical across workers={1,2,4,8}.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/program.h"
#include "sim/repro.h"
#include "sim/simulator.h"

namespace assassyn {
namespace sim {

/**
 * Run @p fn(i) for every i in [0, n), distributed over @p workers
 * threads pulling indices from a shared atomic counter. Blocks until
 * every index completed. workers <= 1 (or n <= 1) degrades to a plain
 * serial loop on the calling thread. An exception thrown by any fn(i)
 * is captured and rethrown on the calling thread after the pool drains
 * (first one wins; remaining indices are still consumed, cheaply).
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                 size_t workers);

/** One run of the sweep: everything that may vary between instances. */
struct RunConfig {
    std::string name;                 ///< report key (must be unique)
    uint64_t max_cycles = 50'000'000; ///< per-run cycle budget
    SimOptions sim;                   ///< seed, shuffle, logs, traces, ...
    std::optional<FaultSpec> fault;   ///< optional fault-injection plan

    /**
     * Periodic checkpointing (docs/robustness.md): when nonzero AND
     * ckpt_path is nonempty, the instance runs in ckpt_every-cycle
     * slices and writes a checkpoint (sim/ckpt.h, manifest + binary)
     * after each slice. Because a checkpoint restores byte-identically,
     * slicing does not perturb results; parallel_determinism_test-style
     * invariance holds with any ckpt_every value.
     */
    uint64_t ckpt_every = 0;
    std::string ckpt_path; ///< manifest path for periodic checkpoints

    /**
     * When nonempty, restore from this checkpoint manifest before
     * running; max_cycles stays an *absolute* cycle budget (the resumed
     * run executes max_cycles - checkpoint_cycle more cycles).
     */
    std::string resume_from;
};

/** What one instance produced. */
struct InstanceResult {
    std::string name;      ///< copied from the RunConfig
    RunResult result;      ///< how the run ended
    uint64_t end_cycle = 0;///< simulator cycle() after the run
    double seconds = 0.0;  ///< wall-clock of this instance alone
    MetricsRegistry metrics;
    std::vector<std::string> logs; ///< captured log() lines, if enabled

    /**
     * Repro recipe (sim/repro.h) attached when the run ended badly — a
     * watchdog or fault verdict, including an instance that threw. The
     * design name is only known at report time, so SweepReport::toJson
     * fills it in and renders the one-command `replay` invocation as the
     * run's additive "repro" field (docs/debugging.md).
     */
    std::optional<ReproSpec> repro;
};

/** Turns one RunConfig into a finished InstanceResult. */
using InstanceFn = std::function<InstanceResult(const RunConfig &)>;

/** The aggregated outcome of one runSweep() call. */
struct SweepReport {
    size_t workers = 1;   ///< thread count the sweep ran with
    double seconds = 0.0; ///< wall-clock of the whole batch
    std::vector<InstanceResult> runs; ///< in RunConfig order

    /** True when every run finished (RunStatus::kFinished). */
    bool allOk() const;

    /**
     * Element-wise merge of every run's metrics: counters sum,
     * histogram buckets sum, high_water takes the max. The shape a
     * fault-campaign or seed-sweep summary wants.
     */
    MetricsRegistry merged() const;

    /** The machine-readable report (schema assassyn.sweep.v3). */
    std::string toJson(const std::string &design) const;

    /** Write toJson() to @p path. */
    void write(const std::string &path, const std::string &design) const;
};

/**
 * Run every config through @p instance on @p workers threads. Results
 * keep config order regardless of completion order; the InstanceFn is
 * called concurrently, so it must not touch shared mutable state.
 *
 * Failures stay with their instance: an exception escaping the
 * InstanceFn becomes that run's RunStatus::kFault record, with the
 * exception's message as its error and a repro attached, and the
 * siblings still run. There is no in-process retry — every run is
 * deterministic, so a retry would replay the same failure. A process
 * that is killed resumes through RunConfig::resume_from instead
 * (docs/robustness.md, "Sweep isolation and resume").
 */
SweepReport runSweep(const std::vector<RunConfig> &configs,
                     const InstanceFn &instance, size_t workers);

/**
 * Run @p engine up to the absolute cycle @p max_cycles, in slices of
 * @p every cycles (0: one slice), calling @p at_boundary after every
 * full slice that ended with budget remaining — the periodic-checkpoint
 * seam. Finish, fault and watchdog verdicts end the run early. Returns
 * the last slice's result, with cycles summed over all slices.
 */
RunResult runSliced(Engine &engine, uint64_t max_cycles, uint64_t every,
                    const std::function<void()> &at_boundary);

/** Builds a fresh engine for one RunConfig (called concurrently). */
using EngineFactory =
    std::function<std::unique_ptr<Engine>(const RunConfig &)>;

/**
 * The InstanceFn over any engine: each call builds an engine with
 * @p make over shared immutable compiled state, attaches the fault plan
 * if the config carries one, restores from resume_from when set, runs
 * to the config's budget — in ckpt_every-cycle slices with a checkpoint
 * persisted after every full slice that ended with budget remaining,
 * when periodic checkpointing is on — and snapshots metrics + logs.
 * RunResult::cycles aggregates the cycles run by *this* call (not
 * cycles inherited from a checkpoint).
 */
InstanceFn instanceOf(EngineFactory make);

/**
 * The event-engine InstanceFn: a Simulator over the shared immutable
 * @p program per instance (no recompilation).
 */
InstanceFn eventInstance(std::shared_ptr<const Program> program);

} // namespace sim
} // namespace assassyn
