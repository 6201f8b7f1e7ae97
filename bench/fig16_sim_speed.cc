/**
 * @file
 * Fig. 16 (Q5): simulator throughput in simulated k-cycles per second.
 *
 * Three engines over the same designs:
 *  - "asyn": the Assassyn-generated event-driven simulator (src/sim);
 *  - "rtl":  the netlist-level simulator, this repo's Verilator stand-in
 *            (evaluates the whole design every cycle);
 *  - "gem5": the gem5-like timing model (CPU workloads only), whose
 *            construction cost models gem5's initialization phase.
 *
 * The paper reports 2.2x over Verilator on the CPU and 8.1x on the HLS
 * accelerators (idle-stage skipping pays off most on mostly-idle FSM
 * designs), with gem5 losing on sub-10k-cycle runs to its init overhead
 * and winning by an order of magnitude once amortized. Alignment (equal
 * cycle counts between asyn and rtl) is asserted for every design.
 */
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <thread>

#include "baseline/gem5like.h"
#include "isa/riscv.h"
#include "bench/bench_designs.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "sim/program.h"
#include "sim/sweep.h"
#include "support/profiler.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

/** One design's throughput, for the machine-readable report. */
struct ThroughputRow {
    std::string design;
    uint64_t cycles;
    double asyn_kcps;
    double rtl_kcps;
    double asyn_build_s;     ///< tape compile + state construction
    double rtl_build_s;      ///< netlist elaboration + state construction
    uint64_t events_skipped; ///< wake-list idle visits avoided (event)
    uint64_t stages_woken;   ///< ready-set insertions (event)
};

/** One worker-count's batch throughput in the sweep-scaling section. */
struct SweepScalingRow {
    size_t workers;
    double seconds;      ///< batch wall-clock
    double batch_kcps;   ///< total simulated kcycles / batch seconds
    double speedup;      ///< vs the 1-worker batch
    bool oversubscribed; ///< more workers than hardware threads
};

/** The sweep-scaling section of the v2 report. */
struct SweepScaling {
    std::string design;
    size_t instances = 0;
    uint64_t cycles_per_instance = 0;
    std::vector<SweepScalingRow> rows;
};

/**
 * Thread-scaling of the sweep runner (sim/sweep.h): one CPU compiled
 * once into a sim::Program, a batch of shuffle-seed instances executed
 * at 1/2/4/8 workers. Per-instance metrics are required bit-identical
 * to the serial baseline at every worker count — the scaling numbers
 * are only meaningful if parallelism changes nothing but wall-clock.
 * Speedup saturates at the machine's core count; the report records
 * honest wall-clock on whatever host ran it (docs/performance.md).
 */
SweepScaling
runSweepScaling(bool smoke, uint64_t ckpt_every)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto prog = sim::Program::compile(*cpu.sys);

    SweepScaling out;
    out.design = "cpu.vvadd";
    out.instances = smoke ? 4 : 8;
    std::vector<sim::RunConfig> configs;
    for (size_t i = 0; i < out.instances; ++i) {
        sim::RunConfig cfg;
        cfg.name = "seed" + std::to_string(i + 1);
        cfg.sim.capture_logs = false;
        cfg.sim.shuffle = true;
        cfg.sim.shuffle_seed = i + 1;
        // --ckpt-every: periodic per-instance checkpoints. Because a
        // restore is byte-identical, the bit-identity assertion below
        // holds with checkpointing on — the flag doubles as a live
        // check that slicing perturbs nothing.
        if (ckpt_every) {
            cfg.ckpt_every = ckpt_every;
            cfg.ckpt_path = artifactsDir() + "/fig16_" + cfg.name +
                            ".ckpt.json";
        }
        configs.push_back(cfg);
    }

    // Serial baseline: the reference per-instance metrics and the
    // 1-worker wall-clock every other row is compared against.
    sim::SweepReport base =
        sim::runSweep(configs, sim::eventInstance(prog), 1);
    if (!base.allOk())
        fatal("sweep scaling: baseline batch did not finish");
    out.cycles_per_instance = base.runs[0].result.cycles;
    uint64_t total_cycles = 0;
    std::vector<std::string> ref;
    for (const sim::InstanceResult &run : base.runs) {
        total_cycles += run.result.cycles;
        ref.push_back(run.metrics.toJson(out.design));
    }
    out.rows.push_back(
        {1, base.seconds, double(total_cycles) / base.seconds / 1e3, 1.0,
         false});

    // Worker counts beyond the machine's hardware threads still run (the
    // bit-identity assertion is a live correctness check at every
    // count), but their rows are marked oversubscribed: wall-clock from
    // an oversubscribed batch says nothing about the runner's scaling.
    const unsigned hw = std::thread::hardware_concurrency();
    for (size_t workers : {size_t(2), size_t(4), size_t(8)}) {
        sim::SweepReport rep =
            sim::runSweep(configs, sim::eventInstance(prog), workers);
        for (size_t i = 0; i < rep.runs.size(); ++i)
            if (rep.runs[i].metrics.toJson(out.design) != ref[i])
                fatal("sweep scaling: instance '", configs[i].name,
                      "' metrics diverged at ", workers, " workers");
        out.rows.push_back({workers, rep.seconds,
                            double(total_cycles) / rep.seconds / 1e3,
                            base.seconds / rep.seconds,
                            hw != 0 && workers > hw});
    }
    return out;
}

/**
 * BENCH_fig16.json (schema assassyn.bench.fig16.v3): cycles/sec per
 * design per backend, plus the sweep-runner thread-scaling section, at
 * the repo root (full runs only) so successive checkouts can be diffed
 * for throughput regressions (docs/performance.md). v3 over v2:
 * run-only timing (the one-time build phase is reported per backend in
 * its own field), best of `reps` repetitions with bit-identical metrics
 * required across them, the wake-list scheduler's events_skipped /
 * stages_woken counters per run, and an `oversubscribed` marker on
 * sweep rows whose worker count exceeds the machine's hardware threads.
 */
void
writeBenchJson(const std::vector<ThroughputRow> &rows,
               const SweepScaling &sweep, bool smoke, int reps)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("assassyn.bench.fig16.v3");
    w.key("smoke");
    w.value(smoke ? 1.0 : 0.0);
    w.key("timing");
    w.value("run-only, best of reps; build reported separately");
    w.key("reps");
    w.value(uint64_t(reps));
    w.key("runs");
    w.beginArray();
    for (const ThroughputRow &r : rows) {
        w.beginObject();
        w.key("design");
        w.value(r.design);
        w.key("cycles");
        w.value(double(r.cycles));
        w.key("asyn_cps");
        w.value(r.asyn_kcps * 1e3);
        w.key("rtl_cps");
        w.value(r.rtl_kcps * 1e3);
        w.key("asyn_over_rtl");
        w.value(r.asyn_kcps / r.rtl_kcps);
        w.key("asyn_build_seconds");
        w.value(r.asyn_build_s);
        w.key("rtl_build_seconds");
        w.value(r.rtl_build_s);
        w.key("events_skipped");
        w.value(r.events_skipped);
        w.key("stages_woken");
        w.value(r.stages_woken);
        w.endObject();
    }
    w.endArray();
    w.key("sweep");
    w.beginObject();
    w.key("design");
    w.value(sweep.design);
    w.key("instances");
    w.value(uint64_t(sweep.instances));
    w.key("cycles_per_instance");
    w.value(sweep.cycles_per_instance);
    w.key("hardware_threads");
    w.value(uint64_t(std::thread::hardware_concurrency()));
    w.key("rows");
    w.beginArray();
    for (const SweepScalingRow &r : sweep.rows) {
        w.beginObject();
        w.key("workers");
        w.value(uint64_t(r.workers));
        w.key("seconds");
        w.value(r.seconds);
        w.key("batch_kcps");
        w.value(r.batch_kcps);
        w.key("speedup_vs_1");
        w.value(r.speedup);
        w.key("oversubscribed");
        w.value(r.oversubscribed ? 1.0 : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    // Only a full run updates the tracked record; the --smoke slice
    // (the perf_smoke ctest) reports under the gitignored artifacts/.
    std::string path = (smoke ? artifactsDir() : std::string(sourceDir())) +
                       "/BENCH_fig16.json";
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write '", path, "'");
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("throughput report: %s\n", path.c_str());
}

/**
 * --resume <manifest>: run one cpu.vvadd instance resumed from a
 * checkpoint (e.g. one left behind by a --ckpt-every run) and print
 * its row — the CLI face of the retry-from-checkpoint path
 * (docs/robustness.md).
 */
void
runResumed(const std::string &manifest)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto prog = sim::Program::compile(*cpu.sys);
    sim::RunConfig cfg;
    cfg.name = "resumed";
    cfg.sim.capture_logs = false;
    cfg.sim.shuffle = true;
    cfg.resume_from = manifest;
    sim::SweepReport rep =
        sim::runSweep({cfg}, sim::eventInstance(prog), 1);
    const sim::InstanceResult &run = rep.runs[0];
    std::printf("-- resumed cpu.vvadd from %s --\n", manifest.c_str());
    std::printf("%-8s %10s %10s %10s\n", "status", "ran", "end_cycle",
                "seconds");
    std::printf("%-8s %10llu %10llu %10.3f\n",
                sim::runStatusName(run.result.status),
                (unsigned long long)run.result.cycles,
                (unsigned long long)run.end_cycle, run.seconds);
}

void
printTable(bool smoke, bool trace, uint64_t ckpt_every)
{
    // Best-of-N run-only timing, event and netlist reps interleaved:
    // the one-time build phase (tape compile or netlist elaboration +
    // construction) is timed separately, and each repetition's metrics
    // snapshot must be bit-identical.
    const int reps = 3;
    std::printf("=== Fig. 16 (Q5): simulated k-cycles/s (and alignment) "
                "===\n");
    std::printf("(run-only wall-clock, best of %d; build time reported "
                "separately)\n", reps);
    std::printf("-- CPU workloads (5-stage bp.t core) --\n");
    std::printf("%-10s %8s %10s %10s %10s %8s %10s\n", "workload", "cycles",
                "asyn", "rtl(sim)", "gem5", "speedup", "build(ms)");
    MetricsReport report;
    std::vector<ThroughputRow> rows;
    std::vector<double> cpu_speedups;
    size_t cpu_left = smoke ? 2 : size_t(-1);
    bool first_cpu = true;
    for (const SodorIpc &ref : kSodorIpc) {
        if (cpu_left-- == 0)
            break;
        auto image = isa::buildMemoryImage(isa::workload(ref.name));
        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
        // Under --trace, the first CPU workload records its timeline on
        // both backends; the aligned metrics snapshots below then cover
        // the trace.* keys too. (Byte-identity of the simulated-cycle
        // events is asserted by tests/trace_timeline_test.cc with the
        // host profiler off; here each file also carries its own host
        // timeline.) Timed numbers for that workload include overhead.
        std::string ev_tl, nl_tl;
        if (trace && first_cpu) {
            ev_tl = artifactsDir() + "/fig16_trace_event.json";
            nl_tl = artifactsDir() + "/fig16_trace_rtl.json";
        }
        first_cpu = false;
        auto [ev, nl] = runBothSims(*cpu.sys, ev_tl, nl_tl, reps);
        // The paper's alignment claim, checked at full counter depth:
        // not just equal cycle counts but an identical metrics snapshot.
        requireAligned(ev, nl, ref.name);
        report.add("cpu." + std::string(ref.name), ev.metrics,
                   {{"asyn_kcps", ev.kcps()}, {"rtl_kcps", nl.kcps()}});
        rows.push_back({"cpu." + std::string(ref.name), ev.cycles,
                        ev.kcps(), nl.kcps(), ev.build_seconds,
                        nl.build_seconds, ev.events_skipped,
                        ev.stages_woken});

        // gem5: include the initialization phase in wall time, as the
        // paper does.
        auto t0 = std::chrono::steady_clock::now();
        baseline::Gem5LikeCpu gem5(image);
        auto g = gem5.run();
        auto t1 = std::chrono::steady_clock::now();
        double gem5_s = std::chrono::duration<double>(t1 - t0).count();
        double gem5_kcps = double(g.cycles) / gem5_s / 1e3;

        std::printf("%-10s %8llu %10.0f %10.0f %10.0f %7.1fx %4.1f/%4.1f\n",
                    ref.name, (unsigned long long)ev.cycles, ev.kcps(),
                    nl.kcps(), gem5_kcps, ev.kcps() / nl.kcps(),
                    ev.build_seconds * 1e3, nl.build_seconds * 1e3);
        cpu_speedups.push_back(ev.kcps() / nl.kcps());
    }
    std::printf("asyn/rtl speedup (gmean): %.1fx  (paper: 2.2x on CPU)\n",
                gmean(cpu_speedups));
    // Regression canary on the CI path (perf_smoke): the event engine
    // must beat the netlist engine outright on every CPU workload it
    // ran. Both now interpret a pre-decoded tape with threaded
    // dispatch, so the margin is event skipping alone: ~1.2-1.4x on
    // these short CPU runs. The interleaved reps keep host drift from
    // landing on one engine only.
    if (smoke)
        for (const ThroughputRow &r : rows)
            if (r.asyn_kcps / r.rtl_kcps <= 1.0)
                fatal("perf smoke: ", r.design, " asyn/rtl speedup ",
                      r.asyn_kcps / r.rtl_kcps,
                      " is not above 1.0 — event engine regression");

    // The paper's long-run observation: once its initialization is
    // amortized, gem5 runs an order of magnitude faster than the
    // cycle-exact simulators (it models far less). A ~1M-cycle loop
    // shows the crossover.
    if (!smoke) {
        std::string src = "    li a0, 400000\n"
                          "loop:\n"
                          "    addi a1, a1, 3\n"
                          "    addi a0, a0, -1\n"
                          "    bnez a0, loop\n"
                          "    ecall\n";
        auto code = isa::assemble(src);
        std::vector<uint32_t> image(code.begin(), code.end());
        image.resize(1024, 0);
        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
        TimedRun ev = runEventSim(*cpu.sys);
        auto t0 = std::chrono::steady_clock::now();
        baseline::Gem5LikeCpu gem5(image);
        auto g = gem5.run();
        auto t1 = std::chrono::steady_clock::now();
        double gem5_s = std::chrono::duration<double>(t1 - t0).count();
        std::printf("%-10s %8llu %10.0f %10s %10.0f   (gem5 amortizes: "
                    "paper reports ~10x)\n",
                    "long-loop", (unsigned long long)ev.cycles, ev.kcps(),
                    "-", double(g.cycles) / gem5_s / 1e3);
    }

    std::printf("-- HLS accelerator workloads --\n");
    std::printf("%-10s %8s %10s %10s %8s\n", "workload", "cycles", "asyn",
                "rtl(sim)", "speedup");
    std::vector<double> hls_speedups;
    size_t hls_left = smoke ? 1 : size_t(-1);
    for (const AccelPair &p : paperAccels()) {
        if (hls_left-- == 0)
            break;
        auto hls = p.hls();
        auto [ev, nl] = runBothSims(*hls.sys, "", "", reps);
        requireAligned(ev, nl, "HLS " + p.name);
        report.add("hls." + p.name, ev.metrics,
                   {{"asyn_kcps", ev.kcps()}, {"rtl_kcps", nl.kcps()}});
        rows.push_back({"hls." + p.name, ev.cycles, ev.kcps(), nl.kcps(),
                        ev.build_seconds, nl.build_seconds,
                        ev.events_skipped, ev.stages_woken});
        std::printf("%-10s %8llu %10.0f %10.0f %7.1fx\n", p.name.c_str(),
                    (unsigned long long)ev.cycles, ev.kcps(), nl.kcps(),
                    ev.kcps() / nl.kcps());
        hls_speedups.push_back(ev.kcps() / nl.kcps());
    }
    std::printf("asyn/rtl speedup (gmean): %.1fx  (paper: 8.1x on HLS)\n\n",
                gmean(hls_speedups));

    // Sweep-runner thread scaling (compile once, run many).
    SweepScaling sweep = runSweepScaling(smoke, ckpt_every);
    std::printf("-- sweep runner: %zu instances of %s (%llu cycles each), "
                "%u hardware threads --\n",
                sweep.instances, sweep.design.c_str(),
                (unsigned long long)sweep.cycles_per_instance,
                std::thread::hardware_concurrency());
    std::printf("%-8s %10s %12s %8s\n", "workers", "seconds",
                "batch kc/s", "speedup");
    for (const SweepScalingRow &r : sweep.rows)
        std::printf("%-8zu %10.3f %12.0f %7.2fx%s\n", r.workers, r.seconds,
                    r.batch_kcps, r.speedup,
                    r.oversubscribed ? "  (oversubscribed: no scaling "
                                       "signal on this host)"
                                     : "");
    std::printf("(per-instance metrics bit-identical to the serial "
                "baseline at every worker count)\n");

    std::string report_path = artifactsDir() + "/fig16_metrics.json";
    report.write(report_path);
    std::printf("metrics report: %s\n", report_path.c_str());
    writeBenchJson(rows, sweep, smoke, reps);
    if (trace) {
        // Standalone host timeline, written after the sweeps so the
        // per-worker run:* spans are included.
        std::string host_path = artifactsDir() + "/fig16_host_trace.json";
        HostProfiler::instance().writeJson(host_path);
        std::printf("host timeline: %s\n", host_path.c_str());
    }
    std::printf("\n");
}

void
BM_EventSimCpu(benchmark::State &state)
{
    auto image = isa::buildMemoryImage(isa::workload("qsort"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    for (auto _ : state) {
        TimedRun r = runEventSim(*cpu.sys);
        state.counters["kcycles/s"] = r.kcps();
    }
}
BENCHMARK(BM_EventSimCpu)->Unit(benchmark::kMillisecond);

void
BM_NetlistSimCpu(benchmark::State &state)
{
    auto image = isa::buildMemoryImage(isa::workload("qsort"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    for (auto _ : state) {
        TimedRun r = runNetlistSim(*cpu.sys);
        state.counters["kcycles/s"] = r.kcps();
    }
}
BENCHMARK(BM_NetlistSimCpu)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // --smoke: the short slice registered as the perf_smoke ctest label —
    // two CPU workloads plus one accelerator, no long-loop, no
    // micro-benchmarks. Keeps alignment + JSON emission on the CI path
    // without the multi-minute full sweep. --trace: record timelines for
    // the first CPU workload and a host phase profile (artifacts/).
    // --ckpt-every N: periodic checkpoints during the sweep-scaling
    // section; --resume <manifest>: run one instance resumed from a
    // checkpoint before the table (docs/robustness.md).
    bool smoke = eatFlag(argc, argv, "--smoke");
    bool trace = eatFlag(argc, argv, "--trace");
    std::string ckpt_every_str, resume_manifest;
    eatFlagValue(argc, argv, "--ckpt-every", ckpt_every_str);
    eatFlagValue(argc, argv, "--resume", resume_manifest);
    uint64_t ckpt_every =
        ckpt_every_str.empty()
            ? 0
            : std::strtoull(ckpt_every_str.c_str(), nullptr, 0);
    if (trace)
        HostProfiler::instance().enable();
    if (!resume_manifest.empty())
        runResumed(resume_manifest);
    printTable(smoke, trace, ckpt_every);
    if (smoke)
        return 0;
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
