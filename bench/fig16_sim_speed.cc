/**
 * @file
 * Fig. 16 (Q5): simulator throughput in simulated k-cycles per second.
 *
 * Three engines over the same designs:
 *  - "asyn": the Assassyn-generated event-driven simulator (src/sim),
 *            timed twice: on the compiled tape every catalog design
 *            gets ahead of time (docs/architecture.md "Compiled
 *            evaluators"), and on the interpreted tape ("asyn(tape)");
 *  - "rtl":  the netlist-level simulator, this repo's Verilator stand-in
 *            (evaluates the whole design every cycle), timed the same
 *            two ways: on the generated cycle of the catalog netlist and
 *            on the interpreted cell tape ("rtl(tape)");
 *  - "gem5": the gem5-like timing model (CPU workloads only), whose
 *            construction cost models gem5's initialization phase.
 *
 * The paper reports 2.2x over Verilator on the CPU and 8.1x on the HLS
 * accelerators (idle-stage skipping pays off most on mostly-idle FSM
 * designs), comparing generated code against Verilator's compiled
 * model; the headline ratio here is therefore compiled asyn over
 * compiled rtl, printed beside both-interpreted and compiled asyn over
 * interpreted rtl (the pre-v6 headline). gem5 losing on sub-10k-cycle runs to its init overhead
 * and winning by an order of magnitude once amortized. Alignment (an
 * identical metrics snapshot on asyn and rtl) is asserted for every
 * design.
 *
 * Timing: kReps reps per engine per design, taken round the designs
 * (see timeCases). Each rep builds fresh engines and runs them to
 * finish() until its run phases total at least kMinRepSeconds, so short
 * designs are timed over many runs; build time is timed separately. The
 * table and BENCH_fig16.json give the median cycles/s with the min and
 * max rep. The long-loop row (full runs only) times the gem5-like model
 * the same way, each of its runs including its initialization.
 */
#include "baseline/gem5like.h"
#include "isa/riscv.h"
#include "baseline/catalog.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "support/profiler.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

constexpr int kReps = 5;
constexpr double kMinRepSeconds = 0.05;

/** One design of the table and its timing on every engine. */
struct Case {
    std::string design;
    std::unique_ptr<System> sys;
    TimedRun ev = {}, tp = {}, nl = {}, nt = {};

    /** Compiled asyn over compiled rtl: the headline ratio. */
    double speedup() const
    {
        return ev.spread().median / nl.spread().median;
    }
};

/**
 * Time both evaluators of both engines on every case, kReps reps each,
 * and require their metrics aligned. The reps go round the cases (rep 0 of every
 * case, then rep 1, ...), so each case's spread samples the host over
 * the whole table rather than one moment of it. Within a case the
 * engines rotate which goes first, so a slow stretch of a shared host
 * lands on all of them instead of skewing their ratios.
 */
void
timeCases(std::vector<Case> &cases)
{
    for (int rep = 0; rep < kReps; ++rep) {
        for (Case &c : cases) {
            const std::pair<EngineKind, TimedRun *> engines[] = {
                {EngineKind::kEvent, &c.ev},
                {EngineKind::kEventTape, &c.tp},
                {EngineKind::kNetlist, &c.nl},
                {EngineKind::kNetlistTape, &c.nt}};
            for (int i = 0; i < 4; ++i) {
                const auto &[kind, run] = engines[(rep + i) % 4];
                engineRep(*run, kind, *c.sys, kMaxCycles, kMinRepSeconds);
            }
        }
    }
    // The paper's alignment claim, checked at full counter depth: not
    // just equal cycle counts but an identical metrics snapshot, on
    // both evaluators of both engines.
    for (const Case &c : cases) {
        requireAligned(c.ev, c.nl, c.design);
        requireAligned(c.tp, c.nl, c.design + " (asyn tape)");
        requireAligned(c.nt, c.nl, c.design + " (rtl tape)");
    }
}

/**
 * One rep of the gem5-like model on @p image into @p r: runs, each
 * including the model's construction (its initialization phase, as
 * the paper times gem5), until they total at least kMinRepSeconds.
 */
void
gem5Rep(TimedRun &r, const std::vector<uint32_t> &image)
{
    uint64_t cycles = 0;
    double seconds = 0;
    do {
        auto t0 = std::chrono::steady_clock::now();
        baseline::Gem5LikeCpu gem5(image);
        r.cycles = gem5.run().cycles;
        auto t1 = std::chrono::steady_clock::now();
        cycles += r.cycles;
        seconds += std::chrono::duration<double>(t1 - t0).count();
    } while (seconds < kMinRepSeconds);
    r.cps.push_back(double(cycles) / seconds);
}

/**
 * The gmean asyn/rtl ratios of cases [@p begin, @p end) on the three
 * evaluator pairings, printed next to the paper's @p paper ratio.
 */
void
printSpeedups(const std::vector<Case> &cases, size_t begin, size_t end,
              const char *paper)
{
    std::vector<double> both, interp, mixed;
    for (size_t i = begin; i < end; ++i) {
        const Case &c = cases[i];
        both.push_back(c.speedup());
        interp.push_back(c.tp.spread().median / c.nt.spread().median);
        mixed.push_back(c.ev.spread().median / c.nt.spread().median);
    }
    std::printf("asyn/rtl speedup (gmean): compiled/compiled %.1fx, "
                "interpreted/interpreted %.1fx, compiled asyn/interpreted "
                "rtl %.1fx  (paper: %s)\n",
                gmean(both), gmean(interp), gmean(mixed), paper);
}

/** "median [min-max]" in k-cycles/s, for the printed table. */
std::string
kcpsText(const Spread &s)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f [%.0f-%.0f]", s.median / 1e3,
                  s.min / 1e3, s.max / 1e3);
    return buf;
}

/** @p key: the median; @p key_min / @p key_max: the extreme reps. */
void
writeSpread(JsonWriter &w, const std::string &key, const Spread &s)
{
    w.key(key);
    w.value(s.median);
    w.key(key + "_min");
    w.value(s.min);
    w.key(key + "_max");
    w.value(s.max);
}

/** The members of @p c's object: its design, cycles and every
 *  engine's spread. */
void
writeCase(JsonWriter &w, const Case &c)
{
    w.key("design");
    w.value(c.design);
    w.key("cycles");
    w.value(c.ev.cycles);
    writeSpread(w, "asyn_cps", c.ev.spread());
    writeSpread(w, "asyn_tape_cps", c.tp.spread());
    writeSpread(w, "rtl_cps", c.nl.spread());
    writeSpread(w, "rtl_tape_cps", c.nt.spread());
    w.key("asyn_over_rtl");
    w.value(c.speedup());
}

/**
 * BENCH_fig16.json (schema assassyn.bench.fig16.v7): cycles/s per
 * design per backend, at the repo root (full runs only) so successive
 * checkouts can be diffed (docs/performance.md). Each engine's `*_cps`
 * is the median of the reps, with `*_cps_min` / `*_cps_max` beside it;
 * each rep times at least `min_rep_seconds` of runs. v5 over v4:
 * `asyn_cps` is the event engine on its compiled tape, and
 * `asyn_tape_cps` the same engine on the interpreted tape. v6 over v5:
 * `rtl_cps` is the netlist engine on its compiled cycle, `rtl_tape_cps`
 * the same engine on the interpreted cell tape, so `asyn_over_rtl` is
 * compiled over compiled. v7 over v6: `long_loop` (full runs only), the
 * long-loop row @p loop under the same protocol, with the gem5-like
 * model's `gem5_cps` spread @p gem5 and `gem5_over_asyn`, the median
 * gem5-like over the compiled event engine.
 */
void
writeBenchJson(const std::vector<Case> &cases, const Case *loop,
               const TimedRun &gem5, bool smoke)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("assassyn.bench.fig16.v7");
    w.key("smoke");
    w.value(smoke ? 1.0 : 0.0);
    w.key("timing");
    w.value("run-only; median, min and max of reps; build reported "
            "separately");
    w.key("reps");
    w.value(uint64_t(kReps));
    w.key("min_rep_seconds");
    w.value(kMinRepSeconds);
    w.key("runs");
    w.beginArray();
    for (const Case &c : cases) {
        w.beginObject();
        writeCase(w, c);
        w.key("asyn_build_seconds");
        w.value(c.ev.build_seconds);
        w.key("rtl_build_seconds");
        w.value(c.nl.build_seconds);
        // Wake-list scheduler counters of the event engine.
        w.key("events_skipped");
        w.value(c.ev.metrics.counter("sched.events_skipped"));
        w.key("stages_woken");
        w.value(c.ev.metrics.counter("sched.stages_woken"));
        w.endObject();
    }
    w.endArray();
    if (loop) {
        w.key("long_loop");
        w.beginObject();
        writeCase(w, *loop);
        writeSpread(w, "gem5_cps", gem5.spread());
        w.key("gem5_over_asyn");
        w.value(gem5.spread().median / loop->ev.spread().median);
        w.endObject();
    }
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
 * Fail unless @p c's generated event cycle beat the event interpreter
 * (best reps): otherwise its catalog entry regressed or was not
 * attached, which the attach check does not report.
 */
void
requireCompiledEvent(const Case &c, const char *who)
{
    double best = c.ev.spread().max / c.tp.spread().max;
    if (best <= 1.0)
        fatal(who, ": ", c.design, " asyn/asyn(tape) ", best,
              " is not above 1.0 — the compiled event cycle regressed or "
              "was not attached");
}

void
printTable(bool smoke, bool trace)
{
    const std::vector<baseline::AccelPair> accels = baseline::paperAccels();
    const size_t num_cpu = smoke ? 2 : std::size(kSodorIpc);
    const size_t num_hls = smoke ? 1 : accels.size();
    std::vector<Case> cases, loop;
    TimedRun gem5; ///< the long-loop row's gem5-like model
    for (size_t i = 0; i < num_cpu; ++i) {
        auto image = isa::buildMemoryImage(isa::workload(kSodorIpc[i].name));
        cases.push_back({"cpu." + std::string(kSodorIpc[i].name),
                         designs::buildCpu(designs::BranchPolicy::kTaken,
                                           image)
                             .sys});
    }
    for (size_t i = 0; i < num_hls; ++i)
        cases.push_back({"hls." + accels[i].name, accels[i].hls().sys});

    // Under --trace, the first CPU workload also records its timeline on
    // both backends, in one untimed run each; their aligned metrics
    // snapshots cover the trace.* keys too. (Byte-identity of the
    // simulated-cycle events is asserted by
    // tests/trace_timeline_test.cc with the host profiler off; here
    // each file also carries its own host timeline.)
    if (trace) {
        TimedRun ev, nl;
        engineRep(ev, EngineKind::kEvent, *cases[0].sys, kMaxCycles, 0,
                  artifactsDir() + "/fig16_trace_event.json");
        engineRep(nl, EngineKind::kNetlist, *cases[0].sys, kMaxCycles, 0,
                  artifactsDir() + "/fig16_trace_rtl.json");
        requireAligned(ev, nl, cases[0].design + " (traced)");
    }
    timeCases(cases);

    std::printf("=== Fig. 16 (Q5): simulated k-cycles/s (and alignment) "
                "===\n");
    std::printf("(run-only wall-clock: median [min-max] of %d interleaved "
                "reps of >= %.0f ms each;\n build time reported "
                "separately)\n",
                kReps, kMinRepSeconds * 1e3);
    std::printf("-- CPU workloads (5-stage bp.t core) --\n");
    std::printf("%-10s %8s %20s %20s %20s %20s %8s %8s %10s\n", "workload",
                "cycles", "asyn(tape)", "asyn", "rtl(tape)", "rtl(sim)",
                "gem5", "speedup", "build(ms)");
    MetricsReport report;
    for (const Case &c : cases)
        report.add(c.design, c.ev.metrics,
                   {{"asyn_kcps", c.ev.spread().median / 1e3},
                    {"asyn_tape_kcps", c.tp.spread().median / 1e3},
                    {"rtl_kcps", c.nl.spread().median / 1e3},
                    {"rtl_tape_kcps", c.nt.spread().median / 1e3}});
    for (size_t i = 0; i < num_cpu; ++i) {
        const Case &c = cases[i];
        // gem5: include the initialization phase in wall time, as the
        // paper does.
        auto image = isa::buildMemoryImage(isa::workload(kSodorIpc[i].name));
        auto t0 = std::chrono::steady_clock::now();
        baseline::Gem5LikeCpu gem5(image);
        auto g = gem5.run();
        auto t1 = std::chrono::steady_clock::now();
        double gem5_s = std::chrono::duration<double>(t1 - t0).count();
        double gem5_kcps = double(g.cycles) / gem5_s / 1e3;

        std::printf("%-10s %8llu %20s %20s %20s %20s %8.0f %7.1fx "
                    "%4.1f/%4.1f\n",
                    kSodorIpc[i].name, (unsigned long long)c.ev.cycles,
                    kcpsText(c.tp.spread()).c_str(),
                    kcpsText(c.ev.spread()).c_str(),
                    kcpsText(c.nt.spread()).c_str(),
                    kcpsText(c.nl.spread()).c_str(), gem5_kcps,
                    c.speedup(), c.ev.build_seconds * 1e3,
                    c.nl.build_seconds * 1e3);
    }
    printSpeedups(cases, 0, num_cpu, "2.2x on CPU");

    // The paper's long-run observation: once its initialization is
    // amortized, gem5 runs an order of magnitude faster than the
    // cycle-exact simulators (it models far less). A ~1M-cycle loop
    // shows the crossover, every model timed as the rows above.
    if (!smoke) {
        std::string src = "    li a0, 400000\n"
                          "loop:\n"
                          "    addi a1, a1, 3\n"
                          "    addi a0, a0, -1\n"
                          "    bnez a0, loop\n"
                          "    ecall\n";
        auto code = isa::assemble(src);
        std::vector<uint32_t> image(code.begin(), code.end());
        // A memory size the catalog does not carry the core at: it runs
        // the core's any-size cycle (docs/architecture.md "Lookup").
        image.resize(1024, 0);
        loop.push_back(
            {"long-loop",
             designs::buildCpu(designs::BranchPolicy::kTaken, image).sys});
        timeCases(loop);
        requireCompiledEvent(loop.front(), "fig16");
        for (int rep = 0; rep < kReps; ++rep)
            gem5Rep(gem5, image);
        const Case &c = loop.front();
        std::printf("%-10s %8llu %20s %20s %20s %20s %8.0f %7.1fx   "
                    "(gem5 %.1fx asyn; paper reports ~10x)\n",
                    c.design.c_str(), (unsigned long long)c.ev.cycles,
                    kcpsText(c.tp.spread()).c_str(),
                    kcpsText(c.ev.spread()).c_str(),
                    kcpsText(c.nt.spread()).c_str(),
                    kcpsText(c.nl.spread()).c_str(),
                    gem5.spread().median / 1e3, c.speedup(),
                    gem5.spread().median / c.ev.spread().median);
    }

    std::printf("-- HLS accelerator workloads --\n");
    std::printf("%-10s %8s %20s %20s %20s %20s %8s\n", "workload",
                "cycles", "asyn(tape)", "asyn", "rtl(tape)", "rtl(sim)",
                "speedup");
    for (size_t i = num_cpu; i < cases.size(); ++i) {
        const Case &c = cases[i];
        std::printf("%-10s %8llu %20s %20s %20s %20s %7.1fx\n",
                    c.design.substr(4).c_str(),
                    (unsigned long long)c.ev.cycles,
                    kcpsText(c.tp.spread()).c_str(),
                    kcpsText(c.ev.spread()).c_str(),
                    kcpsText(c.nt.spread()).c_str(),
                    kcpsText(c.nl.spread()).c_str(), c.speedup());
    }
    printSpeedups(cases, num_cpu, cases.size(), "8.1x on HLS");
    std::printf("\n");

    // Regression canaries on the CI path (perf_smoke), each comparing
    // best reps. The compiled event engine must beat the interpreted
    // netlist engine outright on every CPU workload it ran: event
    // skipping alone buys little here (the interpreted tapes measure
    // ~1.0x against each other on these short CPU runs); the compiled
    // tape wins by the dispatch it removes (~3-4x). And each engine's
    // generated cycle must beat its interpreter on every row, or a
    // catalog design silently fell back to the interpreter (an attach
    // check that drops an entry says nothing).
    if (smoke) {
        for (size_t i = 0; i < num_cpu; ++i) {
            const Case &c = cases[i];
            double best = c.ev.spread().max / c.nt.spread().max;
            if (best <= 1.0)
                fatal("perf smoke: ", c.design, " asyn/rtl speedup ", best,
                      " is not above 1.0 — event engine regression");
        }
        for (const Case &c : cases)
            requireCompiledEvent(c, "perf smoke");
        for (const Case &c : cases) {
            double best = c.nl.spread().max / c.nt.spread().max;
            if (best <= 1.0)
                fatal("perf smoke: ", c.design, " rtl(sim)/rtl(tape) ",
                      best, " is not above 1.0 — the compiled netlist "
                      "cycle regressed or was not attached");
        }
    }

    std::string report_path = artifactsDir() + "/fig16_metrics.json";
    report.write(report_path);
    std::printf("metrics report: %s\n", report_path.c_str());
    writeBenchJson(cases, loop.empty() ? nullptr : &loop.front(), gem5,
                   smoke);
    if (trace) {
        std::string host_path = artifactsDir() + "/fig16_host_trace.json";
        HostProfiler::instance().writeJson(host_path);
        std::printf("host timeline: %s\n", host_path.c_str());
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // --smoke: the short slice registered as the perf_smoke ctest label —
    // two CPU workloads plus one accelerator, no long-loop. Keeps
    // alignment + JSON emission on the CI path without the full table.
    // --trace: record timelines for the first CPU workload and a host
    // phase profile (artifacts/).
    bool smoke = eatFlag(argc, argv, "--smoke");
    bool trace = eatFlag(argc, argv, "--trace");
    rejectLeftoverArgs(argc, argv, "[--smoke] [--trace]");
    if (trace)
        HostProfiler::instance().enable();
    printTable(smoke, trace);
    return 0;
}
