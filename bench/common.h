/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: run-to-finish
 * timing on both simulation backends, area estimation, LoC counting, and
 * the paper's published reference numbers (used as comparison baselines
 * where the paper compared against artifacts we reproduce only by their
 * reported values, e.g. Chipyard reference RTL).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ir/system.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "support/json.h"
#include "synth/area.h"

namespace assassyn {
namespace bench {

/** Cycle budget of a benchmark run; every design finishes well inside. */
inline constexpr uint64_t kMaxCycles = 50'000'000;

/** min/median/max of one engine's per-rep simulated cycles/s. */
struct Spread {
    double min = 0, median = 0, max = 0;
};

/**
 * Wall-time + cycle result of one engine on one design. Timing is split
 * into the one-time build phase (IR-to-tape compile or netlist
 * elaboration, plus state construction) and the run proper: "simulated
 * cycles per second" conventionally excludes elaboration on both
 * backends, and the split keeps the ratio honest for designs whose runs
 * are short. Every run's metrics snapshot must be bit-identical to the
 * first one's.
 */
struct TimedRun {
    uint64_t cycles = 0;
    double build_seconds = 0; ///< one run's build, best rep's mean
    std::vector<double> cps;  ///< run-only simulated cycles/s, one per rep
    sim::MetricsRegistry metrics; ///< full counter snapshot of the run

    /** Best rep, in k-cycles/s. */
    double kcps() const { return spread().max / 1e3; }

    Spread
    spread() const
    {
        std::vector<double> v = cps;
        std::sort(v.begin(), v.end());
        size_t n = v.size();
        return {v.front(), (v[(n - 1) / 2] + v[n / 2]) / 2, v.back()};
    }
};

/**
 * Which simulation backend a repetition runs: each engine on its
 * default evaluator (the compiled tape or netlist of a catalog design,
 * else the interpreter), or forced onto its interpreted tape
 * (sim::Evaluator::kTape).
 */
enum class EngineKind { kEvent, kEventTape, kNetlist, kNetlistTape };

/**
 * One repetition of one engine, folded into @p r: fresh engines are
 * built and run to finish() until the rep's run phases total at least
 * @p min_seconds (a single run when 0), and the rep contributes its
 * cycles/s over all of them. The event-driven (Assassyn-generated)
 * simulator compiles its tape per run; the netlist-level simulator (the
 * Verilator stand-in) elaborates its netlist per run, inside the build
 * time. A nonempty @p timeline_path has every run record its Perfetto
 * timeline there (docs/observability.md, "Timeline tracing"); a traced
 * run's metrics carry trace.* counters an untraced one lacks, so trace
 * a separate single run, never a timed rep.
 */
inline void
engineRep(TimedRun &r, EngineKind kind, const System &sys,
          uint64_t max_cycles, double min_seconds,
          const std::string &timeline_path = "")
{
    const bool event =
        kind == EngineKind::kEvent || kind == EngineKind::kEventTape;
    const sim::Evaluator ev =
        kind == EngineKind::kEvent || kind == EngineKind::kNetlist
            ? sim::Evaluator::kCompiled
            : sim::Evaluator::kTape;
    const char *name = kind == EngineKind::kEvent       ? "event"
                       : kind == EngineKind::kEventTape ? "event (tape)"
                       : kind == EngineKind::kNetlist   ? "netlist"
                                                        : "netlist (tape)";
    const bool first_rep = r.cps.empty();
    double build = 0, run = 0;
    uint64_t cycles = 0;
    int runs = 0;
    do {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = timeline_path;
        auto t0 = std::chrono::steady_clock::now();
        std::optional<rtl::Netlist> nl;
        std::unique_ptr<sim::Engine> s;
        if (event) {
            s = std::make_unique<sim::Simulator>(
                sim::Program::compile(sys, ev), opts);
        } else {
            nl.emplace(sys, ev);
            s = std::make_unique<rtl::NetlistSim>(*nl, opts);
        }
        auto t1 = std::chrono::steady_clock::now();
        sim::RunResult res = s->run(max_cycles);
        auto t2 = std::chrono::steady_clock::now();
        if (!s->finished())
            fatal("benchmark design did not finish (", name, ": ",
                  sim::runStatusName(res.status),
                  res.error.empty() ? "" : ": ", res.error, ")",
                  res.hazard.empty() ? "" : "\n" + res.hazard.toString());
        if (first_rep && runs == 0) {
            r.cycles = s->cycle();
            r.metrics = s->metrics();
        } else if (sim::MetricsRegistry m = s->metrics(); m != r.metrics) {
            fatal(name, " simulator diverged between runs:\n",
                  m.diff(r.metrics));
        }
        build += std::chrono::duration<double>(t1 - t0).count();
        run += std::chrono::duration<double>(t2 - t1).count();
        cycles += s->cycle();
        ++runs;
    } while (run < min_seconds);
    r.cps.push_back(double(cycles) / run);
    build /= runs;
    r.build_seconds = first_rep ? build : std::min(r.build_seconds, build);
}

/** Run the event-driven simulator to finish() once. */
inline TimedRun
runEventSim(const System &sys, uint64_t max_cycles = kMaxCycles)
{
    TimedRun r;
    engineRep(r, EngineKind::kEvent, sys, max_cycles, 0);
    return r;
}

/**
 * Abort with a full per-counter diff unless the two runs' metrics
 * snapshots are bit-identical — the figure binaries' upgrade of the old
 * cycles-only alignment check (docs/observability.md).
 */
inline void
requireAligned(const TimedRun &ev, const TimedRun &nl,
               const std::string &what)
{
    if (ev.metrics != nl.metrics)
        fatal("alignment violation on ", what, ":\n",
              ev.metrics.diff(nl.metrics));
}

/**
 * Accumulates one metrics snapshot per run and writes the machine-readable
 * report (schema assassyn.metrics.v1) consumed by plotting scripts: a
 * top-level array of run objects, each carrying the design name, any
 * scalar figures of merit (e.g. IPC), and the full counter snapshot.
 */
class MetricsReport {
  public:
    void
    add(const std::string &design, const sim::MetricsRegistry &metrics,
        std::vector<std::pair<std::string, double>> figures = {})
    {
        runs_.push_back({design, metrics, std::move(figures)});
    }

    void
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject();
        w.key("schema");
        w.value("assassyn.metrics.v1");
        w.key("runs");
        w.beginArray();
        for (const Run &r : runs_) {
            w.beginObject();
            w.key("design");
            w.value(r.design);
            for (const auto &[name, value] : r.figures) {
                w.key(name);
                w.value(value);
            }
            w.key("metrics");
            r.metrics.writeJson(w);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write metrics report '", path, "'");
        std::fputs(w.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

  private:
    struct Run {
        std::string design;
        sim::MetricsRegistry metrics;
        std::vector<std::pair<std::string, double>> figures;
    };
    std::vector<Run> runs_;
};

/** Cycle count only (event simulator, logs off). */
inline uint64_t
cyclesOf(const System &sys, uint64_t max_cycles = kMaxCycles)
{
    return runEventSim(sys, max_cycles).cycles;
}

/** Estimate the design's synthesized area. */
inline synth::AreaReport
areaOf(const System &sys)
{
    rtl::Netlist nl(sys);
    return synth::estimateArea(nl);
}

/** Count non-blank, non-comment lines of a source file. */
inline size_t
countLoc(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("cannot open '", path, "' for LoC counting");
    size_t loc = 0;
    char line[4096];
    bool in_block_comment = false;
    while (std::fgets(line, sizeof line, f)) {
        std::string s(line);
        // Strip leading whitespace.
        size_t b = s.find_first_not_of(" \t\r\n");
        if (b == std::string::npos)
            continue;
        s = s.substr(b);
        if (in_block_comment) {
            size_t end = s.find("*/");
            if (end == std::string::npos)
                continue;
            s = s.substr(end + 2);
            in_block_comment = false;
            if (s.find_first_not_of(" \t\r\n") == std::string::npos)
                continue;
        }
        if (s.rfind("//", 0) == 0 || s.rfind("#", 0) == 0)
            continue;
        if (s.rfind("/*", 0) == 0) {
            if (s.find("*/", 2) == std::string::npos)
                in_block_comment = true;
            continue;
        }
        if (s.rfind("*", 0) == 0) // doxygen block body
            continue;
        ++loc;
    }
    std::fclose(f);
    return loc;
}

/** Repository source directory (set by CMake). */
inline std::string
sourceDir()
{
#ifdef ASSASSYN_SOURCE_DIR
    return ASSASSYN_SOURCE_DIR;
#else
    return ".";
#endif
}

/**
 * The gitignored scratch directory for generated per-run artifacts
 * (metrics reports, timeline traces): <sourceDir>/artifacts, created on
 * first use. Tracked reference outputs (BENCH_*.json) stay at the repo
 * root; everything a figure binary regenerates on every invocation
 * lands here.
 */
inline std::string
artifactsDir()
{
    std::string dir = sourceDir() + "/artifacts";
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Consume @p flag from argv if present, returning whether it was there —
 * the figure binaries' shared tiny flag parser (--smoke, --trace).
 */
inline bool
eatFlag(int &argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            return true;
        }
    }
    return false;
}

/**
 * Exit with status 2 and a usage line if any argument is left after the
 * binary's eatFlag calls: an unknown or misspelled option is an error,
 * never silently ignored. @p flags lists the accepted options for the
 * usage line ("" for a binary that takes none).
 */
inline void
rejectLeftoverArgs(int argc, char **argv, const char *flags)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s%s%s\n",
                 argv[0], argv[1], argv[0], *flags ? " " : "", flags);
    std::exit(2);
}

/** Geometric mean. */
inline double
gmean(const std::vector<double> &xs)
{
    double acc = 1.0;
    for (double x : xs)
        acc *= x;
    return std::pow(acc, 1.0 / double(xs.size()));
}

// ---------------------------------------------------------------------------
// Reference numbers reported by the paper (used where the paper compared
// against third-party artifacts: handcrafted Chipyard RTL areas/LoC and
// Sodor IPC). See EXPERIMENTS.md for the provenance of each constant.
// ---------------------------------------------------------------------------

/** Fig. 14, handcrafted reference areas in um^2 (pq, systolic PE, CPU). */
inline constexpr double kRefAreaPq = 257.0;
inline constexpr double kRefAreaPe = 152.0;
inline constexpr double kRefAreaCpu = 1042.0;

/** Fig. 11, reference LoC (handcrafted RTL / MachSuite C). */
inline constexpr int kRefLocCpu = 1293;
inline constexpr int kRefLocPe = 132;
inline constexpr int kRefLocPq = 200;
inline constexpr int kRefLocKmp = 89;
inline constexpr int kRefLocSpmv = 85;
inline constexpr int kRefLocMerge = 112;
inline constexpr int kRefLocRadix = 154;
inline constexpr int kRefLocStencil = 103;

/** Fig. 15(a), Sodor reference IPC per workload. */
struct SodorIpc {
    const char *name;
    double ipc;
};
inline constexpr SodorIpc kSodorIpc[] = {
    {"median", 0.65}, {"multiply", 0.63}, {"qsort", 0.71},
    {"rsort", 0.94},  {"towers", 0.88},   {"vvadd", 0.80},
};

} // namespace bench
} // namespace assassyn
