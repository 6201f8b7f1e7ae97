/**
 * @file
 * perfbench: the whole-stack benchmark program (perfbench/README.md).
 *
 *   perfbench --workload cpu|hls|grade|durable --seed N --seconds S
 *             --trace 0|1 --corpus DIR --out DIR
 *
 * One invocation generates the workload's inputs from the seed, runs one
 * discarded warm-up pass, then repeats identical passes until S seconds
 * have elapsed. Every pass runs the same five legs over the workload's
 * own designs, timing each call into a layer's public API from outside
 * the libraries:
 *
 *   run      design build, Program::compile, Netlist, both engine
 *            constructors (= setup), then both engines to completion;
 *   ckpt     periodic snapshot + saveCheckpoint on one engine, each
 *            checkpoint loaded and restored into the *other* engine and
 *            run to the end;
 *   reverse  a DebugSession on each engine making seeded
 *            reverseTo/runTo pairs inside the keyframe window;
 *   grade    gradeCorpus over {in-order, OoO} x {event, netlist};
 *   iss      the functional ISS over the graded programs.
 *
 * The workloads differ in which designs and programs the legs get and
 * how much of each leg a pass holds. Every output is checked (golden
 * memory, bit-identical metrics across engines, restored and reversed
 * runs, grade verdicts) and every check counts toward attempted/failed.
 *
 * With --trace 1, passes alternate untraced and traced; traced passes
 * enable the HostProfiler and record this file's own spans, and the
 * per-layer metrics come from them. The last stdout line is one JSON
 * object; the line before it ("DETAIL {...}") carries the
 * host-independent counters and the simulated-statistics digest that
 * perfbench/compare.py diffs.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/hls_workloads.h"
#include "debug/session.h"
#include "designs/accel_data.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "isa/iss.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/profiler.h"
#include "support/rng.h"

namespace {

using namespace assassyn;

// ---------------------------------------------------------------------------
// Clocks and spans
// ---------------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

/**
 * A fixed interpreter loop (switch dispatch over a 4096-op program,
 * loads and stores into a 64 KiB table, data-dependent skips): the same
 * kind of work as the engines' inner loops, in code no change to the
 * libraries can touch. Timed between the legs of every pass, its best
 * time over a run tells how fast the host was at its least contended
 * (see endToEnd).
 */
class Probe {
  public:
    /** The reference host runs one probe in this time. */
    static constexpr double kRefSeconds = 0.010;

    Probe()
    {
        Rng rng(0x9e0be);
        for (size_t i = 0; i < kOps; ++i) {
            ops_[i] = uint8_t(rng.below(6));
            args_[i] = uint32_t(rng.next());
        }
        for (uint32_t &m : mem_)
            m = uint32_t(rng.next());
    }

    /** Wall seconds one fixed amount of probe work takes now. */
    double
    seconds()
    {
        double t0 = wallNow();
        uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (int round = 0; round < kRounds; ++round) {
            for (size_t pc = 0; pc < kOps; ++pc) {
                uint32_t a = args_[pc];
                uint32_t &d = r[a & 7];
                uint32_t v = r[(a >> 3) & 7];
                switch (ops_[pc]) {
                  case 0: d += v; break;
                  case 1: d ^= v << ((a >> 6) & 15); break;
                  case 2: d = mem_[(v + (a >> 6)) & kMask]; break;
                  case 3: mem_[(d + (a >> 6)) & kMask] = v; break;
                  case 4: pc += (v & 1) * ((a >> 6) & 3); break;
                  default: d = d * 2654435761u + v; break;
                }
            }
        }
        sink_ = r[0] ^ r[3] ^ r[7];
        return wallNow() - t0;
    }

  private:
    static constexpr size_t kOps = 4096;
    static constexpr int kRounds = 300;
    static constexpr uint32_t kMask = (1u << 14) - 1;
    uint8_t ops_[kOps] = {};
    uint32_t args_[kOps] = {};
    std::vector<uint32_t> mem_ = std::vector<uint32_t>(kMask + 1);
    volatile uint32_t sink_ = 0;
};

Probe g_probe;

/** One traced interval: this file's spans and the HostProfiler's. */
struct Span {
    std::string name;
    uint64_t begin_us = 0;
    uint64_t end_us = 0;
    int32_t parent = -1; ///< index into the same pass's span list
    uint32_t run = 0;    ///< the pass the span belongs to
};

/**
 * The benchmark's own spans around each public call, on the
 * HostProfiler's clock so both sets merge into one tree per pass. Off
 * (every call a no-op) in untraced passes.
 */
class Tracer {
  public:
    bool on = false;
    uint32_t run = 0;
    std::vector<Span> spans; ///< the current pass

    int32_t
    open(const std::string &name)
    {
        if (!on)
            return -1;
        Span s;
        s.name = name;
        s.begin_us = HostProfiler::instance().nowUs();
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.run = run;
        spans.push_back(std::move(s));
        stack_.push_back(int32_t(spans.size() - 1));
        return stack_.back();
    }

    void
    close(int32_t idx)
    {
        if (idx < 0)
            return;
        spans[idx].end_us = HostProfiler::instance().nowUs();
        stack_.pop_back();
    }

  private:
    std::vector<int32_t> stack_;
};

Tracer g_tracer;

/** RAII span for the legs (no timing of its own). */
class LegSpan {
  public:
    explicit LegSpan(const std::string &name) : idx_(g_tracer.open(name)) {}
    ~LegSpan() { g_tracer.close(idx_); }
    LegSpan(const LegSpan &) = delete;
    LegSpan &operator=(const LegSpan &) = delete;

  private:
    int32_t idx_;
};

// ---------------------------------------------------------------------------
// Per-pass accounting
// ---------------------------------------------------------------------------

/** Everything one pass measured and checked. */
struct Pass {
    std::map<std::string, double> secs;    ///< wall seconds per timed call
    std::map<std::string, double> cpu;     ///< thread-CPU seconds, likewise
    std::map<std::string, uint64_t> calls; ///< timed call counts
    std::map<std::string, uint64_t> count; ///< host-independent counters
    /**
     * Wall seconds of each repeated item (one design's set-up or run,
     * one checkpoint's save or restore, one reverseTo, one grade, one
     * gradeCorpus call), keyed by kind and item; identical every pass.
     */
    std::map<std::string, double> items;
    double probe = 1e9; ///< best probe seconds of the pass
    double scale = 1;   ///< the run's host-speed factor (see endToEnd)
    double sweep_eff = 0;
    double sweep_s = 0; ///< wall of the traced-only sweep leg
    uint64_t attempted = 0, failed = 0;
    uint64_t digest = 1469598103934665603ull; ///< FNV-1a 64
    std::vector<Span> spans;                  ///< merged, traced passes
};

void
mix(Pass &p, const std::string &s)
{
    for (unsigned char c : s) {
        p.digest ^= c;
        p.digest *= 1099511628211ull;
    }
    p.digest ^= 0xff;
    p.digest *= 1099511628211ull;
}

void
check(Pass &p, bool ok, const std::string &what)
{
    ++p.attempted;
    if (!ok) {
        ++p.failed;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

/**
 * Time one single-threaded call into a layer: wall and thread-CPU
 * seconds, plus a span named @p name when tracing. Returns wall seconds.
 */
template <typename F>
double
timed(Pass &p, const std::string &name, F &&fn)
{
    int32_t span = g_tracer.open(name);
    double c0 = threadCpuNow();
    double w0 = wallNow();
    fn();
    double w = wallNow() - w0;
    double c = threadCpuNow() - c0;
    g_tracer.close(span);
    p.secs[name] += w;
    p.cpu[name] += c;
    ++p.calls[name];
    return w;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** A freshly built design plus its unified memory. */
struct Built {
    std::unique_ptr<System> sys;
    const RegArray *mem = nullptr;
};

using Golden = std::function<bool(const std::vector<uint32_t> &)>;

/** One design of a workload's run leg. */
struct DesignSpec {
    std::string name;
    std::function<Built()> build;
    Golden golden; ///< check on final memory
    uint64_t max_cycles = 50'000'000;
};

/** What one workload runs in each pass. */
struct Workload {
    std::vector<DesignSpec> designs;  ///< run leg
    std::vector<std::string> ckpt;    ///< designs of the checkpoint leg
    int ckpts = 2;                    ///< checkpoints per source engine
    std::string reverse;              ///< design of the reverse leg
    uint64_t keyframe_every = 256;
    uint64_t reverse_window = 2048;   ///< cycles; <= 16 keyframes
    std::vector<grader::CorpusProgram> grades;
    std::vector<std::vector<uint32_t>> iss_images;
    std::string sweep;                ///< design of the traced sweep
};

template <typename D>
Built
builtOf(D d)
{
    return Built{std::move(d.sys), d.mem};
}

void
addSodor(Workload &w, const isa::Workload &wl, bool inorder, bool ooo)
{
    auto image = std::make_shared<std::vector<uint32_t>>(
        isa::buildMemoryImage(wl));
    Golden golden = wl.verify;
    if (inorder)
        w.designs.push_back({"cpu." + wl.name, [image] {
                                 return builtOf(designs::buildCpu(
                                     designs::BranchPolicy::kTaken, *image));
                             },
                             golden});
    if (ooo)
        w.designs.push_back({"ooo." + wl.name, [image] {
                                 return builtOf(designs::buildOoo(*image));
                             },
                             golden});
}

template <typename Data>
Golden
wordsAt(std::shared_ptr<const Data> d, uint32_t base,
        const std::vector<uint32_t> Data::*golden)
{
    return [d, base, golden](const std::vector<uint32_t> &m) {
        const std::vector<uint32_t> &g = (*d).*golden;
        return base + g.size() <= m.size() &&
               std::equal(g.begin(), g.end(), m.begin() + base);
    };
}

/** The five Table-2 HLS-generated accelerators at paper sizes. */
void
addHls(Workload &w, uint64_t seed, bool only_stencil)
{
    using namespace designs;
    auto hls = [](auto prog, const std::vector<uint32_t> &mem) {
        baseline::HlsDesign d = baseline::generateHls(prog, mem);
        return Built{std::move(d.sys), d.mem};
    };
    if (!only_stencil) {
        auto kmp = std::make_shared<const KmpData>(makeKmpData(32000, seed));
        w.designs.push_back(
            {"hls.kmp",
             [kmp, hls] { return hls(baseline::hlsKmp(*kmp), kmp->memory); },
             [kmp](const std::vector<uint32_t> &m) {
                 return kmp->result_addr < m.size() &&
                        m[kmp->result_addr] == kmp->expected_matches;
             }});
        auto spmv =
            std::make_shared<const SpmvData>(makeSpmvData(494, 10, seed + 1));
        w.designs.push_back(
            {"hls.spmv",
             [spmv, hls] {
                 return hls(baseline::hlsSpmv(*spmv), spmv->memory);
             },
             wordsAt(spmv, spmv->y_base, &SpmvData::golden_y)});
        auto merge =
            std::make_shared<const SortData>(makeMergeSortData(2048, seed + 2));
        w.designs.push_back(
            {"hls.merge",
             [merge, hls] {
                 return hls(baseline::hlsMergeSort(*merge), merge->memory);
             },
             wordsAt(merge, merge->result_base, &SortData::golden)});
        auto radix =
            std::make_shared<const SortData>(makeRadixSortData(2048, seed + 3));
        w.designs.push_back(
            {"hls.radix",
             [radix, hls] {
                 return hls(baseline::hlsRadixSort(*radix), radix->memory);
             },
             wordsAt(radix, radix->result_base, &SortData::golden)});
    }
    auto st = std::make_shared<const StencilData>(
        makeStencilData(128, 128, seed + 4));
    w.designs.push_back(
        {"hls.st-2d",
         [st, hls] { return hls(baseline::hlsStencil(*st), st->memory); },
         wordsAt(st, st->out_base, &StencilData::golden_out)});
}

/** A graded program run as a plain design, checked against the ISS. */
void
addCorpusDesign(Workload &w, const grader::CorpusProgram &prog, bool ooo)
{
    auto image = std::make_shared<std::vector<uint32_t>>(prog.image());
    isa::Iss iss(*image);
    iss.run();
    auto final_mem = std::make_shared<std::vector<uint32_t>>(iss.memory());
    Golden golden = [final_mem](const std::vector<uint32_t> &m) {
        return m == *final_mem;
    };
    if (ooo)
        w.designs.push_back({"ooo." + prog.name,
                             [image] {
                                 return builtOf(designs::buildOoo(*image));
                             },
                             golden, prog.max_cycles});
    else
        w.designs.push_back({"cpu." + prog.name,
                             [image] {
                                 return builtOf(designs::buildCpu(
                                     designs::BranchPolicy::kTaken, *image));
                             },
                             golden, prog.max_cycles});
}

/**
 * Whether a fuzz program's code ends below its scratch area (byte 0x100,
 * where its loads and stores go). A longer program has its own code
 * overwritten by those stores, and the ISS stops on the garbage.
 */
bool
fitsBelowScratch(const grader::CorpusProgram &prog)
{
    std::vector<uint32_t> image = prog.image();
    while (!image.empty() && image.back() == 0)
        image.pop_back();
    return image.size() <= 0x100 / 4;
}

/** Seeded fuzz programs, appended until @p w grades @p total programs. */
void
addFuzz(Workload &w, uint64_t seed, size_t total)
{
    Rng rng(seed);
    uint64_t fuzz_base = rng.next() >> 16;
    for (uint64_t i = 0; w.grades.size() < total; ++i) {
        grader::CorpusProgram prog = grader::fuzzProgram(fuzz_base + i);
        if (fitsBelowScratch(prog))
            w.grades.push_back(std::move(prog));
    }
}

Workload
makeWorkload(const std::string &name, uint64_t seed,
             const std::string &corpus_dir)
{
    Workload w;
    // Outside the grade workload, 50 short fuzz programs (200 grades of
    // about 1 ms): enough samples for steady grade figures at a small
    // share of the pass. The corpus's few long programs would make its
    // p99 the time of a single grade.
    if (name == "cpu") {
        for (const isa::Workload &wl : isa::sodorWorkloads())
            addSodor(w, wl, true, true);
        addFuzz(w, seed, 50);
        w.ckpt = {"ooo.towers"};
        w.reverse = "cpu.towers";
        w.sweep = "cpu.vvadd";
    } else if (name == "hls") {
        addHls(w, seed, false);
        addFuzz(w, seed, 50);
        w.ckpt = {"hls.st-2d"};
        w.reverse = "hls.spmv";
        w.sweep = "hls.spmv";
    } else if (name == "grade") {
        w.grades = grader::loadCorpusDir(corpus_dir);
        for (const grader::CorpusProgram &prog : w.grades) {
            addCorpusDesign(w, prog, false);
            addCorpusDesign(w, prog, true);
        }
        // 14 corpus + 236 fuzz programs x 2 cores x 2 engines = 1000
        // grades per pass.
        addFuzz(w, seed, 250);
        // The corpus designs' 4 KB snapshots save in a few syscalls, so
        // their save rate is file-system latency; checkpoint OoO towers
        // (35 KB snapshots) instead.
        addSodor(w, isa::workload("towers"), false, true);
        w.ckpt = {"ooo.towers"};
        w.ckpts = 8;
        w.reverse = "cpu.sort";
        w.reverse_window = 1024;
        w.keyframe_every = 64;
        w.sweep = "cpu.sort";
    } else if (name == "durable") {
        addSodor(w, isa::workload("towers"), false, true);
        addHls(w, seed, true);
        addFuzz(w, seed, 50);
        w.ckpt = {"ooo.towers", "hls.st-2d"};
        w.ckpts = 8;
        w.reverse = "ooo.towers";
        w.sweep = "ooo.towers";
    } else {
        fatal("unknown workload '", name,
              "' (expected cpu, hls, grade or durable)");
    }
    for (const grader::CorpusProgram &prog : w.grades)
        w.iss_images.push_back(prog.image());
    return w;
}

// ---------------------------------------------------------------------------
// The legs
// ---------------------------------------------------------------------------

/** A design built by the run leg, kept for the later legs. */
struct Live {
    const DesignSpec *spec = nullptr;
    Built built;
    std::shared_ptr<const sim::Program> prog;
    std::unique_ptr<rtl::Netlist> nl;
    uint64_t cycles = 0;
    sim::MetricsRegistry ref; ///< the uninterrupted run's metrics
};

sim::SimOptions
eventOptions(uint64_t shuffle_seed)
{
    sim::SimOptions o;
    o.capture_logs = false;
    o.shuffle = true;
    o.shuffle_seed = shuffle_seed;
    return o;
}

rtl::NetlistSimOptions
netlistOptions()
{
    rtl::NetlistSimOptions o;
    o.capture_logs = false;
    return o;
}

template <typename SimT>
std::vector<uint32_t>
memoryOf(const SimT &s, const RegArray *mem)
{
    std::vector<uint32_t> out(mem->size());
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = uint32_t(s.readArray(mem, i));
    return out;
}

/** Engine-kind dispatch for the legs that build fresh instances. */
struct Engines {
    const Live &live;
    uint64_t shuffle_seed;

    std::unique_ptr<sim::Simulator>
    event() const
    {
        return std::make_unique<sim::Simulator>(live.prog,
                                                eventOptions(shuffle_seed));
    }

    std::unique_ptr<rtl::NetlistSim>
    netlist() const
    {
        return std::make_unique<rtl::NetlistSim>(*live.nl, netlistOptions());
    }
};

template <typename SimT>
void
checkFinal(Pass &p, const Live &live, SimT &s, const std::string &what)
{
    check(p, s.finished(), what + ": finished");
    check(p, s.metrics() == live.ref,
          what + ": metrics identical to the uninterrupted run");
    check(p, live.spec->golden(memoryOf(s, live.built.mem)),
          what + ": golden memory");
}

constexpr uint64_t kSliceCycles = 16384;

Live
runDesign(Pass &p, const DesignSpec &spec, uint64_t shuffle_seed,
          bool event_first)
{
    Live live;
    live.spec = &spec;
    double setup = 0;
    setup += timed(p, "core.build", [&] { live.built = spec.build(); });
    const System &sys = *live.built.sys;
    setup += timed(p, "sim.program.compile",
                   [&] { live.prog = sim::Program::compile(sys); });
    setup += timed(p, "rtl.netlist.build",
                   [&] { live.nl = std::make_unique<rtl::Netlist>(sys); });
    std::unique_ptr<sim::Simulator> ev;
    std::unique_ptr<rtl::NetlistSim> nl;
    setup += timed(p, "sim.simulator.construct", [&] {
        ev = std::make_unique<sim::Simulator>(live.prog,
                                              eventOptions(shuffle_seed));
    });
    setup += timed(p, "rtl.netlist_sim.construct", [&] {
        nl = std::make_unique<rtl::NetlistSim>(*live.nl, netlistOptions());
    });
    p.items["setup/" + spec.name] = setup;

    // Runs in slices of kSliceCycles, each a short timed item (see
    // endToEnd); slicing leaves every result unchanged.
    auto sliced = [&](auto &engine, const std::string &call,
                      const std::string &kind) {
        for (int i = 0; engine.cycle() < spec.max_cycles; ++i) {
            uint64_t n = std::min(kSliceCycles,
                                  spec.max_cycles - engine.cycle());
            sim::RunResult r;
            p.items[kind + "/" + spec.name + "/" + std::to_string(i)] =
                timed(p, call, [&] { r = engine.run(n); });
            if (r.status != sim::RunStatus::kMaxCycles)
                break;
        }
    };
    auto run_ev = [&] { sliced(*ev, "sim.simulator.run", "event"); };
    auto run_nl = [&] { sliced(*nl, "rtl.netlist_sim.run", "netlist"); };
    // Alternate which engine runs first so host drift hits both.
    if (event_first) {
        run_ev();
        run_nl();
    } else {
        run_nl();
        run_ev();
    }

    live.cycles = ev->cycle();
    live.ref = ev->metrics();
    check(p, ev->finished(), spec.name + ": event run finished");
    check(p, nl->finished(), spec.name + ": netlist run finished");
    check(p, nl->metrics() == live.ref,
          spec.name + ": event and netlist metrics bit-identical");
    check(p, spec.golden(memoryOf(*ev, live.built.mem)),
          spec.name + ": event golden memory");
    check(p, spec.golden(memoryOf(*nl, live.built.mem)),
          spec.name + ": netlist golden memory");

    sim::SimStats st = ev->stats();
    p.count["sim.simulator.cycles"] += live.cycles;
    p.count["netlist.cycles"] += nl->cycle();
    p.count["sim.simulator.executions"] += st.total_stage_executions;
    p.count["sim.simulator.skipped"] += st.events_skipped;
    p.count["sim.simulator.woken"] += st.stages_woken;
    p.count["sim.program.tape_steps"] += live.prog->tape().size();
    p.count["rtl.netlist.cells"] += live.nl->cells().size();
    p.count["rtl.netlist.cones"] += live.nl->cones().size();
    mix(p, live.ref.toJson(spec.name));
    return live;
}

/**
 * Checkpoints late in the run (the last fifth), so each restored run to
 * the end stays short next to the run leg.
 */
std::vector<uint64_t>
checkpointCycles(uint64_t cycles, int n)
{
    std::vector<uint64_t> at;
    uint64_t step = std::max<uint64_t>(1, cycles / (5 * uint64_t(n)));
    for (int k = n; k >= 1; --k)
        if (cycles > uint64_t(k) * step)
            at.push_back(cycles - uint64_t(k) * step);
    return at;
}

template <typename SrcT, typename DstT>
void
checkpointLeg(Pass &p, const Live &live, const std::vector<uint64_t> &at,
              const std::string &dir, const std::string &what,
              std::unique_ptr<SrcT> src,
              const std::function<std::unique_ptr<DstT>()> &make_dst)
{
    std::vector<std::string> paths;
    std::vector<std::vector<uint8_t>> blobs;
    for (size_t k = 0; k < at.size(); ++k) {
        src->run(at[k] - src->cycle());
        sim::Snapshot snap;
        std::vector<uint8_t> blob;
        std::string path = dir + "/" + what + "-" + std::to_string(k) +
                           ".ckpt.json";
        double t = timed(p, "sim.ckpt.snapshot",
                         [&] { snap = src->snapshot(); });
        timed(p, "sim.ckpt.encode",
              [&] { blob = sim::encodeSnapshot(snap); });
        t += timed(p, "sim.ckpt.save",
                   [&] { sim::saveCheckpoint(snap, path); });
        p.items["save/" + path] = t;
        p.count["sim.ckpt.bytes"] += blob.size();
        paths.push_back(path);
        blobs.push_back(std::move(blob));
    }
    src->run(live.spec->max_cycles);
    checkFinal(p, live, *src, what + ": checkpointed source run");

    for (size_t k = 0; k < paths.size(); ++k) {
        sim::Snapshot snap;
        double t = timed(p, "sim.ckpt.load",
                         [&] { snap = sim::loadCheckpoint(paths[k]); });
        sim::Snapshot decoded;
        timed(p, "sim.ckpt.decode", [&] {
            decoded = sim::decodeSnapshot(blobs[k].data(), blobs[k].size());
        });
        check(p, decoded.cycle == snap.cycle && decoded.cycle == at[k],
              what + ": decoded checkpoint cycle");
        std::unique_ptr<DstT> dst = make_dst();
        t += timed(p, "sim.ckpt.restore", [&] { dst->restore(snap); });
        p.items["restore/" + paths[k]] = t;
        dst->run(live.spec->max_cycles);
        checkFinal(p, live, *dst,
                   what + ": restored at cycle " + std::to_string(at[k]));
    }
}

void
runCheckpoints(Pass &p, const Live &live, const Workload &w,
               uint64_t shuffle_seed, const std::string &dir)
{
    LegSpan leg("perfbench.ckpt_leg");
    Engines make{live, shuffle_seed};
    std::vector<uint64_t> at = checkpointCycles(live.cycles, w.ckpts);
    checkpointLeg<sim::Simulator, rtl::NetlistSim>(
        p, live, at, dir, live.spec->name + ".event", make.event(),
        [&] { return make.netlist(); });
    checkpointLeg<rtl::NetlistSim, sim::Simulator>(
        p, live, at, dir, live.spec->name + ".netlist", make.netlist(),
        [&] { return make.event(); });
}

/**
 * Seeded (reverseTo, runTo) cycle pairs inside [0, window]. The distance
 * of each reverseTo target past its keyframe — the cycles reverseTo
 * re-executes — takes n evenly spaced values in a seeded order, so the
 * latency percentiles measure the same mix of work for every seed; the
 * seed picks the keyframes and the runTo targets.
 */
std::vector<std::pair<uint64_t, uint64_t>>
reverseTargets(uint64_t seed, uint64_t window, uint64_t keyframe_every,
               int n)
{
    Rng rng(seed);
    std::vector<uint64_t> offsets;
    for (int i = 0; i < n; ++i)
        offsets.push_back(uint64_t(i) * keyframe_every / uint64_t(n));
    rng.shuffle(offsets);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    uint64_t cur = window;
    for (uint64_t off : offsets) {
        uint64_t frames = cur / keyframe_every;
        uint64_t back = frames ? rng.below(frames) * keyframe_every + off
                               : rng.below(cur);
        uint64_t fwd = back + 1 + rng.below(window - back);
        out.emplace_back(back, fwd);
        cur = fwd;
    }
    return out;
}

template <typename SimT>
void
reverseOn(Pass &p, const Live &live, const Workload &w, SimT &engine,
          const std::vector<std::pair<uint64_t, uint64_t>> &pairs,
          uint64_t window, const std::string &what)
{
    debug::DebugOptions opts;
    opts.keyframe_every = w.keyframe_every;
    debug::DebugSession ds(engine, *live.built.sys, opts);
    timed(p, "debug.runTo", [&] { ds.runTo(window); });
    check(p, ds.cycle() == window, what + ": reached the window end");
    for (size_t i = 0; i < pairs.size(); ++i) {
        auto [back, fwd] = pairs[i];
        debug::Stop stop;
        p.items["reverse/" + what + "/" + std::to_string(i)] = timed(
            p, "debug.reverseTo", [&] { stop = ds.reverseTo(back); });
        check(p, stop.cycle == back && ds.cycle() == back,
              what + ": reverseTo(" + std::to_string(back) + ")");
        timed(p, "debug.runTo", [&] { stop = ds.runTo(fwd); });
        check(p, ds.cycle() == fwd,
              what + ": runTo(" + std::to_string(fwd) + ")");
    }
    p.count["debug.reverses"] += pairs.size();
    p.count["debug.keyframes_restored"] += ds.keyframesRestored();
    p.count["debug.keyframes_taken"] += ds.keyframesTaken();
    p.count["debug.reexec_cycles"] += ds.cyclesReexecuted();
    // The session only rewound and replayed; finishing the run on the
    // engine itself must land on the uninterrupted run's metrics.
    engine.run(live.spec->max_cycles);
    checkFinal(p, live, engine, what + ": reversed-then-resumed run");
}

/** reverseTo/runTo pairs per engine per pass. */
constexpr int kReversePairs = 100;

void
runReverse(Pass &p, const Live &live, const Workload &w,
           uint64_t shuffle_seed, uint64_t target_seed)
{
    LegSpan leg("perfbench.reverse_leg");
    Engines make{live, shuffle_seed};
    uint64_t window = std::min(w.reverse_window, live.cycles - 1);
    auto ev = make.event();
    reverseOn(p, live, w, *ev,
              reverseTargets(target_seed, window, w.keyframe_every,
                             kReversePairs),
              window,
              live.spec->name + ".event.reverse");
    auto nl = make.netlist();
    reverseOn(p, live, w, *nl,
              reverseTargets(target_seed + 1, window, w.keyframe_every,
                             kReversePairs),
              window, live.spec->name + ".netlist.reverse");
}

/** Check and account one grade of a gradeCorpus report. */
void
gradeRun(Pass &p, const grader::GradeRun &run)
{
    const grader::Verdict &v = run.verdict;
    std::string eng = grader::engineName(run.engine);
    std::string key = v.program + "/" + grader::coreName(v.core) + "/" + eng;
    check(p, v.pass(),
          "grade " + key + ": " + grader::gradeStatusName(v.status));
    p.items["grade/" + key] = run.seconds;
    p.secs["grader.grade." + eng] += run.seconds;
    ++p.calls["grader.grade." + eng];
    p.count["grader.cycles"] += v.cycles;
    p.count["grader.retirements"] += v.retirements;
    mix(p, v.toJson());
}

void
runGrades(Pass &p, const Workload &w, uint64_t shuffle_seed)
{
    grader::GradeOptions opts;
    opts.shuffle = true;
    opts.shuffle_seed = shuffle_seed;
    // Calls of at most 5 programs (20 grades), so each timed item is
    // short next to the host's slow stretches (see endToEnd).
    for (size_t lo = 0; lo < w.grades.size(); lo += 5) {
        std::vector<grader::CorpusProgram> chunk(
            w.grades.begin() + lo,
            w.grades.begin() + std::min(w.grades.size(), lo + 5));
        grader::GradeReport report;
        p.items["gradeCorpus/" + std::to_string(lo)] =
            timed(p, "grader.gradeCorpus", [&] {
                report = grader::gradeCorpus(
                    chunk, {grader::Core::kInOrder, grader::Core::kOoO},
                    {grader::Engine::kEvent, grader::Engine::kNetlist}, opts,
                    1);
            });
        for (const grader::GradeRun &run : report.runs)
            gradeRun(p, run);
        p.count["grader.grades"] += report.runs.size();
    }

    for (const std::vector<uint32_t> &image : w.iss_images) {
        isa::IssStats st;
        timed(p, "isa.iss.run", [&] {
            isa::Iss iss(image);
            st = iss.run();
        });
        check(p, st.halted, "iss run halted");
        p.count["isa.iss.retired"] += st.retired;
    }
}

/** Traced passes only: runSweep at nproc workers over one design. */
void
runSweepLeg(Pass &p, const Live &live, uint64_t shuffle_seed)
{
    LegSpan leg("sim.sweep.runSweep");
    double t0 = wallNow();
    size_t workers = std::max(1u, std::thread::hardware_concurrency());
    std::vector<sim::RunConfig> configs;
    for (size_t i = 0; i < 2 * workers; ++i) {
        sim::RunConfig cfg;
        cfg.name = "i" + std::to_string(i);
        cfg.max_cycles = live.spec->max_cycles;
        cfg.sim = eventOptions(shuffle_seed + i);
        configs.push_back(cfg);
    }
    sim::SweepReport rep =
        sim::runSweep(configs, sim::eventInstance(live.prog), workers);
    double inst = 0;
    for (const sim::InstanceResult &r : rep.runs) {
        inst += r.seconds;
        check(p, r.result.ok() && r.metrics == live.ref,
              "sweep instance " + r.name + " matches the serial run");
    }
    p.sweep_eff = inst / (double(workers) * rep.seconds);
    p.sweep_s = wallNow() - t0;
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

/** The layer a span's time is charged to. */
std::string
layerOf(const std::string &name)
{
    if (name.rfind("pass:", 0) == 0)
        return "core.compiler";
    if (name == "Program::compile")
        return "sim.program";
    if (name == "Netlist::finalize")
        return "rtl.netlist";
    if (name.rfind("run:", 0) == 0)
        return "sim.sweep";
    size_t dot = name.rfind('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

const char *const kLayers[] = {
    "core",        "core.compiler", "sim.program", "sim.simulator",
    "rtl.netlist", "rtl.netlist_sim", "grader",    "isa.iss",
    "sim.ckpt",    "debug",          "sim.sweep",  "perfbench",
};

const char *const kPasses[] = {"verify", "fold",     "arbiter",
                               "timing", "toposort", "lower"};

/**
 * Merge the HostProfiler's main-track spans into this pass's own spans
 * and assign every span its innermost enclosing parent.
 */
std::vector<Span>
mergeSpans(std::vector<Span> own, uint32_t run)
{
    for (const HostProfiler::Span &s : HostProfiler::instance().spans()) {
        if (s.track != "main")
            continue;
        Span m;
        m.name = s.name;
        m.begin_us = s.begin_us;
        m.end_us = s.end_us;
        m.run = run;
        own.push_back(std::move(m));
    }
    // Outer spans first; on equal intervals this file's span (a wrapper
    // around the library's own span) stays the parent.
    std::vector<size_t> order(own.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (own[a].begin_us != own[b].begin_us)
            return own[a].begin_us < own[b].begin_us;
        return own[a].end_us > own[b].end_us;
    });
    std::vector<Span> out;
    std::vector<int32_t> stack;
    for (size_t i : order) {
        Span s = own[i];
        while (!stack.empty() && out[stack.back()].end_us < s.end_us)
            stack.pop_back();
        s.parent = stack.empty() ? -1 : stack.back();
        out.push_back(std::move(s));
        stack.push_back(int32_t(out.size() - 1));
    }
    return out;
}

/** Self seconds per layer: span time not covered by child spans. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = double(spans[i].end_us - spans[i].begin_us) * 1e-6;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= double(s.end_us - s.begin_us) * 1e-6;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        out[layerOf(spans[i].name)] += self[i];
    return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t rank = size_t(q * double(xs.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, xs.size());
    return xs[rank - 1];
}

/** Median over passes of a per-pass figure. */
template <typename F>
double
medianOf(const std::vector<Pass> &passes, F &&fn)
{
    std::vector<double> xs;
    for (const Pass &p : passes)
        xs.push_back(fn(p));
    return median(xs);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
secsOf(const Pass &p, const std::string &key)
{
    auto it = p.secs.find(key);
    return it == p.secs.end() ? 0 : it->second;
}

double
callsOf(const Pass &p, const std::string &key)
{
    auto it = p.calls.find(key);
    return it == p.calls.end() ? 0 : double(it->second);
}

double
countOf(const Pass &p, const std::string &key)
{
    auto it = p.count.find(key);
    return it == p.count.end() ? 0 : double(it->second);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/**
 * The result line. Values carry every digit (%.17g), which JsonWriter's
 * %.6g would drop.
 */
void
emit(const std::vector<Metric> &metrics, bool correct, uint64_t attempted,
     uint64_t failed)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        s += (i ? ", \"" : "\"") + JsonWriter::escape(metrics[i].name) +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             JsonWriter::escape(metrics[i].unit) + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/** The best times of the items of one kind ("event", "grade", ...). */
std::vector<double>
bestOf(const std::map<std::string, double> &best, const std::string &kind,
       double unit = 1)
{
    std::vector<double> out;
    std::string prefix = kind + "/";
    for (auto it = best.lower_bound(prefix);
         it != best.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it)
        out.push_back(it->second * unit);
    return out;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += x;
    return s;
}

/**
 * The end-to-end metrics from @p best, each item's best time over the
 * run's untraced passes, times @p scale. Co-tenant load on a shared host
 * only ever adds time, in stretches from under a second to tens of
 * seconds, so an item's fastest repetition is the steadiest estimate of
 * its own cost. A run that falls wholly inside a slow stretch is caught
 * by the probe: @p scale is Probe::kRefSeconds over the run's best probe
 * time. @p p is any pass: its counters repeat in every pass.
 */
std::vector<Metric>
endToEnd(const std::map<std::string, double> &best, const Pass &p,
         double scale)
{
    auto times = [&](const char *kind) { return bestOf(best, kind, scale); };
    std::vector<double> grade_ms = bestOf(best, "grade", 1e3 * scale);
    std::vector<double> reverse_ms = bestOf(best, "reverse", 1e3 * scale);
    double mb = countOf(p, "sim.ckpt.bytes") / 1e6;
    return {
        {"asyn_cps",
         ratio(countOf(p, "sim.simulator.cycles"), sum(times("event"))),
         "cycles/s"},
        {"rtl_cps", ratio(countOf(p, "netlist.cycles"), sum(times("netlist"))),
         "cycles/s"},
        {"setup_s", sum(times("setup")), "s"},
        {"grades_per_s",
         ratio(countOf(p, "grader.grades"), sum(times("gradeCorpus"))),
         "1/s"},
        {"grade_ms_p50", percentile(grade_ms, 0.50), "ms"},
        {"grade_ms_p99", percentile(grade_ms, 0.99), "ms"},
        {"ckpt_save_mbps", ratio(mb, sum(times("save"))), "MB/s"},
        {"ckpt_restore_mbps", ratio(mb, sum(times("restore"))), "MB/s"},
        {"reverse_ms_p50", percentile(reverse_ms, 0.50), "ms"},
        {"reverse_ms_p99", percentile(reverse_ms, 0.99), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Pass> &traced, double overhead)
{
    std::vector<Metric> m;
    auto per_pass = [&](const std::string &name, const std::string &unit,
                        std::function<double(const Pass &)> fn) {
        m.push_back({name, medianOf(traced, fn), unit});
    };
    auto span_sum = [](const Pass &p, const std::string &name) {
        double s = 0;
        for (const Span &sp : p.spans)
            if (sp.name == name)
                s += double(sp.end_us - sp.begin_us) * 1e-6;
        return s * p.scale;
    };
    per_pass("core.build_s", "s",
             [](const Pass &p) { return secsOf(p, "core.build"); });
    for (const char *pass : kPasses)
        per_pass(std::string("core.compiler.") + pass + "_s", "s",
                 [&, pass](const Pass &p) {
                     return span_sum(p, std::string("pass:") + pass);
                 });
    per_pass("sim.program.compile_s", "s",
             [](const Pass &p) { return secsOf(p, "sim.program.compile"); });
    per_pass("sim.program.tape_steps", "count", [](const Pass &p) {
        return countOf(p, "sim.program.tape_steps");
    });
    per_pass("sim.simulator.construct_s", "s", [](const Pass &p) {
        return secsOf(p, "sim.simulator.construct");
    });
    per_pass("sim.simulator.ns_per_cycle", "ns/cycle", [](const Pass &p) {
        return 1e9 * ratio(secsOf(p, "sim.simulator.run"),
                           countOf(p, "sim.simulator.cycles"));
    });
    per_pass("sim.simulator.cycles", "count", [](const Pass &p) {
        return countOf(p, "sim.simulator.cycles");
    });
    for (const char *what : {"executions", "skipped", "woken"}) {
        std::string name = std::string("sim.simulator.") +
                           (std::strcmp(what, "executions") == 0 ? "execs"
                                                                 : what) +
                           "_per_cycle";
        per_pass(name, "1/cycle", [what](const Pass &p) {
            return ratio(countOf(p, std::string("sim.simulator.") + what),
                         countOf(p, "sim.simulator.cycles"));
        });
    }
    per_pass("rtl.netlist.build_s", "s",
             [](const Pass &p) { return secsOf(p, "rtl.netlist.build"); });
    per_pass("rtl.netlist.cells", "count",
             [](const Pass &p) { return countOf(p, "rtl.netlist.cells"); });
    per_pass("rtl.netlist.cones", "count",
             [](const Pass &p) { return countOf(p, "rtl.netlist.cones"); });
    per_pass("rtl.netlist_sim.construct_s", "s", [](const Pass &p) {
        return secsOf(p, "rtl.netlist_sim.construct");
    });
    per_pass("rtl.netlist_sim.ns_per_cycle", "ns/cycle", [](const Pass &p) {
        return 1e9 * ratio(secsOf(p, "rtl.netlist_sim.run"),
                           countOf(p, "netlist.cycles"));
    });
    per_pass("engine.asyn_over_rtl", "ratio", [](const Pass &p) {
        return ratio(ratio(secsOf(p, "rtl.netlist_sim.run"),
                           countOf(p, "netlist.cycles")),
                     ratio(secsOf(p, "sim.simulator.run"),
                           countOf(p, "sim.simulator.cycles")));
    });
    for (const char *eng : {"event", "netlist"})
        per_pass(std::string("grader.ms_per_grade.") + eng, "ms",
                 [eng](const Pass &p) {
                     std::string key = std::string("grader.grade.") + eng;
                     return 1e3 * ratio(secsOf(p, key), callsOf(p, key));
                 });
    per_pass("grader.cycles_per_grade", "count", [](const Pass &p) {
        return ratio(countOf(p, "grader.cycles"), countOf(p, "grader.grades"));
    });
    per_pass("grader.retirements_per_grade", "count", [](const Pass &p) {
        return ratio(countOf(p, "grader.retirements"),
                     countOf(p, "grader.grades"));
    });
    per_pass("grader.setup_share", "ratio", [](const Pass &p) {
        double total = 0, setup = 0;
        for (const Span &s : p.spans) {
            if (s.name != "grader.gradeCorpus")
                continue;
            total += double(s.end_us - s.begin_us);
        }
        for (const Span &s : p.spans) {
            if (s.parent < 0 || p.spans[s.parent].name != "grader.gradeCorpus")
                continue;
            if (s.name.rfind("pass:", 0) == 0 ||
                s.name == "Program::compile" || s.name == "Netlist::finalize")
                setup += double(s.end_us - s.begin_us);
        }
        return ratio(setup, total);
    });
    per_pass("isa.iss.ns_per_inst", "ns", [](const Pass &p) {
        return 1e9 *
               ratio(secsOf(p, "isa.iss.run"), countOf(p, "isa.iss.retired"));
    });
    per_pass("sim.sweep.efficiency", "ratio",
             [](const Pass &p) { return p.sweep_eff; });
    for (const char *op :
         {"snapshot", "encode", "save", "load", "decode", "restore"})
        per_pass(std::string("sim.ckpt.") + op + "_us", "us",
                 [op](const Pass &p) {
                     std::string key = std::string("sim.ckpt.") + op;
                     return 1e6 * ratio(secsOf(p, key), callsOf(p, key));
                 });
    per_pass("sim.ckpt.bytes", "B",
             [](const Pass &p) { return countOf(p, "sim.ckpt.bytes"); });
    per_pass("debug.reexec_cycles_per_reverse", "count", [](const Pass &p) {
        return ratio(countOf(p, "debug.reexec_cycles"),
                     countOf(p, "debug.reverses"));
    });
    per_pass("debug.keyframes_restored", "count", [](const Pass &p) {
        return countOf(p, "debug.keyframes_restored");
    });
    per_pass("debug.keyframes_taken", "count", [](const Pass &p) {
        return countOf(p, "debug.keyframes_taken");
    });
    per_pass("debug.reexec_ns_per_cycle", "ns/cycle", [](const Pass &p) {
        return 1e9 * ratio(secsOf(p, "debug.reverseTo"),
                           countOf(p, "debug.reexec_cycles"));
    });
    per_pass("host.cpu_over_wall", "ratio",
             [](const Pass &p) {
                 double wall = 0, cpu = 0;
                 for (const auto &[name, c] : p.cpu) {
                     wall += p.secs.at(name);
                     cpu += c;
                 }
                 return ratio(cpu, wall);
             });
    m.push_back({"trace.overhead", overhead, "ratio"});
    for (const char *layer : kLayers)
        per_pass(std::string(layer) + ".self_s", "s", [layer](const Pass &p) {
            std::map<std::string, double> self = selfTimes(p.spans);
            auto it = self.find(layer);
            return it == self.end() ? 0.0 : it->second * p.scale;
        });
    return m;
}

std::string
hex64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

void
writeSpans(const std::vector<Pass> &traced, const std::string &path)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("perfbench.spans.v1");
    w.key("spans");
    w.beginArray();
    for (const Pass &p : traced) {
        for (const Span &s : p.spans) {
            w.beginObject();
            w.key("name");
            w.value(s.name);
            w.key("begin_us");
            w.value(s.begin_us);
            w.key("end_us");
            w.value(s.end_us);
            w.key("parent");
            w.value(int64_t(s.parent));
            w.key("run");
            w.value(uint64_t(s.run));
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write '", path, "'");
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string corpus = "tests/corpus";
    std::string out = ".bench_build/run";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("flag ", flag, " expects a value");
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 0);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = v != "0";
        else if (flag == "--corpus")
            a.corpus = v;
        else if (flag == "--out")
            a.out = v;
        else
            fatal("unknown flag ", flag);
    }
    if (a.workload.empty())
        fatal("--workload is required");
    return a;
}

Pass
runPass(const Workload &w, const Args &a, uint32_t index,
        const std::string &ckpt_dir)
{
    Pass p;
    // The shuffle seed changes every pass; the digest must not.
    uint64_t shuffle_seed = a.seed * 1000003ull + index;
    LegSpan pass_span("perfbench.pass");
    std::map<std::string, Live> live;
    auto probe = [&p] { p.probe = std::min(p.probe, g_probe.seconds()); };
    probe();
    {
        LegSpan leg("perfbench.run_leg");
        for (const DesignSpec &spec : w.designs)
            live.emplace(spec.name,
                         runDesign(p, spec, shuffle_seed, index % 2 == 0));
    }
    probe();
    for (const std::string &name : w.ckpt)
        runCheckpoints(p, live.at(name), w, shuffle_seed, ckpt_dir);
    runReverse(p, live.at(w.reverse), w, shuffle_seed, a.seed ^ 0x5eed);
    probe();
    {
        LegSpan leg("perfbench.grade_leg");
        runGrades(p, w, shuffle_seed);
    }
    probe();
    if (g_tracer.on)
        runSweepLeg(p, live.at(w.sweep), shuffle_seed);
    return p;
}

int
run(const Args &a)
{
    Workload w = makeWorkload(a.workload, a.seed, a.corpus);
    std::string ckpt_dir = a.out + "/ckpt-" + a.workload;
    std::filesystem::create_directories(ckpt_dir);

    // Warm-up pass: fills caches and finishes lazy set-up; discarded.
    runPass(w, a, 0, ckpt_dir);

    // Untraced passes fold into the items' best times as they finish,
    // so memory (and peak_rss_mb) does not grow with the pass count.
    // Traced passes are kept whole for their spans.
    std::map<std::string, double> best;
    std::optional<Pass> first;
    std::vector<Pass> traced;
    std::vector<double> plain_wall, traced_wall;
    uint64_t attempted = 0, failed = 0;
    double best_probe = 1e9;
    // Wall and thread-CPU seconds of each timed call, over all passes.
    std::map<std::string, std::pair<double, double>> wall_cpu;
    const double t0 = wallNow();
    for (uint32_t index = 1;; ++index) {
        // The traced run alternates untraced and traced passes, so the
        // tracing overhead compares passes of the same run.
        bool trace_this = a.trace && index % 2 == 0;
        g_tracer.on = trace_this;
        g_tracer.run = index;
        g_tracer.spans.clear();
        if (trace_this)
            HostProfiler::instance().enable();
        double w0 = wallNow();
        Pass p = runPass(w, a, index, ckpt_dir);
        double dt = wallNow() - w0;
        g_tracer.on = false;

        attempted += p.attempted + 1;
        failed += p.failed;
        if (!first)
            first = p;
        else if (p.digest != first->digest || p.count != first->count)
            ++failed;
        for (const auto &[name, c] : p.cpu) {
            wall_cpu[name].first += p.secs.at(name);
            wall_cpu[name].second += c;
        }
        best_probe = std::min(best_probe, p.probe);
        if (trace_this) {
            HostProfiler::instance().disable();
            p.spans = mergeSpans(std::move(g_tracer.spans), index);
            // Only the work untraced passes also do.
            traced_wall.push_back(dt - p.sweep_s);
            traced.push_back(std::move(p));
        } else {
            plain_wall.push_back(dt);
            for (const auto &[key, t] : p.items) {
                auto [it, fresh] = best.emplace(key, t);
                if (!fresh)
                    it->second = std::min(it->second, t);
            }
        }
        size_t need = a.trace ? 2 : 3;
        bool enough = plain_wall.size() >= need &&
                      (!a.trace || traced.size() >= need);
        if (enough && wallNow() - t0 >= a.seconds)
            break;
    }
    size_t passes = plain_wall.size() + traced.size();
    const double scale = Probe::kRefSeconds / best_probe;
    size_t grade_n = bestOf(best, "grade").size();
    size_t reverse_n = bestOf(best, "reverse").size();

    // The digest and counters are identical on every run of the same
    // (workload, seed) and across commits that leave simulation alone;
    // the rest describes this run's host timing.
    JsonWriter d;
    d.beginObject();
    d.key("workload");
    d.value(a.workload);
    d.key("seed");
    d.value(a.seed);
    d.key("trace");
    d.value(uint64_t(a.trace));
    d.key("digest");
    d.value(hex64(first->digest));
    d.key("counters");
    d.beginObject();
    for (const auto &[k, v] : first->count) {
        d.key(k);
        d.value(v);
    }
    d.endObject();
    d.key("passes");
    d.value(uint64_t(passes));
    d.key("grade_ms_samples");
    d.value(uint64_t(grade_n));
    d.key("reverse_ms_samples");
    d.value(uint64_t(reverse_n));
    double cpu = 0, wall = 0;
    d.key("wall_cpu_s");
    d.beginObject();
    for (const auto &[name, wc] : wall_cpu) {
        d.key(name);
        d.beginArray();
        d.value(wc.first);
        d.value(wc.second);
        d.endArray();
        wall += wc.first;
        cpu += wc.second;
    }
    d.endObject();
    d.key("host_cpu_over_wall");
    d.value(ratio(cpu, wall));
    d.key("pass_s");
    d.value(median(plain_wall));
    // The host-speed factor every host time was scaled by, and the
    // untraced metrics before scaling.
    d.key("probe_best_ms");
    d.value(best_probe * 1e3);
    d.key("scale");
    d.value(scale);
    if (!a.trace) {
        d.key("unscaled");
        d.beginObject();
        for (const Metric &m : endToEnd(best, *first, 1.0)) {
            d.key(m.name);
            d.value(m.value);
        }
        d.endObject();
    }
    d.endObject();
    std::string detail = d.str();
    detail.erase(std::remove(detail.begin(), detail.end(), '\n'),
                 detail.end());

    std::vector<Metric> metrics;
    if (a.trace) {
        // Best pass against best pass, like the end-to-end metrics.
        double overhead =
            ratio(*std::min_element(traced_wall.begin(), traced_wall.end()),
                  *std::min_element(plain_wall.begin(), plain_wall.end())) -
            1.0;
        for (Pass &p : traced) {
            p.scale = scale;
            for (auto *times : {&p.secs, &p.cpu})
                for (auto &entry : *times)
                    entry.second *= scale;
        }
        metrics = perLayer(traced, overhead);
        std::string path = a.out + "/spans-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
        writeSpans(traced, path);
        std::printf("spans: %s\n", path.c_str());
    } else {
        metrics = endToEnd(best, *first, scale);
    }
    std::printf("workload %s seed %llu: %zu passes, %llu checks, %llu "
                "failed, digest %s\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                passes, (unsigned long long)attempted,
                (unsigned long long)failed, hex64(first->digest).c_str());
    for (const Metric &m : metrics)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!a.trace)
        std::printf("  (grade_ms over %zu grades and reverse_ms over %zu "
                    "reverseTo calls, each the best of %zu passes)\n",
                    grade_n, reverse_n, plain_wall.size());
    std::printf("DETAIL %s\n", detail.c_str());
    emit(metrics, failed == 0, attempted, failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
