/**
 * @file
 * The time-travel debugger tier (ctest -L debug; docs/debugging.md):
 *
 *  - reverse execution is free of observable effect: a session that
 *    reverses mid-run and re-executes forward ends byte-identical —
 *    metrics JSON, captured logs, and the Perfetto timeline — to an
 *    uninterrupted session, on both backends, both CPU designs, and
 *    with a mid-flight fault-injection plan firing inside the reversed
 *    window;
 *  - breakpoint and watchpoint hit cycles are identical across the
 *    event and netlist backends and invariant under event-engine
 *    shuffle seeds, for state-change, value-compare, execution, FIFO,
 *    and fault-instant conditions;
 *  - the repro command a failed grade emits (sim/repro.h) actually
 *    reproduces the failure: pasted into the replay CLI it lands at
 *    the frozen divergence cycle with the divergent commit exactly one
 *    `step` away, showing the same register delta the verdict froze;
 *  - TraceReader::spansAt answers the debugger's "what was live at
 *    cycle C" query, including coalesced idle spans that straddle C;
 *  - the assassyn.debug.v1 session summary accounts for keyframes and
 *    re-executed cycles.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "debug/replay.h"
#include "debug/session.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace assassyn {
namespace {

std::string
tempPath(const std::string &name)
{
    // The pid keeps names distinct across concurrently running test
    // processes; the serial, across calls within one.
    static int serial = 0;
    return ::testing::TempDir() + "assassyn_debug_" +
           std::to_string(::getpid()) + "_" + std::to_string(++serial) +
           "_" + name;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A ~120-iteration store loop: long enough to reverse into, no
 *  corpus dependency, and it runs on both CPU designs. */
grader::CorpusProgram
loopProgram()
{
    grader::CorpusProgram p;
    p.name = "debug-loop";
    p.mem_words = 64;
    p.max_cycles = 100'000;
    p.source = "    li   s0, 0x80\n"
               "    li   s1, 0\n"
               "    li   t0, 120\n"
               "loop:\n"
               "    add  s1, s1, t0\n"
               "    sw   s1, 0(s0)\n"
               "    addi t0, t0, -1\n"
               "    bnez t0, loop\n"
               "    ecall\n";
    return p;
}

enum class Kind { kInOrder, kOoO };
enum class Eng { kEvent, kNetlist };

/** Everything observable a session left behind, for byte comparison. */
struct Observed {
    std::string metrics;
    std::string logs;
    std::string timeline;
    std::string hits;
    uint64_t restored = 0;
};

/**
 * Build the design + engine + optional fault plan, hand a live session
 * to @p drive, and capture every observable output (the timeline is
 * read back after the engine flushes on destruction).
 */
template <typename Drive>
Observed
observe(Kind kind, Eng eng, const std::optional<sim::FaultSpec> &fault,
        const std::string &tag, Drive drive, uint64_t shuffle_seed = 0)
{
    std::vector<uint32_t> image = loopProgram().image();
    designs::CpuDesign cpu;
    designs::OooDesign ooo;
    const System *sys;
    if (kind == Kind::kInOrder) {
        cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
        sys = cpu.sys.get();
    } else {
        ooo = designs::buildOoo(image);
        sys = ooo.sys.get();
    }
    std::string tpath = tempPath(tag + ".trace.json");
    Observed out;
    {
        std::optional<sim::Simulator> esim;
        std::optional<rtl::Netlist> nl;
        std::optional<rtl::NetlistSim> rsim;
        if (eng == Eng::kEvent) {
            sim::SimOptions so;
            so.timeline_path = tpath;
            so.shuffle = shuffle_seed != 0;
            so.shuffle_seed = shuffle_seed ? shuffle_seed : 1;
            esim.emplace(*sys, so);
        } else {
            rtl::NetlistSimOptions no;
            no.timeline_path = tpath;
            nl.emplace(*sys);
            rsim.emplace(*nl, no);
        }
        std::optional<sim::FaultInjector> inj;
        if (fault) {
            inj.emplace(*sys, *fault);
            if (esim)
                inj->attach(*esim);
            else
                inj->attach(*rsim);
        }
        debug::DebugOptions dopts;
        dopts.keyframe_every = 64; // small, to exercise the ring
        dopts.keyframe_ring = 4;
        std::optional<debug::DebugSession> s;
        if (esim)
            s.emplace(*esim, *sys, dopts);
        else
            s.emplace(*rsim, *sys, dopts);
        if (inj)
            s->watchFaults(&*inj);
        drive(*s);
        out.metrics = s->metrics().toJson("debug");
        for (const std::string &line : s->logOutput())
            out.logs += line + "\n";
        std::ostringstream hs;
        for (const debug::HitRecord &h : s->hits())
            hs << h.cycle << " " << h.spec << " " << h.detail << "\n";
        out.hits = hs.str();
        out.restored = s->keyframesRestored();
    }
    out.timeline = readFileText(tpath);
    std::remove(tpath.c_str());
    return out;
}

// ---- Reverse round-trip byte identity ---------------------------------------

void
expectReverseIdentity(Kind kind, Eng eng,
                      const std::optional<sim::FaultSpec> &fault,
                      const std::string &tag)
{
    auto straight = [](debug::DebugSession &s) {
        s.addWatch("array:retired");
        s.runTo(300);
        s.stepCycles(1'000'000); // to finish
        ASSERT_TRUE(s.finished());
    };
    auto zigzag = [](debug::DebugSession &s) {
        s.addWatch("array:retired");
        s.runTo(200);
        s.reverseTo(120);
        ASSERT_EQ(s.cycle(), 120u);
        s.runTo(250);
        s.reverseStep(100);
        ASSERT_EQ(s.cycle(), 150u);
        s.runTo(300);
        s.stepCycles(1'000'000);
        ASSERT_TRUE(s.finished());
    };
    Observed a = observe(kind, eng, fault, tag + "_straight", straight);
    Observed b = observe(kind, eng, fault, tag + "_zigzag", zigzag);
    EXPECT_EQ(a.metrics, b.metrics) << tag;
    EXPECT_EQ(a.logs, b.logs) << tag;
    EXPECT_EQ(a.timeline, b.timeline) << tag;
    EXPECT_EQ(a.hits, b.hits) << tag;
    EXPECT_EQ(a.restored, 0u);
    EXPECT_EQ(b.restored, 2u);
    EXPECT_FALSE(b.hits.empty()) << tag;
}

TEST(DebugReverse, InOrderEventRoundTripIsByteIdentical)
{
    expectReverseIdentity(Kind::kInOrder, Eng::kEvent, std::nullopt,
                          "io_ev");
}

TEST(DebugReverse, InOrderNetlistRoundTripIsByteIdentical)
{
    expectReverseIdentity(Kind::kInOrder, Eng::kNetlist, std::nullopt,
                          "io_nl");
}

TEST(DebugReverse, OooEventRoundTripIsByteIdentical)
{
    expectReverseIdentity(Kind::kOoO, Eng::kEvent, std::nullopt,
                          "ooo_ev");
}

TEST(DebugReverse, OooNetlistRoundTripIsByteIdentical)
{
    expectReverseIdentity(Kind::kOoO, Eng::kNetlist, std::nullopt,
                          "ooo_nl");
}

/** The hard case: the reversed window [120, 250) contains live fault
 *  injections, which must re-fire identically during replay. */
TEST(DebugReverse, FaultsInsideReversedWindowReplayIdentically)
{
    sim::FaultSpec fault;
    fault.seed = 5;
    fault.count = 2;
    fault.first_cycle = 130;
    fault.last_cycle = 220;
    fault.fifos = false;
    expectReverseIdentity(Kind::kInOrder, Eng::kEvent, fault,
                          "flt_ev");
    expectReverseIdentity(Kind::kInOrder, Eng::kNetlist, fault,
                          "flt_nl");
    expectReverseIdentity(Kind::kOoO, Eng::kEvent, fault, "flt_ooo");
}

// ---- Breakpoint alignment across backends and seeds -------------------------

std::vector<uint64_t>
breakCycles(Kind kind, Eng eng, const std::string &spec, size_t count,
            uint64_t shuffle_seed = 0)
{
    std::vector<uint64_t> cycles;
    observe(kind, eng, std::nullopt,
            "bp_" + std::to_string(int(eng)) + "_" +
                std::to_string(shuffle_seed),
            [&](debug::DebugSession &s) {
                s.addBreak(spec);
                while (cycles.size() < count) {
                    debug::Stop stop = s.runTo(1'000'000);
                    if (stop.kind != debug::StopKind::kBreakpoint)
                        break;
                    cycles.push_back(stop.cycle);
                }
            },
            shuffle_seed);
    return cycles;
}

void
expectAlignedBreaks(Kind kind, const std::string &spec, size_t count)
{
    std::vector<uint64_t> ev =
        breakCycles(kind, Eng::kEvent, spec, count);
    std::vector<uint64_t> ev_shuffled =
        breakCycles(kind, Eng::kEvent, spec, count, 9);
    std::vector<uint64_t> nl =
        breakCycles(kind, Eng::kNetlist, spec, count);
    EXPECT_EQ(ev.size(), count) << spec;
    EXPECT_EQ(ev, ev_shuffled) << spec;
    EXPECT_EQ(ev, nl) << spec;
}

TEST(DebugBreakpoints, HitCyclesAlignAcrossBackendsAndSeeds)
{
    expectAlignedBreaks(Kind::kInOrder, "array:retired", 12);
    expectAlignedBreaks(Kind::kInOrder, "exec:decode", 12);
    expectAlignedBreaks(Kind::kInOrder, "fifo:exec.alu_a:push", 12);
    expectAlignedBreaks(Kind::kOoO, "array:retired", 12);
}

TEST(DebugBreakpoints, ValueCompareAlignsAcrossBackends)
{
    // A committed-state condition evaluated through the IR cone (not
    // an engine counter): decode's exposed hold signal going high.
    // Edge-triggered, so each hit is one rising edge.
    std::vector<uint64_t> ev = breakCycles(Kind::kInOrder, Eng::kEvent,
                                           "decode.fetch_hold==1", 8);
    std::vector<uint64_t> ev_shuffled = breakCycles(
        Kind::kInOrder, Eng::kEvent, "decode.fetch_hold==1", 8, 9);
    std::vector<uint64_t> nl = breakCycles(
        Kind::kInOrder, Eng::kNetlist, "decode.fetch_hold==1", 8);
    EXPECT_FALSE(ev.empty());
    EXPECT_EQ(ev, ev_shuffled);
    EXPECT_EQ(ev, nl);

    // And element-change on a register array.
    std::vector<uint64_t> eva =
        breakCycles(Kind::kInOrder, Eng::kEvent, "array:retired[0]", 8);
    std::vector<uint64_t> nla = breakCycles(Kind::kInOrder,
                                            Eng::kNetlist,
                                            "array:retired[0]", 8);
    EXPECT_EQ(eva.size(), 8u);
    EXPECT_EQ(eva, nla);
}

TEST(DebugBreakpoints, FaultInstantStopsAtTheSameCycleOnBothBackends)
{
    sim::FaultSpec fault;
    fault.seed = 7;
    fault.count = 1;
    fault.first_cycle = 50;
    fault.last_cycle = 80;
    fault.fifos = false;
    auto stopAt = [&](Eng eng) {
        uint64_t at = 0;
        observe(Kind::kInOrder, eng, fault,
                "fbp_" + std::to_string(int(eng)),
                [&](debug::DebugSession &s) {
                    s.addBreak("fault");
                    debug::Stop stop = s.runTo(1'000'000);
                    ASSERT_EQ(stop.kind, debug::StopKind::kBreakpoint);
                    at = stop.cycle;
                });
        return at;
    };
    uint64_t ev = stopAt(Eng::kEvent);
    uint64_t nl = stopAt(Eng::kNetlist);
    EXPECT_EQ(ev, nl);
    EXPECT_GE(ev, fault.first_cycle);
    EXPECT_LE(ev, fault.last_cycle + 1);
}

// ---- Session summary --------------------------------------------------------

TEST(DebugSession, SummaryAccountsForKeyframesAndReexecution)
{
    std::vector<uint32_t> image = loopProgram().image();
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::Simulator sim(*cpu.sys, {});
    debug::DebugOptions dopts;
    dopts.keyframe_every = 32;
    dopts.keyframe_ring = 3;
    debug::DebugSession s(sim, *cpu.sys, dopts);
    s.addWatch("exec:decode"); // records, never stops
    s.runTo(200);
    // Keyframes land at multiples of 32; the ring of 3 retains
    // {128, 160, 192}, so landing at 180 restores 160 and re-executes
    // at most keyframe_every - 1 cycles.
    s.reverseTo(180);
    std::string json = s.summaryJson();
    EXPECT_NE(json.find("\"schema\": \"assassyn.debug.v1\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"engine\": \"event\""), std::string::npos);
    EXPECT_NE(json.find("\"keyframes_evicted\""), std::string::npos);
    EXPECT_EQ(s.keyframesRestored(), 1u);
    EXPECT_GT(s.keyframesEvicted(), 0u); // 200/32 frames into a ring of 3
    EXPECT_GT(s.cyclesReexecuted(), 0u);
    EXPECT_LE(s.cyclesReexecuted(), dopts.keyframe_every);
    EXPECT_EQ(s.cycle(), 180u);
    // And the inspection surface answers over committed state.
    EXPECT_EQ(s.read("decode.fetch_hold"),
              uint64_t(s.readValue(s.resolveValue("decode.fetch_hold"))));
    EXPECT_EQ(s.arraySlice("retired", 0, 1).size(), 1u);
}

// ---- Scheduler counters surfaced as metrics (both backends) -----------------

TEST(DebugMetrics, SchedulerCountersAlignAcrossBackends)
{
    std::vector<uint32_t> image = loopProgram().image();
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::MetricsRegistry em, nm;
    {
        sim::Simulator sim(*cpu.sys, {});
        sim.run(100'000);
        EXPECT_TRUE(sim.finished());
        em = sim.metrics();
    }
    {
        rtl::Netlist nl(*cpu.sys);
        rtl::NetlistSim sim(nl, {});
        sim.run(100'000);
        EXPECT_TRUE(sim.finished());
        nm = sim.metrics();
    }
    for (const char *key :
         {"sched.executions", "sched.events_skipped",
          "sched.stages_woken"}) {
        EXPECT_GT(em.counter(key), 0u) << key;
        EXPECT_EQ(em.counter(key), nm.counter(key)) << key;
    }
}

// ---- The grader's one-command repro -----------------------------------------

TEST(DebugRepro, FailedGradeReproducesItsFrozenDivergence)
{
    // A corpus program under a seeded single-bit register-file fault:
    // deterministic, and the verdict freezes the first divergent
    // retirement. Search the seed space for a clean single-register
    // divergence (the search itself is deterministic).
    std::vector<grader::CorpusProgram> corpus = grader::loadCorpusDir(
        std::string(ASSASSYN_SOURCE_DIR) + "/tests/corpus");
    grader::CorpusProgram prog;
    for (grader::CorpusProgram &p : corpus)
        if (p.name == "fib")
            prog = p;
    ASSERT_FALSE(prog.name.empty());

    grader::GradeOptions opts;
    grader::Verdict verdict;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        sim::FaultSpec fault;
        fault.seed = seed;
        fault.count = 1;
        fault.first_cycle = 30;
        fault.last_cycle = 30;
        fault.fifos = false;
        opts.fault = fault;
        verdict = grader::gradeProgram(prog, grader::Core::kInOrder,
                                       grader::Engine::kEvent, opts);
        if (verdict.status == grader::GradeStatus::kDiverged &&
            verdict.divergence && verdict.divergence->kind == "reg" &&
            verdict.divergence->deltas.size() == 1)
            break;
    }
    ASSERT_EQ(verdict.status, grader::GradeStatus::kDiverged);
    ASSERT_TRUE(verdict.divergence.has_value());
    const grader::Divergence &div = *verdict.divergence;

    // gradeCorpus attaches the repro to exactly the failing runs, and
    // the report embeds it (additive assassyn.grade.v1 key).
    grader::GradeReport report = grader::gradeCorpus(
        {prog}, {grader::Core::kInOrder}, {grader::Engine::kEvent},
        opts, 1);
    ASSERT_EQ(report.runs.size(), 1u);
    const std::string &repro = report.runs[0].repro;
    ASSERT_FALSE(repro.empty());
    EXPECT_NE(report.toJson("corpus").find("\"repro\": \"replay "),
              std::string::npos);
    ASSERT_EQ(repro.rfind("replay ", 0), 0u) << repro;
    EXPECT_NE(repro.find("--until " + std::to_string(div.cycle)),
              std::string::npos)
        << repro;

    // Paste the command into the CLI: it must stop at the frozen
    // divergence cycle, and one `step` later the DUT register file
    // shows exactly the delta the verdict froze.
    std::vector<std::string> args;
    std::istringstream split(repro.substr(7));
    std::string tok;
    while (split >> tok)
        args.push_back(tok);
    std::istringstream in("step 1\narray rf " +
                          std::to_string(div.deltas[0].index) +
                          " 1\nquit\n");
    std::ostringstream out, err;
    int rc = debug::replayMain(args, in, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    EXPECT_NE(text.find("stopped at cycle " +
                        std::to_string(div.cycle) + ":"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("): " + std::to_string(div.deltas[0].actual)),
              std::string::npos)
        << "expected rf[" << div.deltas[0].index << "] == "
        << div.deltas[0].actual << " one step past the stop\n"
        << text;

    // The control arm: passing grades carry no repro.
    grader::GradeOptions clean;
    grader::GradeReport ok = grader::gradeCorpus(
        {prog}, {grader::Core::kInOrder}, {grader::Engine::kEvent},
        clean, 1);
    ASSERT_EQ(ok.runs.size(), 1u);
    EXPECT_TRUE(ok.runs[0].verdict.pass());
    EXPECT_TRUE(ok.runs[0].repro.empty());
}

// ---- spansAt / instantsAt (the `bt` query) ----------------------------------

TEST(DebugTrace, SpansAtIncludesStraddlingCoalescedSpans)
{
    // A synthetic timeline pins the exact boundary semantics: one
    // coalesced idle span [10, 30), one unit span at 15, one
    // zero-duration marker at 25, one instant at 15.
    sim::TraceReader tr = sim::TraceReader::fromString(
        "{\"schema\":\"assassyn.trace.v1\",\"traceEvents\":["
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"decode\"}},"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"idle\","
        "\"cat\":\"stall\",\"ts\":10,\"dur\":20},"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"name\":\"exec\","
        "\"cat\":\"stage\",\"ts\":15,\"dur\":1},"
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"mark\","
        "\"cat\":\"stall\",\"ts\":25,\"dur\":0},"
        "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"fault\","
        "\"cat\":\"system\",\"ts\":15}]}");

    // Mid-span: the straddling idle span is live at 15, and so is the
    // unit span that starts there; the instant lands too.
    std::vector<sim::TraceSpan> at15 = tr.spansAt(15);
    ASSERT_EQ(at15.size(), 2u);
    EXPECT_EQ(at15[0].name, "idle");
    EXPECT_EQ(at15[0].track, "decode");
    EXPECT_EQ(at15[1].name, "exec");
    ASSERT_EQ(tr.instantsAt(15).size(), 1u);
    EXPECT_EQ(tr.instantsAt(15)[0].name, "fault");
    EXPECT_TRUE(tr.instantsAt(16).empty());

    // Inclusive start, exclusive end.
    EXPECT_EQ(tr.spansAt(10).size(), 1u);
    EXPECT_EQ(tr.spansAt(29).size(), 1u);
    EXPECT_TRUE(tr.spansAt(30).empty());
    EXPECT_TRUE(tr.spansAt(9).empty());

    // A zero-duration span matches exactly at its own timestamp.
    std::vector<sim::TraceSpan> at25 = tr.spansAt(25);
    ASSERT_EQ(at25.size(), 2u); // the idle span straddles 25 as well
    EXPECT_EQ(at25[1].name, "mark");
    EXPECT_TRUE(tr.spansAt(26).size() == 1 &&
                tr.spansAt(26)[0].name == "idle");
}

TEST(DebugTrace, SpansAtAnswersOverARealTimeline)
{
    // And over a real CPU timeline: a cycle chosen inside a coalesced
    // multi-cycle span must report that span as live.
    std::vector<uint32_t> image = loopProgram().image();
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    std::string path = tempPath("spansat.trace.json");
    {
        sim::SimOptions so;
        so.timeline_path = path;
        sim::Simulator sim(*cpu.sys, so);
        sim.run(100'000);
        ASSERT_TRUE(sim.finished());
    }
    sim::TraceReader tr = sim::TraceReader::fromFile(path);
    std::remove(path.c_str());
    const sim::TraceSpan *wide = nullptr;
    for (const sim::TraceSpan &span : tr.spans())
        if (span.dur >= 3) {
            wide = &span;
            break;
        }
    ASSERT_NE(wide, nullptr) << "no coalesced span in the timeline";
    uint64_t mid = wide->ts + wide->dur / 2;
    bool found = false;
    for (const sim::TraceSpan &span : tr.spansAt(mid))
        found |= span.ts == wide->ts && span.dur == wide->dur &&
                 span.name == wide->name && span.track == wide->track;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace assassyn
