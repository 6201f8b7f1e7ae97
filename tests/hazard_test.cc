/**
 * @file
 * The hazard-aware runtime tier (ctest -L hazard; docs/robustness.md):
 *
 *  - the deadlock/livelock watchdog terminates zero-progress designs
 *    within its window and renders a wait-for graph that is
 *    byte-identical across the event-driven simulator and the netlist
 *    simulator;
 *  - every FIFO backpressure policy (Abort / StallProducer /
 *    DropNewest) behaves identically on both backends, with aligned
 *    drop/stall counters in the MetricsRegistry;
 *  - run() reports design faults structurally (RunResult) with the
 *    enriched diagnostics of the Abort path, and still flushes the
 *    event trace on the way out;
 *  - seeded fault injection is deterministic across repeat runs,
 *    produces matching divergence verdicts on both backends, and is
 *    detected by the differential metrics harness on the three paper
 *    designs (CPU, systolic array, accelerator).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel.h"
#include "designs/cpu.h"
#include "designs/systolic.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "support/logging.h"
#include "support/rng.h"

namespace assassyn {
namespace {

using namespace dsl;

// ---- Fixtures ---------------------------------------------------------------

/**
 * Two stages blocked on each other's FIFO: a one-shot driver kick
 * subscribes an event to each stage without pushing data, so both wait
 * forever on an argument the other would only produce by executing.
 */
struct CyclicDeadlock {
    SysBuilder sb{"cyclic"};
    Stage a, b, d;

    CyclicDeadlock()
    {
        a = sb.stage("a", {{"x", uintType(8)}});
        b = sb.stage("b", {{"y", uintType(8)}});
        d = sb.driver();
        Reg started = sb.reg("started", uintType(1));
        {
            StageScope scope(a);
            asyncCall(b, {a.arg("x")});
        }
        {
            StageScope scope(b);
            asyncCall(a, {b.arg("y")});
        }
        {
            StageScope scope(d);
            when(started.read() == 0, [&] {
                asyncCallNamed(a, {});
                asyncCallNamed(b, {});
                started.write(lit(1, 1));
            });
        }
        compile(sb.sys());
    }
};

/** One event delivered to a stage whose wait_until can never hold. */
struct NeverTrueWait {
    SysBuilder sb{"spinner"};
    Stage sink, d;

    NeverTrueWait()
    {
        sink = sb.stage("sink", {{"x", uintType(8)}});
        d = sb.driver();
        Reg started = sb.reg("started", uintType(1));
        {
            StageScope scope(sink);
            waitUntil([&] { return litFalse(); });
            sink.arg("x");
        }
        {
            StageScope scope(d);
            when(started.read() == 0, [&] {
                asyncCall(sink, {lit(7, 8)});
                started.write(lit(1, 1));
            });
        }
        compile(sb.sys());
    }
};

/**
 * A driver flooding a non-consuming sink through a shallow FIFO; the
 * policy under test decides what happens when it fills.
 */
struct Flooder {
    SysBuilder sb{"flood"};
    Stage sink, d;

    explicit Flooder(FifoPolicy policy)
    {
        sink = sb.stage("sink", {{"x", uintType(8)}});
        sink.fifoDepth("x", 4);
        sink.fifoPolicy("x", policy);
        d = sb.driver();
        {
            StageScope scope(sink);
            waitUntil([&] { return litFalse(); }); // never consumes
            sink.arg("x");
        }
        {
            StageScope scope(d);
            asyncCall(sink, {lit(1, 8)});
        }
        compile(sb.sys());
    }
};

/**
 * Lossless backpressure: a producer sends 20 values through a depth-2
 * kStallProducer FIFO into a sink that only consumes on odd cycles, so
 * the producer must stall and retry without losing anything.
 */
struct StallProducerChain {
    SysBuilder sb{"stall_chain"};
    Stage sink, prod, tick;
    Reg drained;

    StallProducerChain()
    {
        sink = sb.stage("sink", {{"x", uintType(8)}});
        sink.fifoDepth("x", 2);
        sink.fifoPolicy("x", FifoPolicy::kStallProducer);
        prod = sb.driver("prod");
        tick = sb.driver("tick");
        Reg cnt = sb.reg("cnt", uintType(8));
        Reg sent = sb.reg("sent", uintType(8));
        drained = sb.reg("drained", uintType(8));
        {
            StageScope scope(tick);
            cnt.write(cnt.read() + 1);
        }
        {
            StageScope scope(sink);
            waitUntil(
                [&] { return sink.argValid("x") & cnt.read().bit(0); });
            drained.write(drained.read() + sink.arg("x"));
        }
        {
            StageScope scope(prod);
            Val n = sent.read();
            when(n < lit(20, 8), [&] {
                asyncCall(sink, {lit(1, 8)});
                sent.write(n + 1);
            });
        }
        compile(sb.sys());
    }
};

/** Run both backends with the same watchdog window. */
sim::RunResult
runEvent(const System &sys, uint64_t window, uint64_t max_cycles,
         sim::SimOptions opts = {})
{
    opts.watchdog_window = window;
    sim::Simulator s(sys, opts);
    return s.run(max_cycles);
}

sim::RunResult
runNetlist(const System &sys, uint64_t window, uint64_t max_cycles)
{
    rtl::Netlist nl(sys);
    rtl::NetlistSimOptions opts;
    opts.watchdog_window = window;
    rtl::NetlistSim s(nl, opts);
    return s.run(max_cycles);
}

// ---- Watchdog ---------------------------------------------------------------

TEST(WatchdogTest, CyclicFifoDeadlockDiagnosed)
{
    CyclicDeadlock fix;
    sim::RunResult res = runEvent(fix.sb.sys(), 64, 100'000);
    ASSERT_EQ(res.status, sim::RunStatus::kDeadlock);
    // Terminated within the window, not by burning the cycle budget.
    EXPECT_LT(res.cycles, 200u);
    EXPECT_EQ(res.hazard.kind, "deadlock");
    EXPECT_EQ(res.hazard.window, 64u);
    ASSERT_EQ(res.hazard.waiting.size(), 2u);
    // Both stages appear, each naming the starved FIFO and who feeds it.
    EXPECT_EQ(res.hazard.waiting[0].stage, "a");
    EXPECT_EQ(res.hazard.waiting[0].reason, "fifo_empty");
    EXPECT_EQ(res.hazard.waiting[0].peer, "b");
    EXPECT_EQ(res.hazard.waiting[1].stage, "b");
    EXPECT_EQ(res.hazard.waiting[1].peer, "a");
    EXPECT_NE(res.hazard.toString().find("wait-for graph:"),
              std::string::npos);
}

TEST(WatchdogTest, NeverTrueWaitIsLivelock)
{
    NeverTrueWait fix;
    sim::RunResult res = runEvent(fix.sb.sys(), 64, 100'000);
    ASSERT_EQ(res.status, sim::RunStatus::kLivelock);
    EXPECT_EQ(res.hazard.kind, "livelock");
    ASSERT_EQ(res.hazard.waiting.size(), 1u);
    EXPECT_EQ(res.hazard.waiting[0].stage, "sink");
    EXPECT_EQ(res.hazard.waiting[0].reason, "wait_until");
    EXPECT_EQ(res.hazard.waiting[0].pending, 1u);
}

TEST(WatchdogTest, VerdictByteIdenticalAcrossBackends)
{
    CyclicDeadlock dead;
    sim::RunResult ed = runEvent(dead.sb.sys(), 64, 100'000);
    sim::RunResult rd = runNetlist(dead.sb.sys(), 64, 100'000);
    EXPECT_EQ(ed.status, rd.status);
    EXPECT_EQ(ed.cycles, rd.cycles);
    EXPECT_EQ(ed.hazard.detected_cycle, rd.hazard.detected_cycle);
    EXPECT_EQ(ed.hazard.toString(), rd.hazard.toString());

    NeverTrueWait live;
    sim::RunResult el = runEvent(live.sb.sys(), 64, 100'000);
    sim::RunResult rl = runNetlist(live.sb.sys(), 64, 100'000);
    EXPECT_EQ(el.status, sim::RunStatus::kLivelock);
    EXPECT_EQ(el.status, rl.status);
    EXPECT_EQ(el.cycles, rl.cycles);
    EXPECT_EQ(el.hazard.toString(), rl.hazard.toString());
}

TEST(WatchdogTest, DisabledWindowFallsBackToMaxCycles)
{
    CyclicDeadlock fix;
    sim::RunResult res = runEvent(fix.sb.sys(), 0, 500);
    EXPECT_EQ(res.status, sim::RunStatus::kMaxCycles);
    EXPECT_EQ(res.cycles, 500u);
    // The best-effort diagnosis still names the blocked stages, but
    // makes no deadlock/livelock claim.
    EXPECT_TRUE(res.hazard.kind.empty());
    EXPECT_EQ(res.hazard.waiting.size(), 2u);
}

TEST(WatchdogTest, HealthyDesignUnaffected)
{
    SysBuilder sb("healthy");
    Stage d = sb.driver();
    Reg cnt = sb.reg("cnt", uintType(8));
    {
        StageScope scope(d);
        Val v = cnt.read();
        cnt.write(v + 1);
        when(v == 9, [&] { finish(); });
    }
    compile(sb.sys());
    sim::RunResult res = runEvent(sb.sys(), 4, 1000);
    EXPECT_EQ(res.status, sim::RunStatus::kFinished);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.hazard.empty());
    EXPECT_EQ(runNetlist(sb.sys(), 4, 1000).status,
              sim::RunStatus::kFinished);
}

TEST(WatchdogTest, HazardStillFlushesTrace)
{
    NeverTrueWait fix;
    std::string path = ::testing::TempDir() + "hazard_trace.txt";
    sim::SimOptions opts;
    opts.trace_path = path;
    sim::RunResult res = runEvent(fix.sb.sys(), 32, 100'000, opts);
    ASSERT_EQ(res.status, sim::RunStatus::kLivelock);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    // The per-cycle event trace survives the hazard, and the wait-for
    // graph is appended to it (satellite 2).
    EXPECT_NE(text.str().find("livelock detected"), std::string::npos);
    EXPECT_NE(text.str().find("sink: blocked on wait_until"),
              std::string::npos);
    std::remove(path.c_str());
}

/**
 * Satellite 2 of the checkpoint PR (docs/robustness.md): a restore must
 * reconstruct the watchdog's zero-progress window exactly. Snapshot
 * mid-window — after the design has quiesced but before the verdict —
 * and the resumed run must reach the *same* verdict at the *same*
 * absolute cycle, with the same wait-for graph: no missed deadlock, no
 * spurious early one.
 */
TEST(WatchdogTest, ResumeReconstructsProgressWindow)
{
    CyclicDeadlock fix;
    const uint64_t window = 64;

    sim::SimOptions opts;
    opts.watchdog_window = window;
    sim::Simulator straight(fix.sb.sys(), opts);
    sim::RunResult sres = straight.run(100'000);
    ASSERT_EQ(sres.status, sim::RunStatus::kDeadlock);
    uint64_t detected = straight.cycle();
    ASSERT_GT(detected, window / 2);

    // Snapshot mid-window: the design quiesced within a few cycles, so
    // cycle detected/2 sits strictly inside the zero-progress run-up.
    uint64_t k = detected / 2;
    sim::Simulator first(fix.sb.sys(), opts);
    ASSERT_EQ(first.run(k).status, sim::RunStatus::kMaxCycles);
    sim::Snapshot snap = first.snapshot();

    sim::Simulator resumed(fix.sb.sys(), opts);
    resumed.restore(snap);
    sim::RunResult rres = resumed.run(100'000);
    EXPECT_EQ(rres.status, sim::RunStatus::kDeadlock);
    // Same absolute detection cycle: the restored window picks up the
    // quiet cycles already accumulated before the snapshot.
    EXPECT_EQ(resumed.cycle(), detected);
    EXPECT_EQ(k + rres.cycles, sres.cycles);
    EXPECT_EQ(rres.hazard.detected_cycle, sres.hazard.detected_cycle);
    EXPECT_EQ(rres.hazard.toString(), sres.hazard.toString());

    // Same contract on the netlist backend, restored from the *event*
    // engine's mid-window snapshot.
    rtl::Netlist nl(fix.sb.sys());
    rtl::NetlistSimOptions nopts;
    nopts.watchdog_window = window;
    rtl::NetlistSim nresumed(nl, nopts);
    nresumed.restore(snap);
    sim::RunResult nres = nresumed.run(100'000);
    EXPECT_EQ(nres.status, sim::RunStatus::kDeadlock);
    EXPECT_EQ(nresumed.cycle(), detected);
    EXPECT_EQ(nres.hazard.toString(), sres.hazard.toString());
}

/** A run that ended in a watchdog verdict is not resumable. */
TEST(WatchdogTest, SnapshotAfterVerdictIsAStructuredFatal)
{
    CyclicDeadlock fix;
    sim::SimOptions opts;
    opts.watchdog_window = 64;
    sim::Simulator s(fix.sb.sys(), opts);
    ASSERT_EQ(s.run(100'000).status, sim::RunStatus::kDeadlock);
    EXPECT_THROW(s.snapshot(), FatalError);

    rtl::Netlist nl(fix.sb.sys());
    rtl::NetlistSimOptions nopts;
    nopts.watchdog_window = 64;
    rtl::NetlistSim ns(nl, nopts);
    ASSERT_EQ(ns.run(100'000).status, sim::RunStatus::kDeadlock);
    EXPECT_THROW(ns.snapshot(), FatalError);
}

// ---- Backpressure policies --------------------------------------------------

TEST(BackpressureTest, AbortMessageEnrichedAndAligned)
{
    Flooder fix(FifoPolicy::kAbort);
    sim::RunResult eres = runEvent(fix.sb.sys(), 1024, 100);
    ASSERT_EQ(eres.status, sim::RunStatus::kFault);
    EXPECT_NE(eres.error.find("FIFO overflow on 'sink.x'"),
              std::string::npos)
        << eres.error;
    EXPECT_NE(eres.error.find("occupancy 4/4"), std::string::npos)
        << eres.error;
    EXPECT_NE(eres.error.find("push from stage 'driver'"),
              std::string::npos)
        << eres.error;
    EXPECT_NE(eres.error.find("cycle "), std::string::npos) << eres.error;

    sim::RunResult rres = runNetlist(fix.sb.sys(), 1024, 100);
    ASSERT_EQ(rres.status, sim::RunStatus::kFault);
    EXPECT_EQ(rres.error, eres.error);
    EXPECT_EQ(rres.cycles, eres.cycles);
}

TEST(BackpressureTest, DropNewestCountsDropsIdentically)
{
    Flooder fix(FifoPolicy::kDropNewest);

    sim::SimOptions eopts;
    eopts.watchdog_window = 1024;
    sim::Simulator esim(fix.sb.sys(), eopts);
    sim::RunResult eres = esim.run(50);
    EXPECT_EQ(eres.status, sim::RunStatus::kMaxCycles);

    rtl::Netlist nl(fix.sb.sys());
    rtl::NetlistSim rsim(nl);
    sim::RunResult rres = rsim.run(50);
    EXPECT_EQ(rres.status, sim::RunStatus::kMaxCycles);

    sim::MetricsRegistry em = esim.metrics();
    sim::MetricsRegistry rm = rsim.metrics();
    EXPECT_TRUE(em == rm) << em.diff(rm);
    const Port *port = fix.sink.mod()->port("x");
    // 4 pushes land, the remaining 46 are dropped on the floor.
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "pushes")), 4u);
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "drops")), 46u);
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "stall_cycles")), 0u);
}

TEST(BackpressureTest, StallProducerIsLossless)
{
    StallProducerChain fix;

    sim::SimOptions eopts;
    eopts.capture_logs = false;
    sim::Simulator esim(fix.sb.sys(), eopts);
    sim::RunResult eres = esim.run(200);
    EXPECT_EQ(eres.status, sim::RunStatus::kMaxCycles);

    rtl::Netlist nl(fix.sb.sys());
    rtl::NetlistSim rsim(nl, {.capture_logs = false});
    sim::RunResult rres = rsim.run(200);
    EXPECT_EQ(rres.status, sim::RunStatus::kMaxCycles);

    // Nothing lost: all 20 sends arrive despite the depth-2 FIFO.
    EXPECT_EQ(esim.readArray(fix.drained.array(), 0), 20u);
    EXPECT_EQ(rsim.readArray(fix.drained.array(), 0), 20u);

    sim::MetricsRegistry em = esim.metrics();
    sim::MetricsRegistry rm = rsim.metrics();
    EXPECT_TRUE(em == rm) << em.diff(rm);
    const Port *port = fix.sink.mod()->port("x");
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "pushes")), 20u);
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "pops")), 20u);
    EXPECT_EQ(em.counter(sim::fifoKey(*port, "drops")), 0u);
    // The producer really did stall, and both sides of the accounting
    // (per-FIFO and per-stage) saw it.
    EXPECT_GT(em.counter(sim::fifoKey(*port, "stall_cycles")), 0u);
    EXPECT_GT(em.counter(sim::stageKey(*fix.prod.mod(),
                                       "backpressure_stalls")),
              0u);
}

TEST(BackpressureTest, StallProducerNeverTripsWatchdog)
{
    StallProducerChain fix;
    // Tiny window: transient backpressure stalls must not be mistaken
    // for a deadlock while the sink keeps draining.
    sim::RunResult res = runEvent(fix.sb.sys(), 8, 200);
    EXPECT_EQ(res.status, sim::RunStatus::kMaxCycles);
}

// ---- Fault injection --------------------------------------------------------

sim::FaultSpec
cpuSpec()
{
    sim::FaultSpec spec;
    spec.seed = 11;
    spec.count = 4;
    spec.first_cycle = 40;
    spec.last_cycle = 160;
    return spec;
}

struct InjectedRun {
    sim::RunResult res;
    std::string faults;
    sim::MetricsRegistry metrics;
    std::vector<uint64_t> state; ///< all array elements, declaration order
};

/** Flatten every architectural array of @p sys as @p s left it. */
std::vector<uint64_t>
snapshotState(const sim::Engine &s, const System &sys)
{
    std::vector<uint64_t> out;
    for (const auto &array : sys.arrays())
        for (size_t i = 0; i < array->size(); ++i)
            out.push_back(s.readArray(array.get(), i));
    return out;
}

InjectedRun
injectEvent(const System &sys, const sim::FaultSpec &spec,
            uint64_t max_cycles)
{
    sim::SimOptions opts;
    opts.capture_logs = false;
    sim::Simulator s(sys, opts);
    sim::FaultInjector inj(sys, spec);
    inj.attach(s);
    InjectedRun out;
    out.res = s.run(max_cycles);
    out.faults = inj.summary();
    out.metrics = s.metrics();
    out.state = snapshotState(s, sys);
    return out;
}

InjectedRun
injectNetlist(const System &sys, const sim::FaultSpec &spec,
              uint64_t max_cycles)
{
    rtl::Netlist nl(sys);
    rtl::NetlistSim s(nl, {.capture_logs = false});
    sim::FaultInjector inj(sys, spec);
    inj.attach(s);
    InjectedRun out;
    out.res = s.run(max_cycles);
    out.faults = inj.summary();
    out.metrics = s.metrics();
    out.state = snapshotState(s, sys);
    return out;
}

void
expectInjectedRunsEqual(const InjectedRun &x, const InjectedRun &y,
                        const char *what)
{
    EXPECT_EQ(x.res.status, y.res.status) << what;
    EXPECT_EQ(x.res.cycles, y.res.cycles) << what;
    EXPECT_EQ(x.res.error, y.res.error) << what;
    EXPECT_EQ(x.res.hazard.toString(), y.res.hazard.toString()) << what;
    EXPECT_EQ(x.faults, y.faults) << what;
    EXPECT_TRUE(x.metrics == y.metrics)
        << what << " metrics diverged:\n" << x.metrics.diff(y.metrics);
    EXPECT_EQ(x.state, y.state) << what;
}

TEST(FaultInjectionTest, DeterministicAcrossRepeatRuns)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    InjectedRun first = injectEvent(*cpu.sys, cpuSpec(), 20'000);
    InjectedRun second = injectEvent(*cpu.sys, cpuSpec(), 20'000);
    EXPECT_FALSE(first.faults.empty());
    expectInjectedRunsEqual(first, second, "repeat");
}

/**
 * The acceptance check of docs/robustness.md: the same FaultSpec on the
 * two backends yields the same verdict — whatever divergence the fault
 * causes relative to a clean run happens identically on both — and the
 * differential metrics harness detects the corruption against the clean
 * baseline.
 */
void
expectFaultDetectedAndAligned(const System &sys,
                              const sim::FaultSpec &spec,
                              uint64_t max_cycles)
{
    sim::SimOptions clean_opts;
    clean_opts.capture_logs = false;
    sim::Simulator clean(sys, clean_opts);
    clean.run(max_cycles);
    sim::MetricsRegistry baseline = clean.metrics();
    std::vector<uint64_t> clean_state = snapshotState(clean, sys);

    InjectedRun ev = injectEvent(sys, spec, max_cycles);
    InjectedRun nv = injectNetlist(sys, spec, max_cycles);
    expectInjectedRunsEqual(ev, nv, sys.name().c_str());
    EXPECT_FALSE(ev.faults.empty()) << sys.name();
    // Detection: the corrupted run is distinguishable from the clean
    // one through what the differential harness observes — the metrics
    // snapshot or the final architectural state.
    EXPECT_TRUE(!(baseline == ev.metrics) || clean_state != ev.state)
        << sys.name() << ": faults left no observable trace";
}

TEST(FaultInjectionTest, DetectedOnCpu)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    expectFaultDetectedAndAligned(*cpu.sys, cpuSpec(), 20'000);
}

TEST(FaultInjectionTest, DetectedOnSystolic)
{
    size_t n = 3;
    Rng rng(23);
    std::vector<uint32_t> a(n * n), b(n * n);
    for (auto &v : a)
        v = uint32_t(rng.below(64));
    for (auto &v : b)
        v = uint32_t(rng.below(64));
    auto design = designs::buildSystolic(n, a, b);
    sim::FaultSpec spec;
    spec.seed = 5;
    spec.count = 3;
    spec.first_cycle = 4;
    spec.last_cycle = 12;
    expectFaultDetectedAndAligned(*design.sys, spec, 1000);
}

TEST(FaultInjectionTest, DetectedOnAccel)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(500, 5));
    sim::FaultSpec spec;
    spec.seed = 7;
    spec.count = 3;
    spec.first_cycle = 100;
    spec.last_cycle = 400;
    expectFaultDetectedAndAligned(*design.sys, spec, 100'000);
}

TEST(FaultInjectionTest, EmptyFifoSkipIsRecorded)
{
    // A window before any traffic exists: FIFO-targeted faults must be
    // skipped deterministically, not crash or stall.
    NeverTrueWait fix;
    sim::FaultSpec spec;
    spec.seed = 2;
    spec.count = 8;
    spec.first_cycle = 0;
    spec.last_cycle = 0;
    spec.arrays = false;
    InjectedRun ev = injectEvent(fix.sb.sys(), spec, 40);
    InjectedRun nv = injectNetlist(fix.sb.sys(), spec, 40);
    EXPECT_EQ(ev.faults, nv.faults);
    EXPECT_NE(ev.faults.find("skipped"), std::string::npos) << ev.faults;
}

} // namespace
} // namespace assassyn
