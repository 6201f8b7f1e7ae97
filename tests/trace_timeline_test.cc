/**
 * @file
 * The timeline-tracing tier (ctest -L trace; docs/observability.md,
 * "Timeline tracing"):
 *
 *  - for the same design and seed, sim::Simulator and rtl::NetlistSim
 *    emit byte-identical trace files (schema assassyn.trace.v1) — the
 *    metrics-alignment guarantee extended to the timeline itself — on
 *    the CPU and two MachSuite accelerators;
 *  - activity spans are coalesced on state change, never per cycle;
 *  - FIFO flow events link the committing producer to the consumer,
 *    n-th push to n-th pop;
 *  - fault injections and watchdog verdicts land on the system track,
 *    identically on both backends;
 *  - the bounded event ring drops oldest-first, counts its drops into
 *    trace.dropped_events, and both backends drop identically;
 *  - two live runs handed the same output path fail fast with a
 *    structured collision diagnostic — directly, and through runSweep
 *    as one fault record per colliding run in a complete report.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "support/logging.h"

namespace assassyn {
namespace {

using namespace dsl;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "assassyn_" + name;
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

/**
 * Run both backends over @p sys with timelines on and require the two
 * trace files byte-identical; returns the parsed trace for further
 * assertions.
 */
sim::TraceReader
expectIdenticalTraces(const System &sys, const std::string &tag,
                      uint64_t max_cycles,
                      size_t ring = size_t(1) << 20,
                      uint64_t watchdog = 1024)
{
    std::string epath = tempPath(tag + "_event.json");
    std::string rpath = tempPath(tag + "_rtl.json");
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = epath;
        opts.timeline_events = ring;
        opts.watchdog_window = watchdog;
        sim::Simulator esim(sys, opts);
        esim.run(max_cycles);
    }
    {
        rtl::Netlist nl(sys);
        rtl::NetlistSimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = rpath;
        opts.timeline_events = ring;
        opts.watchdog_window = watchdog;
        rtl::NetlistSim rsim(nl, opts);
        rsim.run(max_cycles);
    }
    std::string etext = readFileText(epath);
    std::string rtext = readFileText(rpath);
    EXPECT_EQ(etext, rtext) << tag << ": trace files diverged";
    sim::TraceReader reader = sim::TraceReader::fromString(etext);
    EXPECT_EQ(reader.schema(), "assassyn.trace.v1");
    std::remove(epath.c_str());
    std::remove(rpath.c_str());
    return reader;
}

// ---- Cross-backend byte identity on the paper designs -----------------------

TEST(TraceTimeline, CpuTracesByteIdentical)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::TraceReader tr =
        expectIdenticalTraces(*cpu.sys, "cpu_vvadd", 50'000'000);
    EXPECT_FALSE(tr.spans().empty());
    EXPECT_FALSE(tr.flows().empty());
    EXPECT_GT(tr.stats().at("events"), 0u);
}

TEST(TraceTimeline, KmpAccelTracesByteIdentical)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(500, 5));
    sim::TraceReader tr =
        expectIdenticalTraces(*design.sys, "kmp", 1'000'000);
    EXPECT_FALSE(tr.spans().empty());
}

TEST(TraceTimeline, MergeSortAccelTracesByteIdentical)
{
    auto design =
        designs::buildMergeSortAccel(designs::makeMergeSortData(64, 7));
    sim::TraceReader tr =
        expectIdenticalTraces(*design.sys, "mergesort", 1'000'000);
    EXPECT_FALSE(tr.spans().empty());
}

// ---- Span coalescing and flow linkage ---------------------------------------

/** A driver streaming a counter into a consuming sink. */
struct Stream {
    SysBuilder sb{"stream"};
    Stage sink, d;

    Stream()
    {
        sink = sb.stage("sink", {{"x", uintType(16)}});
        d = sb.driver();
        Reg n = sb.reg("n", uintType(16));
        {
            StageScope scope(sink);
            sink.arg("x");
        }
        {
            StageScope scope(d);
            Val cur = n.read();
            when(cur < 40, [&] { asyncCall(sink, {cur}); });
            when(cur == 40, [&] { finish(); });
            n.write(cur + 1);
        }
        compile(sb.sys());
    }
};

TEST(TraceTimeline, ActivitySpansAreCoalescedNotPerCycle)
{
    Stream design;
    sim::TraceReader tr =
        expectIdenticalTraces(design.sb.sys(), "stream", 10'000);

    // The sink executes for a ~40-cycle stretch: one coalesced exec
    // span per state change, far fewer spans than cycles.
    auto sink_spans = tr.spans("sink");
    ASSERT_FALSE(sink_spans.empty());
    uint64_t cycles = 0;
    for (const sim::TraceSpan &s : sink_spans) {
        EXPECT_GT(s.dur, 0u);
        cycles += s.dur;
    }
    EXPECT_LT(sink_spans.size(), cycles)
        << "spans were emitted per-cycle, not coalesced";
    uint64_t exec_cycles = 0;
    for (const sim::TraceSpan &s : tr.spans("sink", "exec"))
        exec_cycles += s.dur;
    EXPECT_GE(exec_cycles, 40u);

    // Spans on one track never overlap and are timestamp-monotone.
    for (size_t i = 1; i < sink_spans.size(); ++i)
        EXPECT_GE(sink_spans[i].ts, sink_spans[i - 1].end());
}

TEST(TraceTimeline, FlowsLinkNthPushToNthPop)
{
    Stream design;
    sim::TraceReader tr =
        expectIdenticalTraces(design.sb.sys(), "stream_flows", 10'000);

    ASSERT_FALSE(tr.flows().empty());
    size_t complete = 0;
    for (const sim::TraceFlow &flow : tr.flows()) {
        EXPECT_EQ(flow.name, "fifo.sink.x");
        if (!flow.complete())
            continue;
        ++complete;
        EXPECT_EQ(flow.src_track, "driver");
        EXPECT_EQ(flow.dst_track, "sink");
        // A push commits at least one cycle before its pop commits.
        EXPECT_LT(flow.src_ts, flow.dst_ts);
    }
    EXPECT_GE(complete, 40u);

    // follow() resolves flow 0 (sequence number 0 of fifo ordinal 0).
    const sim::TraceFlow *first = tr.follow("fifo.sink.x", 0);
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first->complete());
}

// ---- Ring bound and dropped-span accounting ---------------------------------

TEST(TraceTimeline, RingBoundsRetainedEventsAndCountsDrops)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(300, 11));
    const size_t kRing = 64;

    std::string epath = tempPath("ring_event.json");
    std::string rpath = tempPath("ring_rtl.json");
    sim::MetricsRegistry em, rm;
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = epath;
        opts.timeline_events = kRing;
        sim::Simulator esim(*design.sys, opts);
        esim.run(1'000'000);
        ASSERT_TRUE(esim.finished());
        ASSERT_NE(esim.traceRecorder(), nullptr);
        EXPECT_EQ(esim.traceRecorder()->ringCapacity(), kRing);
        em = esim.metrics();
    }
    {
        rtl::Netlist nl(*design.sys);
        rtl::NetlistSimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = rpath;
        opts.timeline_events = kRing;
        rtl::NetlistSim rsim(nl, opts);
        rsim.run(1'000'000);
        ASSERT_TRUE(rsim.finished());
        ASSERT_NE(rsim.traceRecorder(), nullptr);
        rm = rsim.metrics();
    }

    // Dropped-span accounting surfaces in the registry and aligns.
    EXPECT_TRUE(em.has("trace.events"));
    EXPECT_LE(em.counter("trace.events"), kRing);
    EXPECT_GT(em.counter("trace.dropped_events"), 0u);
    EXPECT_EQ(em.counter("trace.events"), rm.counter("trace.events"));
    EXPECT_EQ(em.counter("trace.dropped_events"),
              rm.counter("trace.dropped_events"));

    // Both backends dropped the identical oldest prefix.
    std::string etext = readFileText(epath);
    EXPECT_EQ(etext, readFileText(rpath));

    // The file's stats block reconciles with the ring bound; retained
    // events are the most recent (drop-oldest keeps the ending).
    sim::TraceReader tr = sim::TraceReader::fromString(etext);
    EXPECT_LE(tr.stats().at("events"), kRing);
    EXPECT_GT(tr.stats().at("dropped_events"), 0u);
    EXPECT_EQ(tr.stats().at("ring_capacity"), kRing);
    EXPECT_LE(tr.spans().size() + tr.instants().size(), kRing);
    std::remove(epath.c_str());
    std::remove(rpath.c_str());
}

TEST(TraceTimeline, UnboundedRunDropsNothing)
{
    Stream design;
    std::string path = tempPath("nodrop.json");
    sim::SimOptions opts;
    opts.capture_logs = false;
    opts.timeline_path = path;
    {
        sim::Simulator s(design.sb.sys(), opts);
        s.run(10'000);
        ASSERT_TRUE(s.finished());
        EXPECT_EQ(s.metrics().counter("trace.dropped_events"), 0u);
    }
    sim::TraceReader tr = sim::TraceReader::fromFile(path);
    EXPECT_EQ(tr.stats().at("dropped_events"), 0u);
    std::remove(path.c_str());
}

// ---- Watchdog verdicts and fault injections on the system track -------------

/** Two stages each waiting on an argument only the other would send. */
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

TEST(TraceTimeline, WatchdogVerdictRecordedIdentically)
{
    CyclicDeadlock design;
    sim::TraceReader tr = expectIdenticalTraces(
        design.sb.sys(), "deadlock", 100'000,
        /*ring=*/size_t(1) << 20, /*watchdog=*/64);

    auto verdicts = tr.instants("system", "watchdog");
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].cat, "hazard");
    EXPECT_EQ(verdicts[0].args.at("kind"), "deadlock");
}

TEST(TraceTimeline, FaultInjectionsRecordedIdentically)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(200, 5));
    sim::FaultSpec spec;
    spec.seed = 42;
    spec.count = 3;
    spec.first_cycle = 2;
    spec.last_cycle = 50;
    spec.fifos = false; // array flips only: the run still completes

    std::string epath = tempPath("fault_event.json");
    std::string rpath = tempPath("fault_rtl.json");
    sim::RunResult eres, rres;
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = epath;
        sim::Simulator esim(*design.sys, opts);
        sim::FaultInjector inj(*design.sys, spec);
        inj.attach(esim);
        eres = esim.run(1'000'000);
        EXPECT_EQ(inj.records().size(), inj.planned());
    }
    {
        rtl::Netlist nl(*design.sys);
        rtl::NetlistSimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = rpath;
        rtl::NetlistSim rsim(nl, opts);
        sim::FaultInjector inj(*design.sys, spec);
        inj.attach(rsim);
        rres = rsim.run(1'000'000);
    }
    ASSERT_EQ(eres.status, rres.status);

    std::string etext = readFileText(epath);
    EXPECT_EQ(etext, readFileText(rpath));
    sim::TraceReader tr = sim::TraceReader::fromString(etext);
    auto faults = tr.instants("system", "fault");
    ASSERT_EQ(faults.size(), 3u);
    for (const sim::TraceInstant &f : faults) {
        EXPECT_EQ(f.cat, "fault");
        EXPECT_NE(f.args.at("target"), "");
        EXPECT_TRUE(f.args.at("applied") == "true" ||
                    f.args.at("applied") == "false");
    }
    std::remove(epath.c_str());
    std::remove(rpath.c_str());
}

// ---- Output-path collisions -------------------------------------------------

TEST(TraceTimeline, TimelinePathCollisionIsStructuredFatal)
{
    Stream design;
    std::string path = tempPath("collide_timeline.json");
    sim::SimOptions opts;
    opts.capture_logs = false;
    opts.timeline_path = path;
    {
        sim::Simulator first(design.sb.sys(), opts);
        try {
            sim::Simulator second(design.sb.sys(), opts);
            FAIL() << "second Simulator on the same timeline_path "
                      "did not fail";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("collision"),
                      std::string::npos)
                << err.what();
            EXPECT_NE(std::string(err.what()).find(path),
                      std::string::npos)
                << err.what();
        }
    }
    // Sequential reuse is legal: the lease dies with its holder.
    sim::Simulator again(design.sb.sys(), opts);
    std::remove(path.c_str());
}

TEST(TraceTimeline, TracePathCollisionUnderRunSweepIsStructuredFatal)
{
    Stream design;
    auto prog = sim::Program::compile(design.sb.sys());

    // The per-cycle text trace and the VCD waveform.
    for (std::string sim::SimOptions::*field :
         {&sim::SimOptions::trace_path, &sim::SimOptions::vcd_path}) {
        SCOPED_TRACE(field == &sim::SimOptions::vcd_path ? "vcd_path"
                                                          : "trace_path");
        // Hold the path open, the way a concurrent misconfigured sweep
        // instance would, so the collision is deterministic.
        std::string path = tempPath("collide_sweep.json");
        OutputFile holder(path);

        std::vector<sim::RunConfig> configs(2);
        configs[0].name = "a";
        configs[0].sim.capture_logs = false;
        configs[0].sim.*field = path;
        configs[1].name = "b";
        configs[1].sim.capture_logs = false;
        configs[1].sim.*field = path;

        // Each colliding instance fails on its own: a fault record
        // carrying the lease diagnostic, in a report that still lists
        // every run.
        sim::SweepReport clash =
            sim::runSweep(configs, sim::eventInstance(prog), 2);
        ASSERT_EQ(clash.runs.size(), 2u);
        for (const sim::InstanceResult &run : clash.runs) {
            EXPECT_EQ(run.result.status, sim::RunStatus::kFault) << run.name;
            EXPECT_NE(run.result.error.find("collision"), std::string::npos)
                << run.result.error;
            EXPECT_NE(run.result.error.find(path), std::string::npos)
                << run.result.error;
            EXPECT_TRUE(run.repro.has_value()) << run.name;
        }

        // Distinct paths sweep cleanly.
        std::string pa = tempPath("sweep_a.json");
        std::string pb = tempPath("sweep_b.json");
        configs[0].sim.*field = pa;
        configs[1].sim.*field = pb;
        sim::SweepReport rep =
            sim::runSweep(configs, sim::eventInstance(prog), 2);
        EXPECT_TRUE(rep.allOk());
        std::remove(path.c_str());
        std::remove(pa.c_str());
        std::remove(pb.c_str());
    }
}

} // namespace
} // namespace assassyn
