/**
 * @file
 * The differential observability harness: every performance counter and
 * occupancy histogram the MetricsRegistry exposes must be bit-identical
 * between the event-driven simulator (sim::Simulator) and the netlist
 * simulator (rtl::NetlistSim) — the paper's cycle-alignment guarantee
 * (Sec. 5) extended from final architectural state to every observable
 * quantity, on the three flagship paper designs (CPU, systolic array,
 * MachSuite accelerators).
 *
 * Also covered here:
 *  - shuffle invariance: the full metrics snapshot is identical with
 *    shuffle off and under three different shuffle seeds, extending the
 *    result-invariance claim of SimOptions::shuffle to counters;
 *  - event-counter saturation: with saturate_events on, both backends
 *    clamp the pending-event counter at the same bound, drop the same
 *    number of increments, and keep executing identically afterwards;
 *  - the pre/post cycle hook API;
 *  - the JSON report emitter.
 */
#include <gtest/gtest.h>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel.h"
#include "designs/cpu.h"
#include "designs/systolic.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace assassyn {
namespace {

using namespace dsl;

/** Run both backends to finish() and compare full metrics snapshots. */
void
expectMetricsAligned(const System &sys, uint64_t max_cycles)
{
    sim::SimOptions eopts;
    eopts.capture_logs = false;
    sim::Simulator esim(sys, eopts);
    esim.run(max_cycles);
    ASSERT_TRUE(esim.finished()) << sys.name();

    rtl::Netlist nl(sys);
    rtl::NetlistSim rsim(nl, {.capture_logs = false});
    rsim.run(max_cycles);
    ASSERT_TRUE(rsim.finished()) << sys.name();

    sim::MetricsRegistry em = esim.metrics();
    sim::MetricsRegistry rm = rsim.metrics();
    EXPECT_TRUE(em == rm) << sys.name() << " metrics diverged:\n"
                          << em.diff(rm);

    // The snapshot must be substantive, not vacuously equal.
    EXPECT_EQ(em.counter("cycles"), esim.cycle());
    EXPECT_GT(em.counter("total.executions"), 0u);
    EXPECT_FALSE(em.histograms().empty()) << sys.name();
}

/** Full-snapshot equality across shuffle seeds (counters included). */
void
expectShuffleInvariantMetrics(const System &sys, uint64_t max_cycles)
{
    sim::SimOptions base;
    base.capture_logs = false;
    base.shuffle = false;
    sim::Simulator ref(sys, base);
    ref.run(max_cycles);
    ASSERT_TRUE(ref.finished());
    sim::MetricsRegistry want = ref.metrics();

    for (uint64_t seed : {3u, 17u, 9001u}) {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.shuffle = true;
        opts.shuffle_seed = seed;
        sim::Simulator s(sys, opts);
        s.run(max_cycles);
        ASSERT_TRUE(s.finished()) << "seed " << seed;
        sim::MetricsRegistry got = s.metrics();
        EXPECT_TRUE(want == got)
            << sys.name() << " metrics vary under shuffle seed " << seed
            << ":\n"
            << want.diff(got);
    }
}

// ---- The three paper designs -----------------------------------------------

TEST(MetricsAlignmentTest, CpuAllCountersAlign)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    expectMetricsAligned(*cpu.sys, 200'000);
}

TEST(MetricsAlignmentTest, SystolicAllCountersAlign)
{
    size_t n = 3;
    Rng rng(23);
    std::vector<uint32_t> a(n * n), b(n * n);
    for (auto &v : a)
        v = uint32_t(rng.below(64));
    for (auto &v : b)
        v = uint32_t(rng.below(64));
    auto design = designs::buildSystolic(n, a, b);
    expectMetricsAligned(*design.sys, 1000);
}

TEST(MetricsAlignmentTest, AccelKmpAllCountersAlign)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(500, 5));
    expectMetricsAligned(*design.sys, 100'000);
}

TEST(MetricsAlignmentTest, AccelMergeSortAllCountersAlign)
{
    auto design =
        designs::buildMergeSortAccel(designs::makeMergeSortData(64, 7));
    expectMetricsAligned(*design.sys, 100'000);
}

// ---- Shuffle invariance of the whole snapshot ------------------------------

TEST(MetricsShuffleTest, CpuSnapshotIsShuffleInvariant)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    expectShuffleInvariantMetrics(*cpu.sys, 200'000);
}

TEST(MetricsShuffleTest, SystolicSnapshotIsShuffleInvariant)
{
    size_t n = 3;
    Rng rng(5);
    std::vector<uint32_t> a(n * n), b(n * n);
    for (auto &v : a)
        v = uint32_t(rng.below(30));
    for (auto &v : b)
        v = uint32_t(rng.below(30));
    auto design = designs::buildSystolic(n, a, b);
    expectShuffleInvariantMetrics(*design.sys, 1000);
}

TEST(MetricsShuffleTest, AccelSnapshotIsShuffleInvariant)
{
    auto design = designs::buildKmpAccel(designs::makeKmpData(300, 11));
    expectShuffleInvariantMetrics(*design.sys, 100'000);
}

// ---- Event-counter saturation edge -----------------------------------------

/**
 * A sink that receives one event per cycle but is released only at cycle
 * @p release, long after the pending-event counter hits the 8-bit bound.
 * The driver keeps calling until @p stop.
 */
std::unique_ptr<System>
buildSaturatingDesign(uint64_t release, uint64_t stop)
{
    SysBuilder sb("sat");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 1024);
    Stage d = sb.driver();
    Reg go = sb.reg("go", uintType(1));
    Reg drained = sb.reg("drained", uintType(16));
    Reg cyc = sb.reg("cyc", uintType(16));
    {
        StageScope scope(sink);
        waitUntil([&] { return go.read() == 1; });
        Val x = sink.arg("x");
        drained.write(drained.read() + x.zext(16));
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        when(v < lit(release, 16), [&] { asyncCall(sink, {lit(1, 8)}); });
        when(v == lit(release, 16), [&] { go.write(lit(1, 1)); });
        when(v == lit(stop, 16), [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

TEST(EventSaturationTest, BackendsSaturateIdentically)
{
    // 400 subscriptions against a 255-deep counter: ~145 drops.
    auto sys = buildSaturatingDesign(400, 800);

    sim::SimOptions eopts;
    eopts.saturate_events = true;
    sim::Simulator esim(*sys, eopts);
    esim.run(2000);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(*sys);
    rtl::NetlistSimOptions ropts;
    ropts.saturate_events = true;
    rtl::NetlistSim rsim(nl, ropts);
    rsim.run(2000);
    ASSERT_TRUE(rsim.finished());

    sim::MetricsRegistry em = esim.metrics();
    sim::MetricsRegistry rm = rsim.metrics();
    EXPECT_TRUE(em == rm) << em.diff(rm);

    // The counter really did exceed 255 pending events and clamp.
    uint64_t drops = em.counter("stage.sink.event_saturations");
    EXPECT_GT(drops, 0u);
    // Dropped events are lost for good: the sink drains exactly the 255
    // retained events (the bound) once released, not all 400 issued.
    uint64_t drains = esim.readArray(sys->array("drained"), 0);
    EXPECT_EQ(drains, 400u - drops);
    EXPECT_EQ(drains, 255u);
    EXPECT_EQ(rsim.readArray(sys->array("drained"), 0), drains);
}

TEST(EventSaturationTest, DefaultModeStillAborts)
{
    auto sys = buildSaturatingDesign(400, 800);
    sim::Simulator esim(*sys); // saturate_events off
    sim::RunResult eres = esim.run(2000);
    EXPECT_EQ(eres.status, sim::RunStatus::kFault);
    EXPECT_NE(eres.error.find("event counter overflow"), std::string::npos)
        << eres.error;

    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl); // saturate_events off
    sim::RunResult rres = rsim.run(2000);
    EXPECT_EQ(rres.status, sim::RunStatus::kFault);
    // The enriched fault diagnostics render byte-identically on both
    // backends (satellite 1).
    EXPECT_EQ(rres.error, eres.error);
}

TEST(EventSaturationTest, TightBoundAlignsAcrossBackends)
{
    // A non-default bound exercises the configurable clamp in lockstep.
    auto sys = buildSaturatingDesign(60, 200);

    sim::SimOptions eopts;
    eopts.saturate_events = true;
    eopts.max_pending_events = 16;
    sim::Simulator esim(*sys, eopts);
    esim.run(500);
    ASSERT_TRUE(esim.finished());

    rtl::Netlist nl(*sys);
    rtl::NetlistSimOptions ropts;
    ropts.saturate_events = true;
    ropts.max_pending_events = 16;
    rtl::NetlistSim rsim(nl, ropts);
    rsim.run(500);
    ASSERT_TRUE(rsim.finished());

    sim::MetricsRegistry em = esim.metrics();
    EXPECT_TRUE(em == rsim.metrics()) << em.diff(rsim.metrics());
    EXPECT_EQ(em.counter("stage.sink.event_saturations"), 60u - 16u);
}

// ---- Cycle hooks ------------------------------------------------------------

TEST(CycleHookTest, PreSeesOldStatePostSeesCommitted)
{
    SysBuilder sb("hooks");
    Stage d = sb.driver();
    Reg cnt = sb.reg("cnt", uintType(16));
    {
        StageScope scope(d);
        Val v = cnt.read();
        cnt.write(v + 1);
        when(v == 9, [&] { finish(); });
    }
    compile(sb.sys());

    sim::Simulator s(sb.sys());
    std::vector<uint64_t> pre, post, pre_cycles;
    const RegArray *arr = sb.sys().array("cnt");
    s.addPreCycleHook([&](uint64_t cycle) {
        pre_cycles.push_back(cycle);
        pre.push_back(s.readArray(arr, 0));
    });
    s.addPostCycleHook([&](uint64_t) { post.push_back(s.readArray(arr, 0)); });
    s.run(100);
    ASSERT_TRUE(s.finished());

    ASSERT_EQ(pre.size(), s.cycle());
    ASSERT_EQ(post.size(), s.cycle());
    for (uint64_t i = 0; i < s.cycle(); ++i) {
        EXPECT_EQ(pre_cycles[i], i);
        EXPECT_EQ(pre[i], i);      // state at the start of cycle i
        EXPECT_EQ(post[i], i + 1); // the write has committed
    }
}

TEST(CycleHookTest, NetlistHooksMirrorSimulatorHooks)
{
    SysBuilder sb("hooks_rtl");
    Stage d = sb.driver();
    Reg cnt = sb.reg("cnt", uintType(16));
    {
        StageScope scope(d);
        Val v = cnt.read();
        cnt.write(v + 2);
        when(v == 8, [&] { finish(); });
    }
    compile(sb.sys());

    rtl::Netlist nl(sb.sys());
    rtl::NetlistSim s(nl);
    std::vector<uint64_t> pre, post;
    const RegArray *arr = sb.sys().array("cnt");
    s.addPreCycleHook([&](uint64_t) { pre.push_back(s.readArray(arr, 0)); });
    s.addPostCycleHook([&](uint64_t) { post.push_back(s.readArray(arr, 0)); });
    s.run(100);
    ASSERT_TRUE(s.finished());
    ASSERT_EQ(pre.size(), s.cycle());
    for (uint64_t i = 0; i < s.cycle(); ++i) {
        EXPECT_EQ(pre[i], 2 * i);
        EXPECT_EQ(post[i], 2 * (i + 1));
    }
}

// ---- JSON report ------------------------------------------------------------

TEST(MetricsJsonTest, ReportContainsEveryCounter)
{
    size_t n = 2;
    std::vector<uint32_t> a = {1, 2, 3, 4}, b = {5, 6, 7, 8};
    auto design = designs::buildSystolic(n, a, b);
    sim::Simulator s(*design.sys);
    s.run(1000);
    ASSERT_TRUE(s.finished());

    sim::MetricsRegistry reg = s.metrics();
    std::string json = reg.toJson(design.sys->name());
    EXPECT_NE(json.find("\"design\": \"systolic\""), std::string::npos)
        << json.substr(0, 200);
    EXPECT_NE(json.find("\"schema\": \"assassyn.metrics.v1\""),
              std::string::npos);
    for (const auto &[key, value] : reg.counters())
        EXPECT_NE(json.find("\"" + key + "\": " + std::to_string(value)),
                  std::string::npos)
            << key;
    EXPECT_NE(json.find("\"high_water\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);

    // Balanced braces/brackets — cheap structural sanity in lieu of a
    // parser dependency.
    int depth = 0;
    bool in_str = false;
    for (size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, DiffNamesTheDivergentCounter)
{
    sim::MetricsRegistry a, b;
    a.set("stage.fetch.execs", 10);
    b.set("stage.fetch.execs", 12);
    a.set("only.in.a", 1);
    EXPECT_FALSE(a == b);
    std::string d = a.diff(b);
    EXPECT_NE(d.find("stage.fetch.execs"), std::string::npos);
    EXPECT_NE(d.find("10 vs 12"), std::string::npos);
    EXPECT_NE(d.find("only.in.a"), std::string::npos);
    EXPECT_TRUE(a == a);
    EXPECT_TRUE(a.diff(a).empty());
}

} // namespace
} // namespace assassyn
