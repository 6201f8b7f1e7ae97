/**
 * @file
 * Tests for VCD waveform tracing: header structure, change-only
 * encoding, and the paper's Fig. 2(d) correspondence — each stage's
 * execution strobe in the waveform is exactly the event trace
 * transposed. The simulation tests run on both engines: the waveform is
 * rendered once, from run state both engines share.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/simulator.h"
#include "sim/vcd.h"

namespace assassyn {
namespace {

using namespace dsl;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** The engines every waveform test runs on. */
const char *const kEngines[] = {"event", "netlist"};

std::unique_ptr<sim::Engine>
makeEngine(const std::string &engine, const System &sys,
           const rtl::Netlist &nl, const sim::SimOptions &opts)
{
    if (engine == "event")
        return std::make_unique<sim::Simulator>(sys, opts);
    return std::make_unique<rtl::NetlistSim>(nl, opts);
}

TEST(VcdWriterTest, HeaderAndChanges)
{
    std::string path = tempPath("unit.vcd");
    {
        sim::VcdWriter w(path);
        size_t a = w.addSignal("a", 8);
        size_t b = w.addSignal("b", 1);
        w.writeHeader("unit");
        w.beginCycle(0);
        w.set(a, 0x2a);
        w.set(b, 1);
        w.beginCycle(1);
        w.set(a, 0x2a); // unchanged: must not re-emit
        w.set(b, 0);
    }
    std::string text = slurp(path);
    EXPECT_NE(text.find("$var wire 8"), std::string::npos);
    EXPECT_NE(text.find("$var wire 1"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
    EXPECT_NE(text.find("b101010 "), std::string::npos);
    // The 8-bit value appears exactly once (change-only encoding).
    size_t first = text.find("b101010 ");
    EXPECT_EQ(text.find("b101010 ", first + 1), std::string::npos);
}

TEST(VcdSimTest, TracesPipelineActivity)
{
    SysBuilder sb("traced");
    Stage adder = sb.stage("adder", {{"a", uintType(8)}, {"b", uintType(8)}});
    Stage driver = sb.driver();
    Reg out = sb.reg("out", uintType(8));
    Reg cnt = sb.reg("cnt", uintType(8));
    {
        StageScope scope(adder);
        out.write(adder.arg("a") + adder.arg("b"));
    }
    {
        StageScope scope(driver);
        Val v = cnt.read();
        cnt.write(v + 1);
        // Only every second cycle issues work: the adder strobe in the
        // waveform must alternate (the transposed event trace).
        when(v.bit(0) == 0, [&] { asyncCall(adder, {v, v}); });
        when(v == 8, [&] { finish(); });
    }
    compile(sb.sys());
    rtl::Netlist nl(sb.sys());

    for (const std::string engine : kEngines) {
        SCOPED_TRACE(engine);
        std::string path = tempPath((engine + "_pipeline.vcd").c_str());
        sim::SimOptions opts;
        opts.vcd_path = path;
        auto s = makeEngine(engine, sb.sys(), nl, opts);
        s->run(100);
        ASSERT_TRUE(s->finished());

        std::string text = slurp(path);
        EXPECT_NE(text.find("adder__exec"), std::string::npos);
        EXPECT_NE(text.find("driver__exec"), std::string::npos);
        EXPECT_NE(text.find("adder__a__count"), std::string::npos);
        EXPECT_NE(text.find("#0"), std::string::npos);
        EXPECT_NE(text.find("#8"), std::string::npos);

        // Reconstruct the adder strobe per cycle from the dump and compare
        // with the executions the simulator reports.
        std::string code;
        {
            std::istringstream in(text);
            std::string line;
            while (std::getline(in, line)) {
                auto pos = line.find(" adder__exec ");
                if (line.rfind("$var", 0) == 0 && pos != std::string::npos) {
                    // $var wire 1 <code> adder__exec $end
                    std::istringstream ls(line);
                    std::string tok[4];
                    ls >> tok[0] >> tok[1] >> tok[2] >> tok[3];
                    code = tok[3];
                }
            }
        }
        ASSERT_FALSE(code.empty());
        size_t toggles = 0;
        {
            std::istringstream in(text);
            std::string line;
            while (std::getline(in, line))
                if (line == "1" + code || line == "0" + code)
                    ++toggles;
        }
        // The strobe alternates every cycle: many change records.
        EXPECT_GE(toggles, 6u);
        std::remove(path.c_str());
    }
}

/**
 * The FIFO occupancy signal in the waveform and the occupancy histogram
 * in the MetricsRegistry are two views of the same quantity, sampled at
 * the same instant (end of cycle, post commit): reconstructing per-cycle
 * occupancy from the VCD must reproduce the histogram exactly, and its
 * maximum must equal the fifo.<mod>.<port>.high_water counter.
 */
TEST(VcdSimTest, FifoOccupancyAgreesWithMetricsHighWater)
{
    SysBuilder sb("occ");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 16);
    Stage d = sb.driver();
    Reg go = sb.reg("go", uintType(1));
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg drained = sb.reg("drained", uintType(8));
    {
        StageScope scope(sink);
        waitUntil([&] { return go.read() == 1; });
        drained.write(drained.read() + sink.arg("x"));
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        // Burst-fill for ten cycles, hold, then release and drain: the
        // occupancy ramps 1..10, plateaus, and walks back down to 0.
        when(v < 10, [&] { asyncCall(sink, {lit(1, 8)}); });
        when(v == 12, [&] { go.write(lit(1, 1)); });
        when(v == 25, [&] { finish(); });
    }
    compile(sb.sys());
    rtl::Netlist nl(sb.sys());

    for (const std::string engine : kEngines) {
        SCOPED_TRACE(engine);
        std::string path = tempPath((engine + "_occupancy.vcd").c_str());
        sim::SimOptions opts;
        opts.vcd_path = path;
        auto s = makeEngine(engine, sb.sys(), nl, opts);
        s->run(100);
        ASSERT_TRUE(s->finished());

        sim::MetricsRegistry reg = s->metrics();
        const sim::Histogram *hist =
            reg.histogramOrNull("fifo.sink.x.occupancy");
        ASSERT_NE(hist, nullptr);

        std::string text = slurp(path);
        std::remove(path.c_str());

        // Locate the identifier code of the sink__x__count signal.
        std::string code;
        {
            std::istringstream in(text);
            std::string line;
            while (std::getline(in, line)) {
                if (line.rfind("$var", 0) == 0 &&
                    line.find(" sink__x__count ") != std::string::npos) {
                    std::istringstream ls(line);
                    std::string tok[4];
                    ls >> tok[0] >> tok[1] >> tok[2] >> tok[3];
                    code = tok[3];
                }
            }
        }
        ASSERT_FALSE(code.empty()) << text.substr(0, 400);

        // Replay the change-only dump into one occupancy sample per cycle.
        std::vector<uint64_t> per_cycle;
        {
            std::istringstream in(text);
            std::string line;
            uint64_t value = 0;
            bool in_dump = false;
            while (std::getline(in, line)) {
                if (!line.empty() && line[0] == '#') {
                    if (in_dump)
                        per_cycle.push_back(value);
                    in_dump = true;
                    continue;
                }
                if (!in_dump || line.empty() || line[0] != 'b')
                    continue;
                size_t sp = line.find(' ');
                if (sp == std::string::npos || line.substr(sp + 1) != code)
                    continue;
                value = std::stoull(line.substr(1, sp - 1), nullptr, 2);
            }
            if (in_dump)
                per_cycle.push_back(value); // the final cycle's sample
        }
        ASSERT_EQ(per_cycle.size(), s->cycle());

        uint64_t vcd_high = 0;
        std::vector<uint64_t> vcd_buckets(hist->buckets.size(), 0);
        for (uint64_t v : per_cycle) {
            vcd_high = std::max(vcd_high, v);
            ASSERT_LT(v, vcd_buckets.size());
            ++vcd_buckets[v];
        }
        EXPECT_EQ(vcd_high, reg.counter("fifo.sink.x.high_water"));
        EXPECT_EQ(vcd_high, hist->high_water);
        EXPECT_EQ(vcd_high, 10u); // the burst really did pile ten entries up
        EXPECT_EQ(vcd_buckets, hist->buckets);
    }
}

TEST(VcdSimTest, LargeArraysExcluded)
{
    SysBuilder sb("mem_traced");
    Stage d = sb.driver();
    Arr big = sb.mem("big", uintType(32), 4096);
    Reg out = sb.reg("out", uintType(32));
    {
        StageScope scope(d);
        out.write(big.read(lit(0, 12)));
        finish();
    }
    compile(sb.sys());
    rtl::Netlist nl(sb.sys());
    for (const std::string engine : kEngines) {
        SCOPED_TRACE(engine);
        std::string path = tempPath((engine + "_mem.vcd").c_str());
        sim::SimOptions opts;
        opts.vcd_path = path;
        auto s = makeEngine(engine, sb.sys(), nl, opts);
        s->run(10);
        std::string text = slurp(path);
        EXPECT_EQ(text.find("big"), std::string::npos);
        EXPECT_NE(text.find("out"), std::string::npos);
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace assassyn
