/**
 * @file
 * The engine contract (sim/engine.h): both engines, driven only through
 * sim::Engine&, expose identical inspection, identical structured fatals,
 * the same watchdog and hook semantics, identical metrics, snapshots
 * each restores from the other, and byte-identical per-cycle output
 * files (VCD, text trace, timeline) — including the verdict and fault
 * endings of a run.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/accel.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/engine.h"
#include "sim/simulator.h"
#include "support/logging.h"

namespace assassyn {
namespace {

using namespace dsl;

/**
 * Every kind of run state: register arrays, FIFO entries in flight,
 * per-stage event counters and a log stream; finishes at @p stop + 1.
 */
std::unique_ptr<System>
buildPipe(uint64_t stop)
{
    SysBuilder sb("contract_pipe");
    Stage sink = sb.stage("sink", {{"x", uintType(16)}});
    sink.fifoDepth("x", 8);
    Stage d = sb.driver();
    Reg acc = sb.reg("acc", uintType(32));
    Reg cyc = sb.reg("cyc", uintType(16));
    {
        StageScope scope(sink);
        Val x = sink.arg("x");
        acc.write(acc.read() + x.zext(32));
        log("acc += {}", {x});
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        when(v < lit(stop, 16), [&] { asyncCall(sink, {v}); });
        when(v == lit(stop, 16), [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

/** One event delivered to a stage whose wait_until never holds. */
std::unique_ptr<System>
buildSpinner()
{
    SysBuilder sb("contract_spinner");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    Stage d = sb.driver();
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
    return sb.take();
}

/**
 * A driver pushing into a depth-4 FIFO whose consumer never drains it:
 * the fifth push overflows at cycle 4 under the default abort policy.
 */
std::unique_ptr<System>
buildOverflow()
{
    SysBuilder sb("contract_overflow");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 4);
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    {
        StageScope scope(sink);
        waitUntil([&] { return litFalse(); });
        sink.arg("x");
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        asyncCall(sink, {v});
    }
    compile(sb.sys());
    return sb.take();
}

/**
 * Lossless backpressure: a driver sends 20 values through a depth-2
 * kStallProducer FIFO into a sink that consumes only on odd cycles, so
 * the producer spends cycles gated by the full FIFO.
 */
std::unique_ptr<System>
buildBackpressure()
{
    SysBuilder sb("contract_backpressure");
    Stage sink = sb.stage("sink", {{"x", uintType(8)}});
    sink.fifoDepth("x", 2);
    sink.fifoPolicy("x", FifoPolicy::kStallProducer);
    Stage prod = sb.driver("prod");
    Stage tick = sb.driver("tick");
    Reg cnt = sb.reg("cnt", uintType(8));
    Reg sent = sb.reg("sent", uintType(8));
    Reg drained = sb.reg("drained", uintType(8));
    {
        StageScope scope(tick);
        cnt.write(cnt.read() + 1);
    }
    {
        StageScope scope(sink);
        waitUntil([&] { return sink.argValid("x") & cnt.read().bit(0); });
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
    return sb.take();
}

/** Both engines over one design, each owned behind the base class. */
struct Engines {
    std::unique_ptr<System> sys;
    std::unique_ptr<rtl::Netlist> nl;

    explicit Engines(std::unique_ptr<System> s)
        : sys(std::move(s)), nl(std::make_unique<rtl::Netlist>(*sys))
    {
    }

    std::unique_ptr<sim::Engine>
    make(bool event, const sim::SimOptions &opts = {}) const
    {
        if (event)
            return std::make_unique<sim::Simulator>(*sys, opts);
        return std::make_unique<rtl::NetlistSim>(*nl, opts);
    }

    const RegArray *
    array(const std::string &name) const
    {
        for (const auto &a : sys->arrays())
            if (a->name() == name)
                return a.get();
        ADD_FAILURE() << "no array " << name;
        return nullptr;
    }

    const Port *
    port(const std::string &mod, const std::string &name) const
    {
        for (const auto &p : sys->module(mod)->ports())
            if (p->name() == name)
                return p.get();
        ADD_FAILURE() << "no port " << mod << "." << name;
        return nullptr;
    }
};

/** Everything the inspection surface shows, rendered to compare. */
std::string
inspect(const sim::Engine &e)
{
    std::ostringstream os;
    os << "cycle " << e.cycle() << (e.finished() ? " finished\n" : "\n");
    const System &sys = e.sys();
    for (const auto &a : sys.arrays()) {
        os << a->name() << " writes=" << e.arrayWrites(a.get()) << ":";
        for (size_t i = 0; i < a->size(); ++i)
            os << " " << e.readArray(a.get(), i);
        os << "\n";
    }
    for (const auto &mod : sys.modules()) {
        sim::StageCounters c = e.stageCounters(mod.get());
        os << mod->name() << " execs=" << c.execs
           << " spins=" << c.wait_spins << " idle=" << c.idle_cycles
           << " in=" << c.events_in << " bp=" << c.backpressure_stalls
           << " pending=" << c.pending << " last="
           << sim::stageActivityName(e.stageActivity(mod.get())) << "\n";
        for (const auto &p : mod->ports()) {
            sim::FifoTraffic t = e.fifoTraffic(p.get());
            uint64_t occ = e.fifoOccupancy(p.get());
            os << p->fullName() << " push=" << t.pushes << " pop=" << t.pops
               << " drop=" << t.drops << " stall=" << t.stall_cycles
               << " [";
            for (uint64_t i = 0; i < occ; ++i)
                os << " " << e.readFifo(p.get(), i);
            os << " ]\n";
        }
    }
    os << "logs " << e.logOutput().size() << "\n";
    return os.str();
}

/** The FatalError message @p f raises; empty when it does not throw. */
std::string
fatalOf(const std::function<void()> &f)
{
    try {
        f();
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(EngineContract, InspectionAgreesAtEveryBoundary)
{
    Engines fx(buildPipe(40));
    auto ev = fx.make(true);
    auto nl = fx.make(false);
    sim::Engine &a = *ev, &b = *nl;
    EXPECT_STREQ(a.engineName(), "event");
    EXPECT_STREQ(b.engineName(), "netlist");
    while (!a.finished()) {
        ASSERT_EQ(inspect(a), inspect(b));
        EXPECT_EQ(a.run(1).status, b.run(1).status);
    }
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(inspect(a), inspect(b));
    EXPECT_EQ(a.logOutput(), b.logOutput());
    EXPECT_FALSE(a.logOutput().empty());
}

TEST(EngineContract, OutOfRangeFatalsAreIdentical)
{
    Engines fx(buildPipe(40));
    const RegArray *acc = fx.array("acc");
    const Port *x = fx.port("sink", "x");
    std::vector<std::vector<std::string>> msgs;
    for (bool event : {true, false}) {
        auto e = fx.make(event);
        e->run(3); // entries in flight
        ASSERT_GT(e->fifoOccupancy(x), 0u);
        msgs.push_back({
            fatalOf([&] { e->readArray(acc, 5); }),
            fatalOf([&] { e->writeArray(acc, 5, 1); }),
            fatalOf([&] { e->readFifo(x, 9); }),
            fatalOf([&] { e->writeFifo(x, 9, 1); }),
        });
    }
    EXPECT_EQ(msgs[0], msgs[1]);
    EXPECT_EQ(msgs[0][0], "readArray: index 5 out of range for 'acc'");
    EXPECT_EQ(msgs[0][1], "writeArray: index 5 out of range for 'acc'");
    EXPECT_EQ(msgs[0][2].rfind("readFifo: position 9 out of range for '", 0),
              0u)
        << msgs[0][2];
    EXPECT_EQ(msgs[0][3].rfind("writeFifo: position 9 out of range for '", 0),
              0u)
        << msgs[0][3];
}

TEST(EngineContract, PokesResetTheWatchdog)
{
    Engines fx(buildSpinner());
    const RegArray *started = fx.array("started");
    sim::SimOptions opts;
    opts.watchdog_window = 64;
    std::vector<std::string> verdicts;
    for (bool event : {true, false}) {
        auto quiet = fx.make(event, opts);
        sim::RunResult r = quiet->run(10'000);
        EXPECT_EQ(r.status, sim::RunStatus::kLivelock);
        verdicts.push_back(r.hazard.toString());

        // A testbench poking state every cycle is external progress:
        // the zero-progress window never closes.
        auto poked = fx.make(event, opts);
        sim::Engine &e = *poked;
        e.addPostCycleHook([&e, started](uint64_t) {
            e.writeArray(started, 0, e.readArray(started, 0));
        });
        r = e.run(1'000);
        EXPECT_EQ(r.status, sim::RunStatus::kMaxCycles);
        EXPECT_EQ(r.cycles, 1'000u);
    }
    EXPECT_EQ(verdicts[0], verdicts[1]);
}

TEST(EngineContract, HooksSeeStartAndCommittedState)
{
    Engines fx(buildPipe(40));
    const RegArray *cyc = fx.array("cyc");
    std::vector<std::vector<uint64_t>> seen;
    uint64_t cycles = 0;
    for (bool event : {true, false}) {
        auto owned = fx.make(event);
        sim::Engine &e = *owned;
        std::vector<uint64_t> log;
        e.addPreCycleHook([&](uint64_t c) {
            EXPECT_EQ(e.readArray(cyc, 0), c); // start-of-cycle state
            log.push_back(c);
        });
        e.addPostCycleHook([&](uint64_t c) {
            EXPECT_EQ(e.readArray(cyc, 0), c + 1); // committed state
            log.push_back(e.stageCounters(fx.sys->module("sink")).execs);
        });
        e.run(1'000);
        EXPECT_TRUE(e.finished());
        cycles = e.cycle();
        seen.push_back(std::move(log));
    }
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[0].size(), 2 * cycles);
}

TEST(EngineContract, MetricsIdenticalMidRunAndAtFinish)
{
    Engines fx(buildPipe(60));
    auto ev = fx.make(true);
    auto nl = fx.make(false);
    for (uint64_t n : {0u, 1u, 36u, 1'000u}) {
        ev->run(n);
        nl->run(n);
        EXPECT_TRUE(ev->metrics() == nl->metrics())
            << "after run(" << n << "):\n"
            << ev->metrics().diff(nl->metrics());
    }
    EXPECT_TRUE(ev->finished() && nl->finished());
}

TEST(EngineContract, SnapshotsRestoreAcrossEnginesBothWays)
{
    Engines fx(buildPipe(300));
    auto ref = fx.make(true);
    ref->run(10'000);
    ASSERT_TRUE(ref->finished());

    for (bool src_event : {true, false}) {
        for (uint64_t k : {1u, 150u}) {
            auto src = fx.make(src_event);
            auto other = fx.make(!src_event);
            src->run(k);
            other->run(k);
            sim::Snapshot snap = src->snapshot();
            sim::Snapshot peer = other->snapshot();
            // One serializer: every section the netlist writes is
            // byte-identical to the event engine's.
            const sim::Snapshot &ns = src_event ? peer : snap;
            const sim::Snapshot &es = src_event ? snap : peer;
            for (const sim::SnapshotSection &sec : ns.sections) {
                const sim::SnapshotSection *ev = es.find(sec.name);
                ASSERT_NE(ev, nullptr) << sec.name;
                EXPECT_EQ(ev->bytes, sec.bytes) << sec.name;
            }

            auto dst = fx.make(!src_event);
            dst->restore(snap);
            EXPECT_EQ(dst->cycle(), k);
            dst->run(10'000);
            EXPECT_TRUE(dst->finished());
            EXPECT_TRUE(dst->metrics() == ref->metrics())
                << dst->metrics().diff(ref->metrics());
            EXPECT_EQ(dst->logOutput(), ref->logOutput());
        }
    }
}

/** The per-cycle output files of one run, read back once it ended. */
struct Observed {
    std::string vcd, trace, timeline;
    sim::RunResult result;
    uint64_t cycle = 0; ///< Engine::cycle() when the run ended
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run one engine of @p fx for @p cycles with every observer on. */
Observed
observe(const Engines &fx, bool event, sim::SimOptions opts,
        uint64_t cycles, const std::string &tag)
{
    std::string base = ::testing::TempDir() + "assassyn_observe_" + tag;
    opts.vcd_path = base + ".vcd";
    opts.trace_path = base + ".trace";
    opts.timeline_path = base + ".json";
    Observed o;
    {
        auto e = fx.make(event, opts);
        o.result = e->run(cycles);
        o.cycle = e->cycle();
    } // the timeline is written when the engine goes away
    for (auto [path, text] : {std::pair{&opts.vcd_path, &o.vcd},
                              std::pair{&opts.trace_path, &o.trace},
                              std::pair{&opts.timeline_path, &o.timeline}}) {
        *text = slurp(*path);
        std::remove(path->c_str());
    }
    return o;
}

/** The event engine, shuffled and not, and the netlist, on one design. */
std::vector<Observed>
observeAll(const Engines &fx, uint64_t cycles, sim::SimOptions opts,
           const std::string &tag)
{
    std::vector<Observed> runs;
    runs.push_back(observe(fx, true, opts, cycles, tag + "_event"));
    opts.shuffle = true;
    opts.shuffle_seed = 7;
    runs.push_back(observe(fx, true, opts, cycles, tag + "_shuffled"));
    opts.shuffle = false;
    runs.push_back(observe(fx, false, opts, cycles, tag + "_netlist"));
    for (const Observed &o : runs) {
        EXPECT_FALSE(o.vcd.empty());
        EXPECT_FALSE(o.trace.empty());
        EXPECT_FALSE(o.timeline.empty());
        // Sizes first: a mismatch of multi-megabyte files stays readable.
        EXPECT_EQ(o.vcd.size(), runs[0].vcd.size());
        EXPECT_TRUE(o.vcd == runs[0].vcd);
        EXPECT_EQ(o.trace.size(), runs[0].trace.size());
        EXPECT_TRUE(o.trace == runs[0].trace);
        EXPECT_EQ(o.timeline.size(), runs[0].timeline.size());
        EXPECT_TRUE(o.timeline == runs[0].timeline);
        EXPECT_EQ(o.cycle, runs[0].cycle);
        EXPECT_EQ(o.result.status, runs[0].result.status);
    }
    return runs;
}

/** The last non-empty line of @p text. */
std::string
lastLine(const std::string &text)
{
    size_t end = text.find_last_not_of('\n');
    if (end == std::string::npos)
        return "";
    size_t begin = text.rfind('\n', end);
    begin = begin == std::string::npos ? 0 : begin + 1;
    return text.substr(begin, end + 1 - begin);
}

TEST(EngineContract, ObservationFilesByteIdentical)
{
    auto image = isa::buildMemoryImage(isa::workload("towers"));
    std::vector<std::pair<std::string, std::unique_ptr<System>>> cases;
    cases.emplace_back(
        "cpu", designs::buildCpu(designs::BranchPolicy::kTaken, image).sys);
    cases.emplace_back("ooo", designs::buildOoo(image).sys);
    cases.emplace_back(
        "kmp", designs::buildKmpAccel(designs::makeKmpData(300, 11)).sys);
    cases.emplace_back("backpressure", buildBackpressure());
    for (auto &[name, sys] : cases) {
        SCOPED_TRACE(name);
        Engines fx(std::move(sys));
        std::vector<Observed> runs = observeAll(fx, 3'000, {}, name);
        // The drivers run from cycle 0, so the trace starts there.
        EXPECT_EQ(runs[0].trace.rfind("#0:", 0), 0u) << runs[0].trace;
        EXPECT_NE(runs[0].vcd.find("$enddefinitions $end"),
                  std::string::npos);
        if (name == "backpressure") {
            EXPECT_NE(runs[0].trace.find(" prod(wait:fifo_full)"),
                      std::string::npos)
                << runs[0].trace;
        }
    }
}

TEST(EngineContract, WatchdogVerdictLineIdenticalOnBothEngines)
{
    Engines fx(buildSpinner());
    sim::SimOptions opts;
    opts.watchdog_window = 64;
    std::vector<Observed> runs = observeAll(fx, 10'000, opts, "verdict");
    EXPECT_EQ(runs[0].result.status, sim::RunStatus::kLivelock);
    // The verdict closes the trace, after the last cycle's stage line.
    std::string report = runs[0].result.hazard.toString();
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(runs[0].trace.substr(runs[0].trace.size() - report.size()),
              report);
    EXPECT_NE(report.find("livelock detected"), std::string::npos)
        << report;
}

TEST(EngineContract, FaultLineIdenticalAndVcdEndsAtLastCommit)
{
    Engines fx(buildOverflow());
    std::vector<Observed> runs = observeAll(fx, 100, {}, "fault");
    const Observed &o = runs[0];
    ASSERT_EQ(o.result.status, sim::RunStatus::kFault);
    ASSERT_EQ(o.cycle, 4u); // the faulting cycle never committed
    EXPECT_EQ(lastLine(o.trace), "#4: FAULT: " + o.result.error);
    EXPECT_NE(o.result.error.find("FIFO overflow"), std::string::npos)
        << o.result.error;
    // The waveform's last frame is cycle 3; its value changes follow.
    size_t frame = o.vcd.rfind("\n#");
    ASSERT_NE(frame, std::string::npos);
    EXPECT_EQ(o.vcd.substr(frame + 1, o.vcd.find('\n', frame + 1) - frame - 1),
              "#3");
}

TEST(EngineContract, NetlistIgnoresShuffle)
{
    Engines fx(buildPipe(80));
    auto plain = fx.make(false);
    sim::SimOptions opts;
    opts.shuffle = true;
    opts.shuffle_seed = 7;
    auto shuffled = fx.make(false, opts);
    plain->run(1'000);
    shuffled->run(1'000);
    EXPECT_TRUE(plain->metrics() == shuffled->metrics());
    EXPECT_EQ(plain->logOutput(), shuffled->logOutput());
}

} // namespace
} // namespace assassyn
