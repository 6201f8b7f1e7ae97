/**
 * @file
 * Parallel determinism: the thread-safety half of the compile/run split
 * (docs/architecture.md).
 *
 * The contract under test: compiled artifacts — sim::Program and const
 * rtl::Netlist — are immutable and shareable, per-run state lives
 * entirely in the Simulator / NetlistSim instance, and elaboration uses
 * no process-wide counters. So N threads running the same seed over one
 * shared artifact must produce byte-identical metrics JSON, logs, and
 * stall traces; distinct seeds must match their serial-run outputs
 * exactly; sweep results must be independent of worker count; and
 * independent Systems must elaborate concurrently to byte-identical
 * Verilog. Run under ASSASSYN_SANITIZE=thread (README build matrix)
 * these tests double as a data-race hunt.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "baseline/catalog.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "rtl/verilog.h"
#include "sim/ckpt.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/logging.h"
#include "support/profiler.h"

namespace assassyn {
namespace {

using namespace dsl;

/**
 * Producer/consumer pipeline with FIFO waits, so event traces contain
 * stall lines, plus arrays, logs, and a finish.
 */
std::unique_ptr<System>
buildPipeline(const char *name)
{
    SysBuilder sb(name);
    Stage sink = sb.stage("sink", {{"x", uintType(16)}});
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(16));
    Arr hist = sb.arr("hist", uintType(16), 8);
    {
        StageScope scope(sink);
        // Consume only on odd driver cycles: events delivered on even
        // cycles spin for one cycle, producing wait lines in the trace.
        waitUntil([&] { return cyc.read().trunc(1) == lit(1, 1); });
        Val x = sink.arg("x");
        Val slot = x.trunc(3);
        hist.write(slot, hist.read(slot) + 1);
        log("got {}", {x});
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        // Push on odd cycles: the event arrives when cyc is even, so
        // the sink's wait_until fails for one cycle before consuming —
        // the trace gets genuine wait lines.
        when(v.trunc(1) == lit(1, 1), [&] {
            asyncCall(sink, {(v * 3).as(uintType(16))});
        });
        when(v == lit(80, 16), [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ParallelDeterminismTest, SharedProgramSameSeedIsByteIdentical)
{
    auto sys = buildPipeline("par_shared_prog");
    auto prog = sim::Program::compile(*sys);

    constexpr int kThreads = 4;
    std::vector<std::string> metrics(kThreads), traces(kThreads);
    std::vector<std::vector<std::string>> logs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            sim::SimOptions opts;
            opts.shuffle = true;
            opts.shuffle_seed = 7; // same seed on every thread
            opts.trace_path = ::testing::TempDir() +
                              "par_shared_prog_trace_" +
                              std::to_string(t) + ".txt";
            sim::Simulator s(prog, opts);
            s.run(200);
            EXPECT_TRUE(s.finished());
            metrics[t] = s.metrics().toJson("par_shared_prog");
            logs[t] = s.logOutput();
            traces[t] = slurp(opts.trace_path);
            std::remove(opts.trace_path.c_str());
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(metrics[t], metrics[0]) << "thread " << t;
        EXPECT_EQ(logs[t], logs[0]) << "thread " << t;
        EXPECT_EQ(traces[t], traces[0]) << "thread " << t;
    }
    EXPECT_NE(traces[0].find("wait:"), std::string::npos)
        << "trace should contain stall lines";
}

TEST(ParallelDeterminismTest, SharedCompiledTapeIsByteIdentical)
{
    // A catalog design runs on its generated evaluator: the threads
    // share its span functions and tables through the one Program, and
    // must agree with each other and with the interpreted tape.
    std::unique_ptr<System> sys;
    for (const baseline::CatalogDesign &d : baseline::designCatalog())
        if (d.name == "cpu.bp.t")
            sys = d.build();
    ASSERT_NE(sys, nullptr);
    auto prog = sim::Program::compile(*sys);
    ASSERT_NE(prog->compiled(), nullptr);

    constexpr int kThreads = 4;
    std::vector<std::string> metrics(kThreads);
    std::vector<std::vector<std::string>> logs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            sim::SimOptions opts;
            opts.shuffle = true;
            opts.shuffle_seed = 7;
            sim::Simulator s(prog, opts);
            s.run(1'000'000);
            EXPECT_TRUE(s.finished());
            metrics[t] = s.metrics().toJson("cpu");
            logs[t] = s.logOutput();
        });
    }
    for (std::thread &th : pool)
        th.join();
    sim::SimOptions opts;
    opts.shuffle = true;
    opts.shuffle_seed = 7;
    sim::Simulator tape(
        sim::Program::compile(*sys, sim::Evaluator::kTape), opts);
    tape.run(1'000'000);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(metrics[t], tape.metrics().toJson("cpu")) << "thread " << t;
        EXPECT_EQ(logs[t], tape.logOutput()) << "thread " << t;
    }
}

TEST(ParallelDeterminismTest, SharedCompiledCycleShuffledIsByteIdentical)
{
    // Four shuffled runs, each with its own seed, share one Program's
    // generated cycle (its tables and the stage-visit dispatch of the
    // shuffled order). Each must equal the serial interpreted run of its
    // seed: metrics, logs and the encoded end-state snapshot, whose
    // event.rng section pins the shuffle stream.
    for (const char *name : {"cpu.bp.t", "ooo"}) {
        std::unique_ptr<System> sys;
        for (const baseline::CatalogDesign &d : baseline::designCatalog())
            if (d.name == name)
                sys = d.build();
        ASSERT_NE(sys, nullptr) << name;
        auto prog = sim::Program::compile(*sys);
        ASSERT_NE(prog->compiled(), nullptr) << name;
        auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);

        constexpr int kThreads = 4;
        auto options = [](int t) {
            sim::SimOptions opts;
            opts.shuffle = true;
            opts.shuffle_seed = 7 + uint64_t(t);
            return opts;
        };
        struct Out {
            std::string metrics;
            std::vector<std::string> logs;
            std::vector<uint8_t> snapshot;
        };
        auto run = [](sim::Simulator &s) {
            s.run(1'000'000);
            EXPECT_TRUE(s.finished());
            return Out{s.metrics().toJson("design"), s.logOutput(),
                       sim::encodeSnapshot(s.snapshot())};
        };
        std::vector<Out> outs(kThreads);
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                sim::Simulator s(prog, options(t));
                outs[t] = run(s);
            });
        for (std::thread &th : pool)
            th.join();
        for (int t = 0; t < kThreads; ++t) {
            sim::Simulator ref(tape, options(t));
            const Out want = run(ref);
            EXPECT_EQ(outs[t].metrics, want.metrics) << name << " " << t;
            EXPECT_EQ(outs[t].logs, want.logs) << name << " " << t;
            EXPECT_EQ(outs[t].snapshot, want.snapshot) << name << " " << t;
        }
    }
}

TEST(ParallelDeterminismTest, SharedCompiledNetlistIsByteIdentical)
{
    // A catalog design's netlist runs its generated cycle: the threads
    // share it and its tables through the one const Netlist, and must
    // agree with each other and with the interpreted tape.
    std::unique_ptr<System> sys;
    for (const baseline::CatalogDesign &d : baseline::designCatalog())
        if (d.name == "ooo")
            sys = d.build();
    ASSERT_NE(sys, nullptr);
    const rtl::Netlist nl(*sys);
    ASSERT_NE(nl.compiled(), nullptr);

    constexpr int kThreads = 4;
    std::vector<std::string> metrics(kThreads);
    std::vector<std::vector<std::string>> logs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            rtl::NetlistSim s(nl);
            s.run(1'000'000);
            EXPECT_TRUE(s.finished());
            metrics[t] = s.metrics().toJson("ooo");
            logs[t] = s.logOutput();
        });
    }
    for (std::thread &th : pool)
        th.join();
    const rtl::Netlist tape_nl(*sys, sim::Evaluator::kTape);
    rtl::NetlistSim tape(tape_nl);
    tape.run(1'000'000);
    ASSERT_TRUE(tape.finished());
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(metrics[t], tape.metrics().toJson("ooo")) << "thread " << t;
        EXPECT_EQ(logs[t], tape.logOutput()) << "thread " << t;
    }
}

TEST(ParallelDeterminismTest, SharedNetlistSupportsConcurrentSims)
{
    auto sys = buildPipeline("par_shared_netlist");
    const rtl::Netlist nl(*sys);
    ASSERT_TRUE(nl.levelized());

    constexpr int kThreads = 4;
    std::vector<std::string> metrics(kThreads);
    std::vector<std::vector<std::string>> logs(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            rtl::NetlistSim s(nl);
            s.run(200);
            EXPECT_TRUE(s.finished());
            metrics[t] = s.metrics().toJson("par_shared_netlist");
            logs[t] = s.logOutput();
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(metrics[t], metrics[0]) << "thread " << t;
        EXPECT_EQ(logs[t], logs[0]) << "thread " << t;
    }

    // Cross-backend alignment holds from a concurrent run too.
    sim::Simulator es(*sys);
    es.run(200);
    ASSERT_TRUE(es.finished());
    EXPECT_EQ(es.metrics().toJson("par_shared_netlist"), metrics[0]);
}

TEST(ParallelDeterminismTest, DistinctSeedsMatchSerialRuns)
{
    auto sys = buildPipeline("par_seeds");
    auto prog = sim::Program::compile(*sys);

    std::vector<sim::RunConfig> configs;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        sim::RunConfig cfg;
        cfg.name = "seed" + std::to_string(seed);
        cfg.max_cycles = 200;
        cfg.sim.shuffle = true;
        cfg.sim.shuffle_seed = seed;
        configs.push_back(cfg);
    }
    sim::SweepReport report =
        sim::runSweep(configs, sim::eventInstance(prog), 4);
    ASSERT_EQ(report.runs.size(), configs.size());
    EXPECT_TRUE(report.allOk());

    for (size_t i = 0; i < configs.size(); ++i) {
        sim::Simulator serial(prog, configs[i].sim);
        sim::RunResult res = serial.run(configs[i].max_cycles);
        EXPECT_EQ(report.runs[i].name, configs[i].name);
        EXPECT_EQ(report.runs[i].result.status, res.status);
        EXPECT_EQ(report.runs[i].result.cycles, res.cycles);
        EXPECT_EQ(report.runs[i].metrics.toJson("par_seeds"),
                  serial.metrics().toJson("par_seeds"));
        EXPECT_EQ(report.runs[i].logs, serial.logOutput());
    }
}

TEST(ParallelDeterminismTest, SweepIndependentOfWorkerCount)
{
    auto sys = buildPipeline("par_workers");
    auto prog = sim::Program::compile(*sys);

    std::vector<sim::RunConfig> configs;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        sim::RunConfig cfg;
        cfg.name = "seed" + std::to_string(seed);
        cfg.max_cycles = 200;
        cfg.sim.shuffle = true;
        cfg.sim.shuffle_seed = seed;
        configs.push_back(cfg);
    }
    sim::SweepReport ref =
        sim::runSweep(configs, sim::eventInstance(prog), 1);
    for (size_t workers : {2u, 4u, 8u}) {
        sim::SweepReport rep =
            sim::runSweep(configs, sim::eventInstance(prog), workers);
        ASSERT_EQ(rep.runs.size(), ref.runs.size());
        for (size_t i = 0; i < ref.runs.size(); ++i) {
            EXPECT_EQ(rep.runs[i].result.status,
                      ref.runs[i].result.status);
            EXPECT_EQ(rep.runs[i].metrics.toJson("w"),
                      ref.runs[i].metrics.toJson("w"))
                << "workers=" << workers << " run=" << i;
        }
        EXPECT_EQ(rep.merged().toJson("w"), ref.merged().toJson("w"));
    }
}

TEST(ParallelDeterminismTest, ConcurrentElaborationIsByteIdentical)
{
    // Dense ids are assigned by the owning System/Module and the DSL
    // context stack is thread_local, so independent Systems may
    // elaborate concurrently with byte-identical artifacts.
    constexpr int kThreads = 4;
    std::vector<std::string> verilog(kThreads), metrics(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            auto sys = buildPipeline("par_elab");
            rtl::Netlist nl(*sys);
            verilog[t] = rtl::emitVerilog(nl);
            sim::Simulator s(*sys);
            s.run(200);
            EXPECT_TRUE(s.finished());
            metrics[t] = s.metrics().toJson("par_elab");
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(verilog[t], verilog[0]) << "thread " << t;
        EXPECT_EQ(metrics[t], metrics[0]) << "thread " << t;
    }
}

TEST(ParallelDeterminismTest, SweepHostProfileHasOneTrackPerWorker)
{
    // The host timeline of a sweep must label work by pool worker: each
    // worker thread gets its own "worker-N" track, and every instance
    // shows up as exactly one "run:<name>" span on some worker's track.
    auto sys = buildPipeline("par_host_profile");
    auto prog = sim::Program::compile(*sys);

    constexpr size_t kRuns = 8;
    constexpr size_t kWorkers = 4;
    std::vector<sim::RunConfig> configs;
    for (uint64_t seed = 1; seed <= kRuns; ++seed) {
        sim::RunConfig cfg;
        cfg.name = "seed" + std::to_string(seed);
        cfg.max_cycles = 200;
        cfg.sim.shuffle = true;
        cfg.sim.shuffle_seed = seed;
        configs.push_back(cfg);
    }

    HostProfiler::instance().enable();
    sim::SweepReport report =
        sim::runSweep(configs, sim::eventInstance(prog), kWorkers);
    HostProfiler::instance().disable();
    ASSERT_TRUE(report.allOk());

    for (const std::string &track : HostProfiler::instance().tracks())
        EXPECT_TRUE(track.rfind("worker-", 0) == 0 &&
                    track.size() == 8 && track[7] >= '0' &&
                    track[7] < char('0' + kWorkers))
            << "unexpected track: " << track;

    size_t run_spans = 0;
    std::vector<std::string> seen;
    for (const HostProfiler::Span &span : HostProfiler::instance().spans())
        if (span.name.rfind("run:", 0) == 0) {
            ++run_spans;
            seen.push_back(span.name);
            EXPECT_LE(span.begin_us, span.end_us);
        }
    EXPECT_EQ(run_spans, kRuns) << "one span per sweep instance";
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end())
        << "duplicate run spans";
}

TEST(ParallelDeterminismTest, WarningsDoNotInterleaveAcrossThreads)
{
    // Redirect stderr to a file, hammer warn()/inform() from many
    // threads, and require every captured line to be exactly one
    // intact message.
    std::string path = ::testing::TempDir() + "par_warn_capture.txt";
    int saved = dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_GE(dup2(fd, STDERR_FILENO), 0);
    close(fd);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([t] {
            std::string payload(60, char('a' + t));
            for (int i = 0; i < kPerThread; ++i) {
                if (t % 2)
                    warn("T", t, " ", payload);
                else
                    inform("T", t, " ", payload);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();

    fflush(stderr);
    dup2(saved, STDERR_FILENO);
    close(saved);

    std::ifstream in(path);
    std::string line;
    int lines = 0;
    for (; std::getline(in, line); ++lines) {
        // Each line: "<warn|info>: T<t> <60 copies of one letter>".
        ASSERT_TRUE(line.rfind("warn: T", 0) == 0 ||
                    line.rfind("info: T", 0) == 0)
            << "interleaved line: " << line;
        std::string tail = line.substr(line.find(' ', 6) + 1);
        ASSERT_EQ(tail.size(), 60u) << "interleaved line: " << line;
        for (char c : tail)
            ASSERT_EQ(c, tail[0]) << "interleaved line: " << line;
    }
    EXPECT_EQ(lines, kThreads * kPerThread);
    std::remove(path.c_str());
}

} // namespace
} // namespace assassyn
