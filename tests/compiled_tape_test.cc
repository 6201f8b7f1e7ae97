/**
 * @file
 * Compiled event tapes against the interpreter (docs/architecture.md
 * "Compiled evaluators"). Every catalog design (baseline/catalog.h) and
 * both grader cores over every corpus program run twice from the same
 * System: once on the generated straight-line code Program::compile()
 * attaches, once on the interpreted tape (Evaluator::kTape). Both must
 * agree byte for byte: metrics, captured logs, the VCD, timeline and
 * text-trace files, and the encoded snapshot at three cycles, with and
 * without shuffled stage order. A checkpoint of the compiled run must
 * also resume on the interpreter and on the netlist engine to the same
 * end state. CoversCatalog pins that every shipped design is compiled
 * and that any other design falls back to the interpreter.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "baseline/catalog.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace assassyn {
namespace {

constexpr uint64_t kMaxCycles = 50'000'000;
/** Snapshots are compared at these cycles; the VCD, timeline and text
 *  trace cover the run up to the last of them. */
constexpr uint64_t kSnapAt[] = {5, 300, 3000};
/** The compiled run's checkpoint, resumed on the other evaluators. */
constexpr uint64_t kCkptAt = 1200;

struct Case {
    std::string name;
    std::function<std::unique_ptr<System>()> build;
};

std::string
corpusDir()
{
    return std::string(ASSASSYN_SOURCE_DIR) + "/tests/corpus";
}

/** The catalog, then the two grader cores over each corpus program. */
const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = [] {
        std::vector<Case> out;
        for (baseline::CatalogDesign &d : baseline::designCatalog())
            out.push_back({d.name, d.build});
        for (const grader::CorpusProgram &p :
             grader::loadCorpusDir(corpusDir())) {
            std::vector<uint32_t> image = p.image();
            out.push_back({"cpu." + p.name, [image] {
                               return designs::buildCpu(
                                          designs::BranchPolicy::kTaken,
                                          image)
                                   .sys;
                           }});
            out.push_back({"ooo." + p.name, [image] {
                               return designs::buildOoo(image).sys;
                           }});
        }
        return out;
    }();
    return all;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The output files of one run. */
struct Files {
    std::string vcd, timeline, trace;

    explicit Files(const std::string &stem)
        : vcd(stem + ".vcd"), timeline(stem + ".timeline.json"),
          trace(stem + ".trace")
    {
    }
};

sim::SimOptions
options(bool shuffle, const Files *files = nullptr)
{
    sim::SimOptions o;
    o.shuffle = shuffle;
    o.shuffle_seed = 7;
    o.capture_logs = true;
    if (files) {
        o.vcd_path = files->vcd;
        o.timeline_path = files->timeline;
        o.trace_path = files->trace;
    }
    return o;
}

std::string
metricsOf(const sim::Engine &e)
{
    return e.metrics().toJson("design");
}

class CompiledTapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(CompiledTapeTest, MatchesTape)
{
    const Case &c = cases()[std::get<0>(GetParam())];
    const bool shuffle = std::get<1>(GetParam());
    std::unique_ptr<System> sys = c.build();
    auto compiled = sim::Program::compile(*sys);
    auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
    ASSERT_NE(compiled->compiled(), nullptr) << c.name;
    ASSERT_EQ(tape->compiled(), nullptr);

    // The first kSnapAt.back() cycles with every output file on, the
    // snapshots compared along the way.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("compiled_tape_" + std::to_string(::getpid()) + "_" +
          std::to_string(std::get<0>(GetParam()))))
            .string();
    std::filesystem::create_directories(dir);
    const Files fc(dir + "/compiled"), ft(dir + "/tape");
    {
        sim::Simulator a(compiled, options(shuffle, &fc));
        sim::Simulator b(tape, options(shuffle, &ft));
        for (uint64_t at : kSnapAt) {
            if (a.finished())
                break;
            a.run(at - a.cycle());
            b.run(at - b.cycle());
            ASSERT_EQ(a.cycle(), b.cycle());
            EXPECT_EQ(sim::encodeSnapshot(a.snapshot()),
                      sim::encodeSnapshot(b.snapshot()))
                << c.name << ": snapshots differ at cycle " << a.cycle();
        }
    }
    EXPECT_EQ(slurp(fc.vcd), slurp(ft.vcd)) << c.name;
    EXPECT_EQ(slurp(fc.timeline), slurp(ft.timeline)) << c.name;
    EXPECT_EQ(slurp(fc.trace), slurp(ft.trace)) << c.name;
    EXPECT_FALSE(slurp(fc.vcd).empty());
    std::filesystem::remove_all(dir);

    // Whole runs, and the compiled run's checkpoint resumed on the
    // interpreter and on the netlist engine.
    sim::Simulator a(compiled, options(shuffle));
    a.run(kCkptAt);
    const sim::Snapshot ckpt = a.snapshot();
    a.run(kMaxCycles);
    ASSERT_TRUE(a.finished()) << c.name;
    sim::Simulator b(tape, options(shuffle));
    b.run(kMaxCycles);
    EXPECT_EQ(metricsOf(a), metricsOf(b)) << c.name;
    EXPECT_EQ(a.logOutput(), b.logOutput()) << c.name;

    sim::Simulator resumed(tape, options(shuffle));
    resumed.restore(ckpt);
    resumed.run(kMaxCycles);
    EXPECT_EQ(metricsOf(resumed), metricsOf(a)) << c.name;
    EXPECT_EQ(resumed.logOutput(), a.logOutput()) << c.name;

    rtl::Netlist nl(*sys);
    rtl::NetlistSim netlist(nl, options(false));
    netlist.restore(ckpt);
    netlist.run(kMaxCycles);
    EXPECT_EQ(metricsOf(netlist), metricsOf(a)) << c.name;
    EXPECT_EQ(netlist.logOutput(), a.logOutput()) << c.name;
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<size_t, bool>> &info)
{
    std::string name = cases()[std::get<0>(info.param)].name;
    for (char &ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name + (std::get<1>(info.param) ? "_shuffled" : "");
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, CompiledTapeTest,
    ::testing::Combine(::testing::Range(size_t(0), cases().size()),
                       ::testing::Bool()),
    caseName);

/** A small random pipeline no catalog design shares a tape with. */
std::unique_ptr<System>
randomDesign(uint64_t seed)
{
    using namespace dsl;
    Rng rng(seed);
    SysBuilder sb("random");
    Stage sink = sb.stage("sink", {{"x", uintType(32)}});
    Stage driver = sb.driver();
    Reg acc = sb.reg("acc", uintType(32));
    {
        StageScope scope(sink);
        Val x = sink.arg("x");
        Val mix = x;
        for (int i = 0; i < 6; ++i) {
            const uint64_t k = rng.below(1u << 20) + 1;
            switch (rng.below(4)) {
              case 0: mix = mix + k; break;
              case 1: mix = mix ^ k; break;
              case 2: mix = mix * k; break;
              default: mix = mix - (x & k); break;
            }
        }
        acc.write(mix);
        log("sink {}", {mix});
    }
    {
        StageScope scope(driver);
        Reg cyc = sb.reg("cyc", uintType(32));
        Val v = cyc.read();
        cyc.write(v + 1);
        asyncCall(sink, {v * 3});
        when(v == 50, [&] { finish(); });
    }
    compile(sb.sys());
    return sb.take();
}

TEST(CompiledTape, CoversCatalog)
{
    for (const baseline::CatalogDesign &d : baseline::designCatalog()) {
        std::unique_ptr<System> sys = d.build();
        EXPECT_NE(sim::Program::compile(*sys)->compiled(), nullptr)
            << d.name << " has no compiled tape";
    }
    // The grader builds its cores over a blank image of the program's
    // memory size (grader/grader.cc); the tapes do not depend on it.
    for (uint32_t words : {256u, 4096u}) {
        std::vector<uint32_t> blank(words, 0);
        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, blank);
        auto ooo = designs::buildOoo(blank);
        EXPECT_NE(sim::Program::compile(*cpu.sys)->compiled(), nullptr)
            << "grader in-order core, " << words << " words";
        EXPECT_NE(sim::Program::compile(*ooo.sys)->compiled(), nullptr)
            << "grader OoO core, " << words << " words";
    }
    for (uint64_t seed : {1, 2, 3}) {
        std::unique_ptr<System> sys = randomDesign(seed);
        auto prog = sim::Program::compile(*sys);
        EXPECT_EQ(prog->compiled(), nullptr) << "seed " << seed;
        sim::Simulator s(prog);
        s.run(1000);
        EXPECT_TRUE(s.finished());
    }
}

} // namespace
} // namespace assassyn
