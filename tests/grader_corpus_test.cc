/**
 * @file
 * The ctest face of the differential grader (ctest -L grade): one
 * auto-registered test per (corpus file, core, engine) — dropping a new
 * .s into tests/corpus/ grows the suite with four grades and zero CMake
 * edits — plus the structural properties of the harness itself:
 * backend-identical verdicts, glob filtering, structured discovery
 * fatals, and the runSweep integration that scales a graded design
 * across worker threads.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <tuple>

#include "designs/cpu.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "sim/program.h"
#include "sim/sweep.h"
#include "support/logging.h"

namespace assassyn {
namespace grader {
namespace {

std::string
corpusDir()
{
    return std::string(ASSASSYN_SOURCE_DIR) + "/tests/corpus";
}

/** The corpus, loaded once; gtest parameterization reads it at static
 *  init, the fixtures reuse the same copy. */
const std::vector<CorpusProgram> &
corpus()
{
    static const std::vector<CorpusProgram> programs =
        loadCorpusDir(corpusDir());
    return programs;
}

std::vector<std::string>
corpusNames()
{
    std::vector<std::string> names;
    for (const CorpusProgram &prog : corpus())
        names.push_back(prog.name);
    return names;
}

const CorpusProgram &
programNamed(const std::string &name)
{
    for (const CorpusProgram &prog : corpus())
        if (prog.name == name)
            return prog;
    fatal("no corpus program '", name, "'");
}

using GradeParam = std::tuple<std::string, Core, Engine>;

class GradeCorpusTest : public ::testing::TestWithParam<GradeParam> {};

TEST_P(GradeCorpusTest, MatchesGoldenModelAtEveryRetirement)
{
    const auto &[name, core, engine] = GetParam();
    Verdict v = gradeProgram(programNamed(name), core, engine);
    EXPECT_TRUE(v.pass()) << v.toJson();
    EXPECT_EQ(v.retirements, v.golden_retired);
    EXPECT_GT(v.cycles, 0u);
    EXPECT_GT(v.ipc, 0.0);
    EXPECT_LE(v.ipc, 1.0); // both cores are single-commit
    EXPECT_FALSE(v.divergence.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GradeCorpusTest,
    ::testing::Combine(::testing::ValuesIn(corpusNames()),
                       ::testing::Values(Core::kInOrder, Core::kOoO),
                       ::testing::Values(Engine::kEvent,
                                         Engine::kNetlist)),
    [](const ::testing::TestParamInfo<GradeParam> &info) {
        std::string id = std::get<0>(info.param);
        id += std::string("_") + coreName(std::get<1>(info.param));
        id += std::string("_") + engineName(std::get<2>(info.param));
        for (char &c : id)
            if (c == '-')
                c = '_';
        return id;
    });

TEST(GradeCorpusSuite, CorpusCarriesAtLeastTwelvePrograms)
{
    EXPECT_GE(corpus().size(), 12u);
}

TEST(GradeCorpusSuite, VerdictsAreByteIdenticalAcrossBackends)
{
    // The cycle-alignment guarantee extended to grading: the verdict —
    // retirements, cycles, IPC, divergence — must not depend on which
    // backend executed the design.
    for (const char *name : {"hazards", "recursion"}) {
        const CorpusProgram &prog = programNamed(name);
        for (Core core : {Core::kInOrder, Core::kOoO}) {
            Verdict ev = gradeProgram(prog, core, Engine::kEvent);
            Verdict nv = gradeProgram(prog, core, Engine::kNetlist);
            EXPECT_EQ(ev.toJson(), nv.toJson())
                << name << " on " << coreName(core);
        }
    }
}

TEST(GradeCorpusSuite, GradeCorpusKeepsOrderAcrossWorkers)
{
    // gradeCorpus fans (program, core, engine) jobs over a thread pool;
    // the report must come back in deterministic program-major order
    // with every verdict identical to a serial run.
    std::vector<CorpusProgram> programs = {programNamed("arith"),
                                           programNamed("logic")};
    std::vector<Core> cores = {Core::kInOrder, Core::kOoO};
    std::vector<Engine> engines = {Engine::kEvent};
    GradeReport serial = gradeCorpus(programs, cores, engines, {}, 1);
    GradeReport parallel = gradeCorpus(programs, cores, engines, {}, 4);
    ASSERT_EQ(serial.runs.size(), 4u);
    ASSERT_EQ(parallel.runs.size(), 4u);
    EXPECT_TRUE(serial.allPass());
    for (size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].engine, parallel.runs[i].engine);
        EXPECT_EQ(serial.runs[i].verdict.toJson(),
                  parallel.runs[i].verdict.toJson());
    }
}

TEST(GraderCorpus, CompilesEachCoreOncePerCall)
{
    // A gradeCorpus call elaborates and compiles each (core, mem_words)
    // pair once and loads every program into the shared build as an
    // image. Three programs over two memory sizes: 2 x 2 pairs.
    CorpusProgram wide = fuzzProgram(3);
    wide.name = "fuzz-3-wide";
    wide.mem_words = 512;
    std::vector<CorpusProgram> programs = {fuzzProgram(1), fuzzProgram(2),
                                           wide};
    std::vector<Core> cores = {Core::kInOrder, Core::kOoO};
    std::vector<Engine> engines = {Engine::kEvent, Engine::kNetlist};
    uint64_t before = sim::Program::compileCount();
    GradeReport report = gradeCorpus(programs, cores, engines, {}, 2);
    EXPECT_EQ(sim::Program::compileCount() - before, 4u);
    EXPECT_GT(report.setup_seconds, 0.0);
    ASSERT_EQ(report.runs.size(), 12u);
    EXPECT_TRUE(report.allPass());

    // Sharing the build changes nothing a verdict can see.
    size_t i = 0;
    for (const CorpusProgram &prog : programs)
        for (Core core : cores)
            for (Engine engine : engines) {
                const GradeRun &run = report.runs[i++];
                EXPECT_EQ(run.engine, engine);
                EXPECT_EQ(run.verdict.toJson(),
                          gradeProgram(prog, core, engine).toJson())
                    << prog.name << " on " << coreName(core) << "/"
                    << engineName(engine);
            }
}

TEST(GradeCorpusSuite, GlobFilterSelectsByNamePattern)
{
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("haz*", "hazards"));
    EXPECT_TRUE(globMatch("*cur*", "recursion"));
    EXPECT_TRUE(globMatch("f?b", "fib"));
    EXPECT_FALSE(globMatch("haz", "hazards"));
    EXPECT_FALSE(globMatch("f?b", "flab"));

    auto picked = filterCorpus(corpus(), "s*");
    ASSERT_FALSE(picked.empty());
    for (const CorpusProgram &prog : picked)
        EXPECT_EQ(prog.name.front(), 's') << prog.name;
    EXPECT_TRUE(filterCorpus(corpus(), "no-such-program").empty());
}

TEST(GradeCorpusSuite, DiscoveryErrorsAreStructuredFatals)
{
    namespace fs = std::filesystem;
    EXPECT_THROW(loadCorpusDir("/nonexistent/corpus/dir"), FatalError);

    fs::path dir = fs::path(::testing::TempDir()) / "assassyn_empty_corpus";
    fs::create_directories(dir);
    EXPECT_THROW(loadCorpusDir(dir.string()), FatalError); // no .s files

    std::ofstream(dir / "bad.s") << "#: mem zero\n    nop\n";
    EXPECT_THROW(loadCorpusDir(dir.string()), FatalError); // bad directive

    std::ofstream(dir / "bad.s", std::ios::trunc)
        << "    addq x1, x2, x3\n"; // not an RV32I mnemonic
    std::vector<CorpusProgram> loaded = loadCorpusDir(dir.string());
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_THROW(loaded[0].image(), FatalError); // unparseable .s
    fs::remove_all(dir);
}

TEST(GradeCorpusSuite, SweepRunsAGradedDesignAcrossConfigs)
{
    // The grader certifies a design; runSweep then scales it: compile
    // the in-order core over a corpus image once and fan instances over
    // worker threads, all runs finishing identically.
    const CorpusProgram &prog = programNamed("fib");
    auto design =
        designs::buildCpu(designs::BranchPolicy::kTaken, prog.image());
    auto compiled = sim::Program::compile(*design.sys);
    std::vector<sim::RunConfig> configs(3);
    for (size_t i = 0; i < configs.size(); ++i) {
        configs[i].name = "fib-" + std::to_string(i);
        configs[i].sim.capture_logs = false;
    }
    sim::SweepReport report =
        sim::runSweep(configs, sim::eventInstance(compiled), 3);
    ASSERT_TRUE(report.allOk());
    ASSERT_EQ(report.runs.size(), 3u);
    for (const auto &run : report.runs)
        EXPECT_EQ(run.end_cycle, report.runs[0].end_cycle);
}

} // namespace
} // namespace grader
} // namespace assassyn
