/**
 * @file
 * Divergence reporting under deterministic fault injection (ctest -L
 * grade): a single seeded bit flip (sim/fault.h) is driven into a
 * known-good program, and the grader must freeze the FIRST divergent
 * retirement — its index, cycle, golden pc, and register delta — into a
 * verdict that is (a) byte-identical to the pinned golden file
 * tests/golden/grade_verdict.json and (b) byte-identical between the
 * event and netlist backends, extending the paper's cycle-alignment
 * guarantee to failure reporting.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "grader/corpus.h"
#include "grader/grader.h"
#include "sim/fault.h"

namespace assassyn {
namespace grader {
namespace {

/** A ten-iteration store loop; 54 golden retirements, no corpus
 *  dependency so the pinned verdict never moves under corpus edits. */
CorpusProgram
faultDemo()
{
    CorpusProgram p;
    p.name = "fault-demo";
    p.mem_words = 64;
    p.max_cycles = 2000;
    p.source = "    li   s0, 0x80\n"
               "    li   s1, 0\n"
               "    li   t0, 10\n"
               "loop:\n"
               "    add  s1, s1, t0\n"
               "    sw   s1, 0(s0)\n"
               "    addi s0, s0, 4\n"
               "    addi t0, t0, -1\n"
               "    bnez t0, loop\n"
               "    ecall\n";
    return p;
}

/** The pinned plan: one array bit flip at cycle 20 (lands in x9/s1). */
sim::FaultSpec
pinnedFault()
{
    sim::FaultSpec spec;
    spec.seed = 6;
    spec.count = 1;
    spec.first_cycle = 20;
    spec.last_cycle = 20;
    spec.fifos = false;
    return spec;
}

std::string
goldenVerdict()
{
    std::string path = std::string(ASSASSYN_SOURCE_DIR) +
                       "/tests/golden/grade_verdict.json";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(GraderVerdict, InjectedFaultMatchesGoldenFile)
{
    GradeOptions opts;
    opts.fault = pinnedFault();
    Verdict v = gradeProgram(faultDemo(), Core::kInOrder, Engine::kEvent,
                             opts);
    ASSERT_EQ(v.status, GradeStatus::kDiverged);
    ASSERT_TRUE(v.divergence.has_value());
    // The structured claim: WHICH retirement first left the golden
    // trajectory, WHEN, and WHAT state disagreed.
    EXPECT_EQ(v.divergence->retirement, 19u);
    EXPECT_EQ(v.divergence->cycle, 20u);
    EXPECT_EQ(v.divergence->kind, "reg");
    ASSERT_EQ(v.divergence->deltas.size(), 1u);
    EXPECT_EQ(v.divergence->deltas[0].kind, "reg");
    EXPECT_EQ(v.divergence->deltas[0].index, 9u); // x9 / s1
    EXPECT_EQ(v.divergence->deltas[0].expected, 34u);
    EXPECT_EQ(v.divergence->deltas[0].actual, 27u);

    EXPECT_EQ(v.toJson() + "\n", goldenVerdict());
}

TEST(GraderVerdict, VerdictIsByteIdenticalAcrossBackends)
{
    GradeOptions opts;
    opts.fault = pinnedFault();
    CorpusProgram prog = faultDemo();
    Verdict ev = gradeProgram(prog, Core::kInOrder, Engine::kEvent, opts);
    Verdict nv = gradeProgram(prog, Core::kInOrder, Engine::kNetlist,
                              opts);
    ASSERT_EQ(ev.status, GradeStatus::kDiverged);
    EXPECT_EQ(ev.toJson(), nv.toJson());
    EXPECT_EQ(nv.toJson() + "\n", goldenVerdict());
}

TEST(GraderVerdict, CleanRunOfTheSameProgramPasses)
{
    // The control arm: without the fault the program grades clean on
    // both backends, so the divergence above is the injection's doing.
    CorpusProgram prog = faultDemo();
    for (Engine engine : {Engine::kEvent, Engine::kNetlist}) {
        Verdict v = gradeProgram(prog, Core::kInOrder, engine);
        EXPECT_TRUE(v.pass()) << v.toJson();
        EXPECT_EQ(v.retirements, 54u);
    }
}

TEST(GraderVerdict, MemoryFaultFlipSeenAtItsCycle)
{
    // A memory flip goes through Engine::writeArray, which the DUT's
    // committed-write count does not see; the memory scan must still
    // catch it in the cycle it fired. Cycle 3 is before the first
    // store commits, so nothing else touches memory that cycle.
    sim::FaultSpec spec;
    spec.seed = 5; // flips bit 5 of mem[46] (byte 184, an unused word)
    spec.count = 1;
    spec.first_cycle = 3;
    spec.last_cycle = 3;
    spec.fifos = false;
    spec.include_memories = true;
    GradeOptions opts;
    opts.fault = spec;
    CorpusProgram prog = faultDemo();
    auto check = [](const Verdict &v, const char *via) {
        ASSERT_EQ(v.status, GradeStatus::kDiverged) << via;
        ASSERT_TRUE(v.divergence.has_value()) << via;
        EXPECT_EQ(v.divergence->kind, "mem") << via;
        EXPECT_EQ(v.divergence->cycle, 3u) << via;
        ASSERT_EQ(v.divergence->deltas.size(), 1u) << via;
        EXPECT_EQ(v.divergence->deltas[0].index, 184u) << via;
        EXPECT_EQ(v.divergence->deltas[0].actual, 32u) << via;
    };
    std::vector<std::string> verdicts;
    for (Engine engine : {Engine::kEvent, Engine::kNetlist}) {
        Verdict v = gradeProgram(prog, Core::kInOrder, engine, opts);
        check(v, "gradeProgram");
        verdicts.push_back(v.toJson());
    }
    GradeReport report = gradeCorpus({prog}, {Core::kInOrder},
                                     {Engine::kEvent, Engine::kNetlist},
                                     opts, 1);
    ASSERT_EQ(report.runs.size(), 2u);
    for (const GradeRun &run : report.runs) {
        check(run.verdict, "gradeCorpus");
        EXPECT_EQ(run.verdict.toJson(), verdicts[0]);
    }
    EXPECT_EQ(verdicts[0], verdicts[1]);
}

TEST(GraderVerdict, DeltasAreCappedByMaxDeltas)
{
    // A heavier fault plan scribbling over several arrays must still
    // produce a bounded report.
    GradeOptions opts;
    sim::FaultSpec spec;
    spec.seed = 18; // hits the register file (probe: reg divergence)
    spec.count = 6;
    spec.first_cycle = 15;
    spec.last_cycle = 25;
    spec.fifos = false;
    opts.fault = spec;
    opts.max_deltas = 2;
    Verdict v = gradeProgram(faultDemo(), Core::kInOrder, Engine::kEvent,
                             opts);
    ASSERT_FALSE(v.pass());
    if (v.divergence) {
        EXPECT_LE(v.divergence->deltas.size(), 2u);
    }
}

} // namespace
} // namespace grader
} // namespace assassyn
