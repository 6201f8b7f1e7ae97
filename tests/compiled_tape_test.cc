/**
 * @file
 * Compiled evaluators against the interpreters (docs/architecture.md
 * "Compiled evaluators"). Every catalog design (baseline/catalog.h) and
 * both grader cores over every corpus program run twice from the same
 * System on each engine: once on the generated straight-line code
 * (the tape Program::compile() attaches, the cones the Netlist
 * constructor attaches), once interpreted (Evaluator::kTape). Both must
 * agree byte for byte: metrics, captured logs, the VCD, timeline and
 * text-trace files, and the encoded snapshot at three cycles, with and
 * without shuffled stage order on the event engine. A checkpoint of
 * the compiled run must also resume on the interpreter and on the other
 * engine to the same end state, and the netlist's evaluators must stay
 * identical after an array poke. CoversCatalog pins that every shipped
 * design is compiled on both engines, with cones that tile its netlist
 * tape, and that any other design, or a reordered netlist, falls back
 * to the interpreter.
 */
#include <gtest/gtest.h>

#include <algorithm>
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
#include "rtl/compiled_netlist.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/event_ctx.h"
#include "sim/simulator.h"
#include "support/hash.h"
#include "support/rng.h"
#include "tests/netlist_test_peer.h"

namespace assassyn {
namespace {

/** The reference (interpreted) run's bound; every other run is bounded
 *  by budget(), so a divergence that keeps a design from finishing fails
 *  in a few times its length, not at this bound. */
constexpr uint64_t kMaxCycles = 50'000'000;
/** Snapshots are compared at these cycles; the VCD, timeline and text
 *  trace cover the run up to the last of them. */
constexpr uint64_t kSnapAt[] = {5, 300, 3000};
/** The compiled run's checkpoint, resumed on the other evaluators. */
constexpr uint64_t kCkptAt = 1200;

/** A whole run's bound: a few times the finished reference run @p ref. */
uint64_t
budget(const sim::Engine &ref)
{
    return 4 * ref.cycle() + 1000;
}

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

/** A fresh scratch directory for test @p tag's output files. */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = (std::filesystem::temp_directory_path() /
                             (tag + "_" + std::to_string(::getpid())))
                                .string();
    std::filesystem::create_directories(dir);
    return dir;
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

/**
 * The two runs' files must be byte-identical and the VCD nonempty. A
 * mismatch names the first differing line rather than printing a diff
 * of two whole files.
 */
void
expectSameFiles(const Files &a, const Files &b, const std::string &what)
{
    const std::pair<std::string, std::string> pairs[] = {
        {a.vcd, b.vcd}, {a.timeline, b.timeline}, {a.trace, b.trace}};
    for (const auto &[pa, pb] : pairs) {
        const std::string x = slurp(pa), y = slurp(pb);
        if (x == y)
            continue;
        const auto diff = std::mismatch(x.begin(),
                                        x.begin() + std::min(x.size(), y.size()),
                                        y.begin());
        ADD_FAILURE() << what << ": " << pa << " and " << pb
                      << " differ from line "
                      << std::count(x.begin(), diff.first, '\n') + 1;
    }
    EXPECT_FALSE(slurp(a.vcd).empty()) << what;
}

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
    const std::string dir = scratchDir(
        "compiled_tape_" + std::to_string(std::get<0>(GetParam())));
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
    expectSameFiles(fc, ft, c.name);
    std::filesystem::remove_all(dir);

    // Whole runs, and the compiled run's checkpoint resumed on the
    // interpreter and on the netlist engine.
    sim::Simulator b(tape, options(shuffle));
    b.run(kMaxCycles);
    ASSERT_TRUE(b.finished()) << c.name << ": the reference run";
    const uint64_t limit = budget(b);
    sim::Simulator a(compiled, options(shuffle));
    a.run(kCkptAt);
    const sim::Snapshot ckpt = a.snapshot();
    a.run(limit);
    ASSERT_TRUE(a.finished()) << c.name;
    EXPECT_EQ(metricsOf(a), metricsOf(b)) << c.name;
    EXPECT_EQ(a.logOutput(), b.logOutput()) << c.name;

    sim::Simulator resumed(tape, options(shuffle));
    resumed.restore(ckpt);
    resumed.run(limit);
    EXPECT_EQ(metricsOf(resumed), metricsOf(a)) << c.name;
    EXPECT_EQ(resumed.logOutput(), a.logOutput()) << c.name;

    rtl::Netlist nl(*sys);
    rtl::NetlistSim netlist(nl, options(false));
    netlist.restore(ckpt);
    netlist.run(limit);
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

/** Run @p a and @p b on to cycle @p at; their snapshots must agree. */
void
expectSameAt(sim::Engine &a, sim::Engine &b, uint64_t at,
             const std::string &what)
{
    const sim::RunResult ra = a.run(at - a.cycle());
    const sim::RunResult rb = b.run(at - b.cycle());
    ASSERT_EQ(ra.status, rb.status) << what;
    ASSERT_EQ(a.cycle(), b.cycle()) << what;
    EXPECT_EQ(sim::encodeSnapshot(a.snapshot()),
              sim::encodeSnapshot(b.snapshot()))
        << what << ": snapshots differ at cycle " << a.cycle();
}

class CompiledNetlistTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompiledNetlistTest, MatchesTape)
{
    const Case &c = cases()[GetParam()];
    std::unique_ptr<System> sys = c.build();
    const rtl::Netlist compiled(*sys);
    const rtl::Netlist tape(*sys, sim::Evaluator::kTape);
    ASSERT_NE(compiled.compiled(), nullptr) << c.name;
    ASSERT_EQ(tape.compiled(), nullptr);

    // The first kSnapAt.back() cycles with every output file on.
    const std::string dir =
        scratchDir("compiled_netlist_" + std::to_string(GetParam()));
    const Files fc(dir + "/compiled"), ft(dir + "/tape");
    {
        rtl::NetlistSim a(compiled, options(false, &fc));
        rtl::NetlistSim b(tape, options(false, &ft));
        for (uint64_t at : kSnapAt) {
            if (a.finished())
                break;
            expectSameAt(a, b, at, c.name);
        }
    }
    expectSameFiles(fc, ft, c.name);
    std::filesystem::remove_all(dir);

    // Whole runs; each evaluator's checkpoint resumed on the other, and
    // the compiled run's on the event engine.
    rtl::NetlistSim a(compiled, options(false));
    rtl::NetlistSim b(tape, options(false));
    a.run(kCkptAt);
    b.run(kCkptAt);
    const sim::Snapshot ckpt_a = a.snapshot(), ckpt_b = b.snapshot();
    b.run(kMaxCycles);
    ASSERT_TRUE(b.finished()) << c.name << ": the reference run";
    const uint64_t limit = budget(b);
    a.run(limit);
    ASSERT_TRUE(a.finished()) << c.name;
    EXPECT_EQ(metricsOf(a), metricsOf(b)) << c.name;
    EXPECT_EQ(a.logOutput(), b.logOutput()) << c.name;

    rtl::NetlistSim on_tape(tape, options(false));
    on_tape.restore(ckpt_a);
    on_tape.run(limit);
    EXPECT_EQ(metricsOf(on_tape), metricsOf(a)) << c.name;
    EXPECT_EQ(on_tape.logOutput(), a.logOutput()) << c.name;
    rtl::NetlistSim on_compiled(compiled, options(false));
    on_compiled.restore(ckpt_b);
    on_compiled.run(limit);
    EXPECT_EQ(metricsOf(on_compiled), metricsOf(a)) << c.name;
    EXPECT_EQ(on_compiled.logOutput(), a.logOutput()) << c.name;
    sim::Simulator event(sim::Program::compile(*sys), options(false));
    event.restore(ckpt_a);
    event.run(limit);
    EXPECT_EQ(metricsOf(event), metricsOf(a)) << c.name;
    EXPECT_EQ(event.logOutput(), a.logOutput()) << c.name;

    // An array poke is read by the next cycle's evaluation on both
    // evaluators alike (Engine::writeArray), after a restore as in a
    // plain run. The poked design need not finish, so the two run a
    // fixed window and compare their snapshots.
    for (const bool restored : {false, true}) {
        rtl::NetlistSim pa(compiled, options(false));
        rtl::NetlistSim pb(tape, options(false));
        if (restored) {
            pa.restore(ckpt_a);
            pb.restore(ckpt_a);
        } else {
            expectSameAt(pa, pb, kCkptAt, c.name);
        }
        const std::string what =
            c.name + (restored ? " (poked after restore)" : " (poked)");
        for (const auto &arr : sys->arrays()) {
            const uint64_t flip = pa.readArray(arr.get(), 0) ^ 1;
            pa.writeArray(arr.get(), 0, flip);
            pb.writeArray(arr.get(), 0, flip);
        }
        expectSameAt(pa, pb, pa.cycle() + 2000, what);
        EXPECT_EQ(metricsOf(pa), metricsOf(pb)) << what;
        EXPECT_EQ(pa.logOutput(), pb.logOutput()) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, CompiledNetlistTest,
    ::testing::Range(size_t(0), cases().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return caseName({std::make_tuple(info.param, false), info.index});
    });

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

/**
 * The netlist engine evaluates a compiled netlist by calling its cone
 * functions in order, so @p nl must be compiled, its cones must tile
 * the tape with no gap or overlap, and the generated entry must carry
 * a function for every cone.
 */
void
expectCompiledConesTileTape(const rtl::Netlist &nl, const std::string &what)
{
    ASSERT_NE(nl.compiled(), nullptr) << what << " has no compiled netlist";
    EXPECT_EQ(nl.compiled()->num_cones, nl.cones().size()) << what;
    uint32_t next = 0;
    for (const rtl::Cone &cone : nl.cones()) {
        EXPECT_EQ(cone.begin, next) << what;
        EXPECT_LE(cone.begin, cone.end) << what;
        next = cone.end;
    }
    EXPECT_EQ(next, nl.tape().size()) << what;
}

TEST(CompiledTape, CoversCatalog)
{
    for (const baseline::CatalogDesign &d : baseline::designCatalog()) {
        std::unique_ptr<System> sys = d.build();
        auto prog = sim::Program::compile(*sys);
        ASSERT_NE(prog->compiled(), nullptr)
            << d.name << " has no compiled tape";
        EXPECT_NE(prog->compiled()->cycle, nullptr)
            << d.name << " has no compiled cycle";
        auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
        EXPECT_EQ(tape->compiled(), nullptr) << d.name;
        expectCompiledConesTileTape(rtl::Netlist(*sys), d.name);
    }
    // The grader builds its cores over a blank image of the program's
    // memory size (grader/grader.cc); the tapes and netlists do not
    // depend on it.
    for (uint32_t words : {256u, 4096u}) {
        std::vector<uint32_t> blank(words, 0);
        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, blank);
        auto ooo = designs::buildOoo(blank);
        for (const auto &[sys, core] :
             {std::pair{cpu.sys.get(), "in-order"},
              std::pair{ooo.sys.get(), "OoO"}}) {
            auto prog = sim::Program::compile(*sys);
            ASSERT_NE(prog->compiled(), nullptr)
                << "grader " << core << " core, " << words << " words";
            EXPECT_NE(prog->compiled()->cycle, nullptr)
                << "grader " << core << " core cycle, " << words
                << " words";
        }
        expectCompiledConesTileTape(
            rtl::Netlist(*cpu.sys),
            "grader in-order netlist, " + std::to_string(words) + " words");
        expectCompiledConesTileTape(
            rtl::Netlist(*ooo.sys),
            "grader OoO netlist, " + std::to_string(words) + " words");
    }
    for (uint64_t seed : {1, 2, 3}) {
        std::unique_ptr<System> sys = randomDesign(seed);
        auto prog = sim::Program::compile(*sys);
        EXPECT_EQ(prog->compiled(), nullptr) << "seed " << seed;
        sim::Simulator s(prog);
        s.run(1000);
        EXPECT_TRUE(s.finished());
        const rtl::Netlist nl(*sys);
        EXPECT_EQ(nl.compiled(), nullptr) << "seed " << seed;
        rtl::NetlistSim n(nl);
        n.run(1000);
        EXPECT_TRUE(n.finished());
    }
    // A catalog netlist reordered away from creation order loses its
    // cones and with them its compiled evaluator: it runs its tape.
    std::unique_ptr<System> sys = baseline::designCatalog().front().build();
    rtl::Netlist nl(*sys);
    ASSERT_NE(nl.compiled(), nullptr);
    std::vector<rtl::Cell> &cells = rtl::NetlistTestPeer::cells(nl);
    std::reverse(cells.begin(), cells.end());
    rtl::NetlistTestPeer::refinalize(nl);
    ASSERT_TRUE(nl.levelized());
    EXPECT_TRUE(nl.cones().empty());
    EXPECT_EQ(nl.compiled(), nullptr);
}

/**
 * The cycle is generated over the schedule, which the tape does not
 * show: a port switched to kStallProducer (at depth 1, so that it
 * fills) gates its producers (stall gates, Program::stallFifos)
 * without changing one step. Such a design must not get the catalog
 * entry (whose cycle bakes in the old gates), and runs byte-identical
 * to the interpreter, plain and shuffled.
 */
TEST(CompiledTape, ScheduleChangeDropsCycle)
{
    std::unique_ptr<System> sys;
    auto gated = [&sys](const sim::Simulator &s) {
        uint64_t n = 0;
        for (const auto &mod : sys->modules())
            n += s.stageCounters(mod.get()).backpressure_stalls;
        return n;
    };
    // The first catalog port whose gate closes within the compared
    // window.
    Port *flipped = nullptr;
    std::shared_ptr<const sim::Program> ref;
    for (const baseline::CatalogDesign &d : baseline::designCatalog()) {
        sys = d.build();
        ref = sim::Program::compile(*sys);
        for (const auto &mod : sys->modules())
            for (const auto &port : mod->ports()) {
                const FifoPolicy was = port->policy();
                const unsigned depth = port->depth();
                if (flipped || was == FifoPolicy::kStallProducer)
                    continue;
                port->setPolicy(FifoPolicy::kStallProducer);
                port->setDepth(1);
                sim::Simulator probe(sim::Program::compile(*sys));
                probe.run(kSnapAt[std::size(kSnapAt) - 1]);
                if (gated(probe) > 0) {
                    flipped = port.get();
                } else {
                    port->setPolicy(was);
                    port->setDepth(depth);
                }
            }
        if (flipped)
            break;
    }
    ASSERT_NE(flipped, nullptr) << "no port whose stall gate closes";
    ASSERT_NE(ref->compiled(), nullptr);
    auto compiled = sim::Program::compile(*sys);
    auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
    EXPECT_NE(compiled->fingerprint(), ref->fingerprint());
    // The entry's tape still matches; only its schedule does not.
    EXPECT_TRUE(sameBytes(compiled->tape(), ref->compiled()->tape,
                          ref->compiled()->tape_len));
    EXPECT_EQ(compiled->compiled(), nullptr) << flipped->fullName();

    const std::string dir = scratchDir("compiled_cycle_schedule");
    for (const bool shuffle : {false, true}) {
        const Files fc(dir + "/compiled"), ft(dir + "/tape");
        {
            sim::Simulator a(compiled, options(shuffle, &fc));
            sim::Simulator b(tape, options(shuffle, &ft));
            for (uint64_t at : kSnapAt) {
                a.run(at - a.cycle());
                b.run(at - b.cycle());
                ASSERT_EQ(a.cycle(), b.cycle());
                EXPECT_EQ(sim::encodeSnapshot(a.snapshot()),
                          sim::encodeSnapshot(b.snapshot()))
                    << "snapshots differ at cycle " << a.cycle();
            }
            EXPECT_EQ(metricsOf(a), metricsOf(b));
            EXPECT_EQ(a.logOutput(), b.logOutput());
            EXPECT_GT(gated(a), 0u);
        }
        expectSameFiles(fc, ft, shuffle ? "shuffled" : "plain");
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace assassyn
