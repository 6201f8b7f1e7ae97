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
 * design and both grader cores get their generated cycle on both
 * engines, with cones that tile the netlist tape, and that any other
 * design, or a reordered netlist, falls back to the interpreter.
 * ScheduleChangeDropsCycle and ShapeChangeDropsEventCycle (event
 * engine) and TableChangeDropsNetlistCycle (netlist engine) pin that a
 * change the generated cycle bakes in, but the tape does not show,
 * falls back too; AnySizeCycleServesOtherMemories, that a core over a
 * memory of another size still runs generated code. GeneratedCycleFoldsShape
 * pins what the emitter prints as literals.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "baseline/catalog.h"
#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "core/ir/instruction.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "rtl/compiled_netlist.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/event_ctx.h"
#include "sim/simulator.h"
#include "sim/tape_emit.h"
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

/** The catalog, then the two grader cores over each corpus program. The
 *  catalog's own grader entries (grader.*) are those cores over a
 *  corpus-sized memory, which the corpus cases run. */
const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = [] {
        std::vector<Case> out;
        for (baseline::CatalogDesign &d : baseline::designCatalog())
            if (d.name.rfind("grader.", 0) != 0)
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

/**
 * The two engines' encoded snapshots must be byte-identical. A mismatch
 * names the first differing byte rather than printing both snapshots.
 */
void
expectSameSnapshots(sim::Engine &a, sim::Engine &b, const std::string &what)
{
    const std::vector<uint8_t> x = sim::encodeSnapshot(a.snapshot());
    const std::vector<uint8_t> y = sim::encodeSnapshot(b.snapshot());
    if (x == y)
        return;
    const auto diff = std::mismatch(
        x.begin(), x.begin() + std::min(x.size(), y.size()), y.begin());
    ADD_FAILURE() << what << ": snapshots differ at cycle " << a.cycle()
                  << " from byte " << diff.first - x.begin() << " (sizes "
                  << x.size() << " and " << y.size() << ")";
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
            expectSameSnapshots(a, b, c.name);
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
    expectSameSnapshots(a, b, what);
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
 * @p nl must have its generated cycle, and its cones, the cell ranges
 * that cycle was generated from, must tile the tape with no gap or
 * overlap.
 */
void
expectCompiledCycle(const rtl::Netlist &nl, const std::string &what)
{
    ASSERT_NE(nl.compiled(), nullptr) << what << " has no compiled netlist";
    EXPECT_NE(nl.compiled()->cycle, nullptr) << what << " has no cycle";
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
        expectCompiledCycle(rtl::Netlist(*sys), d.name);
    }
    // The grader builds its cores over a blank image of the program's
    // memory size (grader/grader.cc). The netlists do not depend on it;
    // the generated event cycles bake the memory's size in, so the
    // catalog carries the grader's cores at both sizes.
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
        expectCompiledCycle(
            rtl::Netlist(*cpu.sys),
            "grader in-order netlist, " + std::to_string(words) + " words");
        expectCompiledCycle(
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
    // cones and with them its compiled cycle: it runs its tape.
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
                expectSameSnapshots(a, b, "schedule change");
            }
            EXPECT_EQ(metricsOf(a), metricsOf(b));
            EXPECT_EQ(a.logOutput(), b.logOutput());
            EXPECT_GT(gated(a), 0u);
        }
        expectSameFiles(fc, ft, shuffle ? "shuffled" : "plain");
    }
    std::filesystem::remove_all(dir);
}

/** The catalog design @p name, built. */
std::unique_ptr<System>
buildCatalog(const std::string &name)
{
    for (const baseline::CatalogDesign &d : baseline::designCatalog())
        if (d.name == name)
            return d.build();
    ADD_FAILURE() << "no catalog design " << name;
    return nullptr;
}

/** Double the depth of @p sys's first port that does not stall its
 *  producers, so that no stall gate moves. */
void
deepenPort(System &sys)
{
    for (const auto &mod : sys.modules())
        for (const auto &port : mod->ports())
            if (port->policy() != FifoPolicy::kStallProducer) {
                port->setDepth(port->depth() * 2);
                return;
            }
    ADD_FAILURE() << "no port to deepen";
}

/**
 * The generated event cycle bakes in the design's shape, which neither
 * the tape nor the schedule shows: each port's depth (its ring mask and
 * overflow bound) and each array's size (its bound checks). A catalog
 * core with one port deeper (its policy unchanged, so no stall gate
 * moves) and cpu.base over a 512-word memory (one array resized) must
 * each get no catalog entry. The grader's core over 512 words must not
 * get its sized entry either, only the any-size one, which reads the
 * bounds from the array state. Each runs byte-identical to the
 * interpreter, plain and shuffled. A port deepened after
 * Program::compile attached the entry is refused by the Simulator.
 */
TEST(CompiledTape, ShapeChangeDropsEventCycle)
{
    std::vector<uint32_t> image =
        grader::loadCorpusDir(corpusDir()).front().image();
    image.resize(512, 0);
    struct Change {
        std::string what, entry;
        std::function<std::unique_ptr<System>()> build;
        bool any_size; ///< the any-size entry attaches
    };
    const Change changes[] = {
        {"deeper port", "cpu.bp.t",
         [] {
             std::unique_ptr<System> sys = buildCatalog("cpu.bp.t");
             deepenPort(*sys);
             return sys;
         },
         false},
        {"resized array", "cpu.base",
         [image] {
             return designs::buildCpu(designs::BranchPolicy::kInterlock,
                                      image)
                 .sys;
         },
         false},
        {"resized array, any-size entry", "grader.cpu",
         [image] {
             return designs::buildCpu(designs::BranchPolicy::kTaken, image)
                 .sys;
         },
         true},
    };
    const std::string dir = scratchDir("compiled_cycle_shape");
    for (const Change &ch : changes) {
        std::unique_ptr<System> ref_sys = buildCatalog(ch.entry);
        auto ref = sim::Program::compile(*ref_sys);
        ASSERT_NE(ref->compiled(), nullptr) << ch.entry;
        const sim::CompiledTape &entry = *ref->compiled();
        std::unique_ptr<System> sys = ch.build();
        auto compiled = sim::Program::compile(*sys);
        auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
        EXPECT_NE(compiled->fingerprint(), ref->fingerprint()) << ch.what;
        // The entry's tape and schedule still match; only its shape
        // does not.
        EXPECT_TRUE(sameBytes(compiled->tape(), entry.tape, entry.tape_len))
            << ch.what;
        EXPECT_TRUE(sameBytes(compiled->topoIdx(), entry.topo,
                              entry.num_spans))
            << ch.what;
        EXPECT_TRUE(sameBytes(compiled->stallFifos().ids,
                              entry.stall_fifos.ids,
                              entry.stall_fifos.at[entry.stall_fifos.size]))
            << ch.what;
        if (ch.any_size) {
            EXPECT_EQ(compiled->anySizeFingerprint(),
                      ref->anySizeFingerprint());
            ASSERT_NE(compiled->compiled(), nullptr) << ch.what;
            EXPECT_EQ(compiled->compiled()->array_sizes, nullptr) << ch.what;
        } else {
            EXPECT_EQ(compiled->compiled(), nullptr) << ch.what;
        }

        for (const bool shuffle : {false, true}) {
            const std::string what =
                ch.what + (shuffle ? " (shuffled)" : "");
            const Files fc(dir + "/compiled"), ft(dir + "/tape");
            {
                sim::Simulator a(compiled, options(shuffle, &fc));
                sim::Simulator b(tape, options(shuffle, &ft));
                for (uint64_t at : kSnapAt) {
                    if (a.finished())
                        break;
                    a.run(at - a.cycle());
                    b.run(at - b.cycle());
                    ASSERT_EQ(a.cycle(), b.cycle()) << what;
                    expectSameSnapshots(a, b, what);
                }
                EXPECT_EQ(metricsOf(a), metricsOf(b)) << what;
                EXPECT_EQ(a.logOutput(), b.logOutput()) << what;
            }
            expectSameFiles(fc, ft, what);
        }
    }
    std::filesystem::remove_all(dir);

    // A System reshaped after Program::compile cannot run the cycle
    // generated for its old shape.
    std::unique_ptr<System> sys = buildCatalog("cpu.bp.t");
    auto prog = sim::Program::compile(*sys);
    ASSERT_NE(prog->compiled(), nullptr);
    deepenPort(*sys);
    EXPECT_THROW(sim::Simulator(prog, sim::SimOptions{}), FatalError);
}

/**
 * The catalog carries the grader's two cores at two memory sizes (the
 * Sodor workloads' 4096 words and the corpus's 256), so the tapegen
 * also generates an any-size cycle for each, with the array bounds read
 * from the array state. A core over any other memory size runs it; at
 * a catalog size the entry with the bounds printed wins.
 */
TEST(CompiledTape, AnySizeCycleServesOtherMemories)
{
    for (uint32_t words : {256u, 512u, 1024u, 4096u}) {
        std::vector<uint32_t> blank(words, 0);
        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, blank);
        auto ooo = designs::buildOoo(blank);
        for (const auto &[sys, core] :
             {std::pair{cpu.sys.get(), "in-order"},
              std::pair{ooo.sys.get(), "OoO"}}) {
            const std::string what = std::string(core) + " core, " +
                                     std::to_string(words) + " words";
            auto prog = sim::Program::compile(*sys);
            ASSERT_NE(prog->compiled(), nullptr) << what;
            EXPECT_NE(prog->compiled()->cycle, nullptr) << what;
            EXPECT_EQ(prog->compiled()->array_sizes == nullptr,
                      words != 256 && words != 4096)
                << what;
        }
    }
}

/**
 * What the generated event cycle of the two CPU cores prints as
 * literals, read off the emitted source: no read of a slot that no step
 * writes goes through the slot store (it is kSlotInit[N]), no array
 * bound is read from the array state, every FIFO's shape is a row of
 * the constant table its generated commit reads, and each call group
 * is committed once. The heading counts each.
 */
TEST(CompiledTape, GeneratedCycleFoldsShape)
{
    for (const char *name : {"cpu.bp.t", "ooo"}) {
        std::unique_ptr<System> sys = buildCatalog(name);
        auto prog = sim::Program::compile(*sys);
        const std::vector<sim::DStep> &tape = prog->tape();
        const std::string text = sim::emitCompiledTape(*prog, "kProbe", name);

        // Every op before kWaitCheck writes slot dest, and no other op
        // writes a slot (sim/tape.h).
        std::vector<bool> written(prog->slotInit().size(), false);
        for (const sim::DStep &s : tape)
            if (s.op < uint8_t(sim::DOp::kWaitCheck))
                written[s.dest] = true;
        uint32_t steps = 0, store_reads = 0, const_reads = 0;
        std::istringstream lines(text);
        const std::string kStep = "constexpr const DStep *s = &kTape[";
        for (std::string line; std::getline(lines, line);) {
            const size_t at = line.find(kStep);
            if (at == std::string::npos)
                continue;
            ++steps;
            const sim::DStep &s =
                tape.at(std::stoul(line.substr(at + kStep.size())));
            for (size_t k = line.find("kSlotInit["); k != std::string::npos;
                 k = line.find("kSlotInit[", k + 1))
                ++const_reads;
            for (size_t v = line.find("v[s->"); v != std::string::npos;
                 v = line.find("v[s->", v + 1)) {
                const size_t close = line.find(']', v);
                const std::string field = line.substr(v + 5, close - v - 5);
                const size_t next = line.find_first_not_of(' ', close + 1);
                if (line[next] == '=' && line[next + 1] != '=')
                    continue; // a write
                const uint32_t slot = field == "a"   ? s.a
                                      : field == "b" ? s.b
                                      : field == "dest"
                                          ? s.dest
                                          : s.u.ca.c;
                ++store_reads;
                EXPECT_TRUE(written[slot])
                    << name << ": slot " << slot
                    << ", which no step writes, is read from the store";
            }
        }
        EXPECT_GT(steps, 0u) << name;
        EXPECT_GT(store_reads, 0u) << name;
        EXPECT_EQ(text.find("ast[s->b].size"), std::string::npos) << name;
        EXPECT_EQ(text.find("ast[s->x16].size"), std::string::npos) << name;
        // The generated commit of each call group reads its shape from the
        // table; the shared RunState::commitFifo is reached only
        // through commitGroupOutOfLine (sim/event_cycle.h), never from
        // the generated source.
        EXPECT_EQ(text.find("commitFifo"), std::string::npos) << name;
        const size_t table = text.find("kFifoShape[] = {");
        ASSERT_NE(table, std::string::npos) << name;
        size_t after = table;
        for (const sim::FifoShape &sh : prog->fifoShapes()) {
            const std::string row =
                "{" + std::to_string(sh.base) + ", " +
                std::to_string(sh.mask) + ", " + std::to_string(sh.depth) +
                ", " + std::to_string(sh.policy) + "}";
            after = text.find(row, after);
            ASSERT_NE(after, std::string::npos) << name << ": " << row;
        }

        // The heading counts what the spans print.
        uint32_t array_steps = 0;
        for (const sim::DStep &s : tape)
            array_steps += s.op == uint8_t(sim::DOp::kArrayRead) ||
                           s.op == uint8_t(sim::DOp::kArrayWrite);
        const size_t head = text.find("// Shape literals: ");
        ASSERT_NE(head, std::string::npos) << name;
        unsigned reads = 0, bounds = 0, commits = 0, fifos = 0;
        ASSERT_EQ(std::sscanf(text.c_str() + head,
                              "// Shape literals: %u constant-slot reads, "
                              "%u array bounds, %u call-group commits over "
                              "%u FIFOs.",
                              &reads, &bounds, &commits, &fifos),
                  4)
            << name;
        EXPECT_EQ(reads, const_reads) << name;
        EXPECT_GT(reads, 0u) << name;
        EXPECT_EQ(bounds, array_steps) << name;
        EXPECT_EQ(fifos, prog->fifoShapes().size()) << name;

        // One commit decision per call group: the cycle commits over
        // the group table, and the steps touch only each group's lead
        // (Program::callGroups). The in-order core commits 4 groups
        // where it committed each of its 16 FIFOs, the OoO core 2 where
        // it committed 7.
        const std::vector<uint32_t> &groups = prog->callGroups();
        ASSERT_GE(groups.size(), 2u) << name;
        EXPECT_EQ(commits, groups.size() - 1) << name;
        const size_t table_at = text.find("static constexpr size_t kGroups = ");
        ASSERT_NE(table_at, std::string::npos) << name;
        EXPECT_EQ(std::stoul(text.substr(table_at + 34)), commits) << name;
        EXPECT_LE(commits, std::string(name) == "ooo" ? 2u : 4u) << name;
        std::set<uint32_t> touched;
        const std::string kTouch = "touchBit(cx.touched_fifo, ";
        for (size_t k = text.find(kTouch); k != std::string::npos;
             k = text.find(kTouch, k + 1)) {
            ASSERT_TRUE(std::isdigit(
                static_cast<unsigned char>(text[k + kTouch.size()])))
                << name << ": a FIFO of a group of one is touched";
            touched.insert(uint32_t(std::stoul(text.substr(k + kTouch.size()))));
        }
        EXPECT_EQ(touched, std::set<uint32_t>(groups.begin(), groups.end() - 1))
            << name;

        // The any-size cycle reads every bound from the array state and
        // carries no array sizes.
        const std::string any =
            sim::emitCompiledTape(*prog, "kProbe", name, true);
        EXPECT_NE(any.find("ast[s->b].size"), std::string::npos) << name;
        EXPECT_NE(any.find("0 array bounds (any array sizes),"),
                  std::string::npos)
            << name;
        EXPECT_NE(any.find("    nullptr, 0,\n"), std::string::npos) << name;
    }
}

/** The sizes of @p prog's call groups, in fifo order. */
std::vector<uint32_t>
groupSizes(const sim::Program &prog)
{
    std::vector<uint32_t> out;
    const std::vector<uint32_t> &at = prog.callGroups();
    for (size_t g = 0; g + 1 < at.size(); ++g)
        out.push_back(at[g + 1] - at[g]);
    return out;
}

/**
 * Call groups follow the tape. In a cpu.bp.t whose exec stage pops its
 * `pred` port on its own, inside a `when` at the end of the body (a
 * partial pop, Fig. 8c; it pops whenever the port holds an entry, so
 * the core still runs its program), that port's dequeue leaves the run
 * of exec's implicit head pops: it gets no group, and the call's other
 * six ports split around it. The tape differs from the catalog's, so no
 * generated entry attaches, and the design runs byte-identical to the
 * interpreter, plain and shuffled.
 */
TEST(CompiledTape, CallGroupsFollowTheTape)
{
    std::unique_ptr<System> ref_sys = buildCatalog("cpu.bp.t");
    auto ref = sim::Program::compile(*ref_sys);
    EXPECT_EQ(groupSizes(*ref), (std::vector<uint32_t>{2, 7, 4, 3}));

    std::unique_ptr<System> sys = buildCatalog("cpu.bp.t");
    Module *exec = sys->module("exec");
    Port *pred = exec->port("pred");
    FifoPop *pop = exec->popOfOrNull(pred);
    ASSERT_NE(pop, nullptr);
    std::vector<Instruction *> body;
    for (Instruction *inst : exec->body().insts())
        if (inst != pop)
            body.push_back(inst);
    auto *when = exec->create<CondBlock>(exec->create<FifoValid>(pred));
    when->body()->append(pop);
    body.push_back(when);
    exec->body().assign(body);

    auto compiled = sim::Program::compile(*sys);
    auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
    const uint32_t fid = compiled->fifoIndex(pred);
    EXPECT_EQ(fid, 6u);
    EXPECT_EQ(groupSizes(*compiled),
              (std::vector<uint32_t>{2, 4, 1, 2, 4, 3}));
    EXPECT_NE(compiled->describe().find("  exec: fifos [6..6]\n"),
              std::string::npos)
        << compiled->describe();
    EXPECT_EQ(compiled->compiled(), nullptr);

    const std::string dir = scratchDir("compiled_cycle_groups");
    for (const bool shuffle : {false, true}) {
        const std::string what =
            std::string("partial pop") + (shuffle ? " (shuffled)" : "");
        const Files fc(dir + "/compiled"), ft(dir + "/tape");
        {
            sim::Simulator a(compiled, options(shuffle, &fc));
            sim::Simulator b(tape, options(shuffle, &ft));
            for (uint64_t at : kSnapAt) {
                a.run(at - a.cycle());
                b.run(at - b.cycle());
                ASSERT_EQ(a.cycle(), b.cycle()) << what;
                expectSameSnapshots(a, b, what);
            }
            EXPECT_EQ(metricsOf(a), metricsOf(b)) << what;
            EXPECT_EQ(a.logOutput(), b.logOutput()) << what;
            EXPECT_GT(a.fifoTraffic(pred).pops, 0u) << what;
        }
        expectSameFiles(fc, ft, what);
    }
    std::filesystem::remove_all(dir);
}

/**
 * @p snap with the head entry of FIFO @p fid dropped (its occupancy one
 * lower), re-encoded through the snapshot format.
 */
sim::Snapshot
dropHead(const sim::Snapshot &snap, uint32_t fid)
{
    sim::ByteReader r = snap.reader("fifos");
    sim::ByteWriter w;
    const uint32_t count = r.u32();
    w.u32(count);
    for (uint32_t f = 0; f < count; ++f) {
        w.u32(r.u32()); // depth
        const uint32_t occ = r.u32();
        std::vector<uint64_t> entries(occ);
        r.u64s(entries.data(), occ);
        if (f == fid)
            entries.erase(entries.begin());
        w.u32(uint32_t(entries.size()));
        w.u64s(entries.data(), entries.size());
        for (int k = 0; k < 6; ++k) // traffic and occupancy counters
            w.u64(r.u64());
        w.vec64(r.vec64());
    }
    r.expectEnd();
    sim::Snapshot out = snap;
    for (sim::SnapshotSection &sec : out.sections)
        if (sec.name == "fifos")
            sec.bytes = w.take();
    const std::vector<uint8_t> bytes = sim::encodeSnapshot(out);
    return sim::decodeSnapshot(bytes.data(), bytes.size());
}

/**
 * The reachability assumption of the call-group commit: in every state
 * a run reaches, the members of a group hold equal occupancy. A
 * restored snapshot need not be such a state. A mid-run cpu.bp.t
 * snapshot with the head entry of one member of a group dropped,
 * restored into the compiled and the interpreted simulator, runs the
 * generic cycle on both: 64 cycles later their snapshots, logs and any
 * fault text agree byte for byte, plain and shuffled. A consistent
 * snapshot restored afterwards runs generated code again.
 */
TEST(CompiledTape, UnequalCallGroupRestoresExactly)
{
    std::unique_ptr<System> sys = buildCatalog("cpu.bp.t");
    auto compiled = sim::Program::compile(*sys);
    auto tape = sim::Program::compile(*sys, sim::Evaluator::kTape);
    ASSERT_NE(compiled->compiled(), nullptr);
    std::vector<const Port *> ports;
    for (const auto &mod : sys->modules())
        for (const auto &port : mod->ports())
            ports.push_back(port.get());
    // Run to a boundary where the 7-port decode-to-exec group holds an
    // entry, and drop its last member's.
    const std::vector<uint32_t> &at = compiled->callGroups();
    ASSERT_EQ(at.size(), 5u);
    const uint32_t member = at[2] - 1;
    sim::Simulator src(compiled, options(false));
    src.run(500);
    while (src.fifoOccupancy(ports[member]) == 0 && src.cycle() < 2000)
        src.run(1);
    ASSERT_GT(src.fifoOccupancy(ports[member]), 0u);
    const sim::Snapshot good = src.snapshot();
    const sim::Snapshot bad = dropHead(good, member);

    for (const bool shuffle : {false, true}) {
        const std::string what =
            std::string("unequal group") + (shuffle ? " (shuffled)" : "");
        sim::Simulator a(compiled, options(shuffle));
        sim::Simulator b(tape, options(shuffle));
        a.restore(bad);
        b.restore(bad);
        ASSERT_EQ(a.fifoOccupancy(ports[member]) + 1,
                  a.fifoOccupancy(ports[at[1]]))
            << what;
        const sim::RunResult ra = a.run(64);
        const sim::RunResult rb = b.run(64);
        EXPECT_EQ(ra.status, rb.status) << what;
        EXPECT_EQ(ra.error, rb.error) << what;
        EXPECT_EQ(a.cycle(), b.cycle()) << what;
        expectSameSnapshots(a, b, what);
        EXPECT_EQ(a.logOutput(), b.logOutput()) << what;

        // Back to a reachable state: generated code again, in step.
        a.restore(good);
        b.restore(good);
        expectSameAt(a, b, a.cycle() + 64, what + ", restored again");
        EXPECT_EQ(a.logOutput(), b.logOutput()) << what;
    }
}

/**
 * The netlist's cycle is generated over its cycle tables as well as
 * its tape: a push site credited to another producer changes no cell,
 * only the FIFO's push table (and with it the timeline's flow events).
 * Such a netlist must not get the catalog entry, whose cycle bakes in
 * the old producer, and runs byte-identical to the interpreter.
 */
TEST(CompiledTape, TableChangeDropsNetlistCycle)
{
    std::unique_ptr<System> sys = baseline::designCatalog().front().build();
    const rtl::Netlist ref(*sys);
    ASSERT_NE(ref.compiled(), nullptr);
    // Credit the first push site to the module after its producer.
    auto retarget = [&sys](rtl::Netlist &nl) {
        for (rtl::FifoBlock &blk : rtl::NetlistTestPeer::fifos(nl))
            for (rtl::PushSite &site : blk.pushes) {
                if (!site.origin)
                    continue;
                const auto &mods = sys->modules();
                site.origin = mods[(site.origin->id() + 1) % mods.size()].get();
                rtl::NetlistTestPeer::refinalize(nl);
                return true;
            }
        return false;
    };
    rtl::Netlist compiled(*sys), tape(*sys, sim::Evaluator::kTape);
    ASSERT_TRUE(retarget(compiled));
    ASSERT_TRUE(retarget(tape));
    EXPECT_NE(compiled.fingerprint(), ref.fingerprint());
    // The entry's tape and cones still match; only a table does not.
    const rtl::CompiledNetlist &entry = *ref.compiled();
    EXPECT_TRUE(sameBytes(compiled.tape(), entry.tape, entry.tape_len));
    EXPECT_TRUE(sameBytes(compiled.cones(), entry.cones, entry.num_cones));
    EXPECT_EQ(compiled.compiled(), nullptr);

    const std::string dir = scratchDir("compiled_netlist_tables");
    const Files fc(dir + "/compiled"), ft(dir + "/tape"), fr(dir + "/ref");
    {
        rtl::NetlistSim a(compiled, options(false, &fc));
        rtl::NetlistSim b(tape, options(false, &ft));
        rtl::NetlistSim r(ref, options(false, &fr));
        for (uint64_t at : kSnapAt) {
            if (b.finished())
                break;
            expectSameAt(a, b, at, "retargeted push");
            r.run(at - r.cycle());
        }
        EXPECT_EQ(metricsOf(a), metricsOf(b));
        EXPECT_EQ(a.logOutput(), b.logOutput());
    }
    expectSameFiles(fc, ft, "retargeted push");
    // The change shows: the timeline credits the push elsewhere.
    EXPECT_NE(slurp(fc.timeline), slurp(fr.timeline));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace assassyn
