/**
 * @file
 * Deterministic checkpoint/restore (ctest -L ckpt; docs/robustness.md,
 * "Checkpoint & crash recovery"):
 *
 *  - snapshot at cycle k, persist through the assassyn.ckpt.v1
 *    manifest + binary, restore into a fresh instance, run to N: the
 *    metrics snapshot, log stream, Perfetto timeline, and run status at
 *    N are byte-identical to an uninterrupted run — on both backends,
 *    on both CPU designs, across shuffle seeds, and mid-fault-plan;
 *  - the engine-independent sections of an event-engine snapshot are
 *    byte-identical to a netlist-engine snapshot of the same design at
 *    the same cycle, and each engine restores the other's snapshots;
 *  - a sweep instance resumed from another sweep's periodic
 *    checkpoint finishes exactly as the uninterrupted run did;
 *  - a sliced, checkpointed, resumed differential grade reproduces the
 *    uninterrupted verdict byte for byte;
 *  - corrupted snapshots — every truncation length, every single-bit
 *    flip of the binary, bit-flipped manifests, truncated on-disk
 *    blobs — degrade to structured FatalErrors naming the offset,
 *    section, or CRC pair: never UB or a crash (run this binary under
 *    ASSASSYN_SANITIZE=address to prove the "never UB" half).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/logging.h"

namespace assassyn {
namespace {

using namespace dsl;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "assassyn_ckpt_" + name;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** True when a manifest and its binary blob both exist on disk. */
bool
checkpointOnDisk(const std::string &manifest)
{
    return std::filesystem::exists(manifest) &&
           std::filesystem::exists(manifest + ".bin");
}

void
removeCheckpoint(const std::string &manifest)
{
    std::remove(manifest.c_str());
    std::remove((manifest + ".bin").c_str());
}

/**
 * A design with every kind of mutable state a snapshot must carry:
 * register arrays, FIFO traffic (entries in flight at most cycles),
 * per-stage event counters, and a log stream; finishes at @p stop + 1.
 */
std::unique_ptr<System>
buildPipe(uint64_t stop)
{
    SysBuilder sb("pipe");
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

/** One engine instance plus the fault injector keeping its hooks alive. */
struct Rig {
    std::unique_ptr<sim::Engine> sim;
    std::unique_ptr<sim::FaultInjector> inj;

    sim::Engine *operator->() { return sim.get(); }
};

Rig
rigOf(std::unique_ptr<sim::Engine> sim, const System &sys,
      const std::optional<sim::FaultSpec> &fault)
{
    Rig rig;
    rig.sim = std::move(sim);
    if (fault) {
        rig.inj = std::make_unique<sim::FaultInjector>(sys, *fault);
        rig.inj->attach(*rig.sim);
    }
    return rig;
}

/**
 * The core contract: snapshot at @p k, persist to disk, restore into a
 * fresh instance, run to the budget — every observable must match the
 * uninterrupted run.
 */
void
expectResumeIdentical(const std::string &label,
                      const std::function<Rig()> &make, uint64_t k,
                      uint64_t budget)
{
    auto straight = make();
    sim::RunResult sres = straight->run(budget);

    auto first = make();
    ASSERT_EQ(first->run(k).status, sim::RunStatus::kMaxCycles) << label;
    std::string manifest = tempPath(label + ".ckpt.json");
    sim::saveCheckpoint(first->snapshot(), manifest);

    auto resumed = make();
    resumed->restore(sim::loadCheckpoint(manifest));
    EXPECT_EQ(resumed->cycle(), k) << label;
    sim::RunResult rres = resumed->run(budget - k);

    EXPECT_EQ(rres.status, sres.status) << label;
    EXPECT_EQ(k + rres.cycles, sres.cycles) << label;
    EXPECT_EQ(resumed->cycle(), straight->cycle()) << label;
    EXPECT_EQ(rres.error, sres.error) << label;
    EXPECT_EQ(rres.hazard.toString(), sres.hazard.toString()) << label;
    EXPECT_EQ(resumed->metrics().toJson(label),
              straight->metrics().toJson(label))
        << label << " metrics diverged after resume";
    EXPECT_EQ(resumed->logOutput(), straight->logOutput()) << label;
    removeCheckpoint(manifest);
}

// ---- Resume byte-identity, small design -------------------------------------

TEST(CkptTest, EventResumeByteIdentical)
{
    auto sys = buildPipe(600);
    for (uint64_t k : {1u, 17u, 300u, 599u}) {
        auto make = [&] {
            return rigOf(std::make_unique<sim::Simulator>(*sys),
                         *sys, std::nullopt);
        };
        expectResumeIdentical("pipe_event_k" + std::to_string(k), make,
                              k, 10'000);
    }
}

TEST(CkptTest, NetlistResumeByteIdentical)
{
    auto sys = buildPipe(600);
    rtl::Netlist nl(*sys);
    for (uint64_t k : {1u, 17u, 300u, 599u}) {
        auto make = [&] {
            return rigOf(
                std::make_unique<rtl::NetlistSim>(
                    nl, rtl::NetlistSimOptions{.capture_logs = true}),
                         *sys, std::nullopt);
        };
        expectResumeIdentical("pipe_netlist_k" + std::to_string(k),
                              make, k, 10'000);
    }
}

// ---- Resume byte-identity, both CPUs × both engines × seeds -----------------

TEST(CkptTest, CpuResumeBothEnginesAcrossSeeds)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    const uint64_t k = 1000, budget = 200'000;

    for (uint64_t seed : {1u, 7u, 23u}) {
        auto make = [&] {
            sim::SimOptions opts;
            opts.capture_logs = false;
            opts.shuffle = true;
            opts.shuffle_seed = seed;
            return rigOf(
                std::make_unique<sim::Simulator>(*cpu.sys, opts),
                *cpu.sys, std::nullopt);
        };
        expectResumeIdentical("cpu_event_s" + std::to_string(seed),
                              make, k, budget);
    }

    rtl::Netlist nl(*cpu.sys);
    auto make = [&] {
        return rigOf(
            std::make_unique<rtl::NetlistSim>(
                nl, rtl::NetlistSimOptions{.capture_logs = false}),
                     *cpu.sys, std::nullopt);
    };
    expectResumeIdentical("cpu_netlist", make, k, budget);
}

TEST(CkptTest, OooCpuResumeBothEngines)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto ooo = designs::buildOoo(image);
    // The OoO core retires vvadd in ~914 cycles; snapshot mid-flight.
    const uint64_t k = 400, budget = 200'000;

    auto make_event = [&] {
        sim::SimOptions opts;
        opts.capture_logs = false;
        return rigOf(std::make_unique<sim::Simulator>(*ooo.sys, opts),
                     *ooo.sys, std::nullopt);
    };
    expectResumeIdentical("ooo_event", make_event, k, budget);

    rtl::Netlist nl(*ooo.sys);
    auto make_netlist = [&] {
        return rigOf(
            std::make_unique<rtl::NetlistSim>(
                nl, rtl::NetlistSimOptions{.capture_logs = false}),
                     *ooo.sys, std::nullopt);
    };
    expectResumeIdentical("ooo_netlist", make_netlist, k, budget);
}

// ---- Resume mid-fault-plan --------------------------------------------------

TEST(CkptTest, ResumeMidFaultPlanBothEngines)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::FaultSpec spec;
    spec.seed = 11;
    spec.count = 4;
    spec.first_cycle = 400;
    spec.last_cycle = 1600;
    // k = 1000 sits strictly inside the injection window: faults before
    // k are carried by the snapshot, faults after k must fire again in
    // the resumed instance (the plan is a pure function of the spec).
    const uint64_t k = 1000, budget = 20'000;

    auto make_event = [&] {
        sim::SimOptions opts;
        opts.capture_logs = false;
        return rigOf(std::make_unique<sim::Simulator>(*cpu.sys, opts),
                     *cpu.sys, spec);
    };
    expectResumeIdentical("cpu_fault_event", make_event, k, budget);

    rtl::Netlist nl(*cpu.sys);
    auto make_netlist = [&] {
        return rigOf(
            std::make_unique<rtl::NetlistSim>(
                nl, rtl::NetlistSimOptions{.capture_logs = false}),
                     *cpu.sys, spec);
    };
    expectResumeIdentical("cpu_fault_netlist", make_netlist, k, budget);
}

// ---- Timeline byte-identity -------------------------------------------------

TEST(CkptTest, PerfettoTimelineByteIdenticalAfterResume)
{
    auto sys = buildPipe(600);
    std::string straight_tl = tempPath("tl_straight.json");
    std::string resumed_tl = tempPath("tl_resumed.json");
    std::string partial_tl = tempPath("tl_partial.json");
    std::string manifest = tempPath("tl.ckpt.json");

    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = straight_tl;
        sim::Simulator s(*sys, opts);
        s.run(10'000);
        ASSERT_TRUE(s.finished());
    }
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = partial_tl;
        sim::Simulator s(*sys, opts);
        ASSERT_EQ(s.run(250).status, sim::RunStatus::kMaxCycles);
        sim::saveCheckpoint(s.snapshot(), manifest);
    }
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = resumed_tl;
        sim::Simulator s(*sys, opts);
        s.restore(sim::loadCheckpoint(manifest));
        s.run(10'000);
        ASSERT_TRUE(s.finished());
    }
    EXPECT_EQ(readAll(straight_tl), readAll(resumed_tl));

    std::remove(straight_tl.c_str());
    std::remove(resumed_tl.c_str());
    std::remove(partial_tl.c_str());
    removeCheckpoint(manifest);
}

// ---- Cross-backend portability ---------------------------------------------

TEST(CkptTest, SectionsByteIdenticalAcrossEngines)
{
    auto sys = buildPipe(600);
    sim::Simulator es(*sys);
    ASSERT_EQ(es.run(250).status, sim::RunStatus::kMaxCycles);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim rs(nl);
    ASSERT_EQ(rs.run(250).status, sim::RunStatus::kMaxCycles);

    sim::Snapshot esnap = es.snapshot();
    sim::Snapshot rsnap = rs.snapshot();
    EXPECT_EQ(esnap.design, rsnap.design);
    EXPECT_EQ(esnap.cycle, rsnap.cycle);
    EXPECT_EQ(esnap.engine, "event");
    EXPECT_EQ(rsnap.engine, "netlist");

    // Every netlist section exists on the event side, byte for byte:
    // the sections are keyed off the shared IR, not engine internals.
    for (const sim::SnapshotSection &sec : rsnap.sections) {
        const sim::SnapshotSection *other = esnap.find(sec.name);
        ASSERT_NE(other, nullptr) << "section " << sec.name;
        EXPECT_EQ(other->bytes, sec.bytes)
            << "section " << sec.name << " differs across engines";
    }
    // The event engine adds exactly one engine-private section: the
    // shuffle RNG position.
    EXPECT_EQ(esnap.sections.size(), rsnap.sections.size() + 1);
    EXPECT_NE(esnap.find("event.rng"), nullptr);
}

TEST(CkptTest, EventSnapshotRestoresIntoNetlist)
{
    auto sys = buildPipe(600);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim straight(nl);
    straight.run(10'000);
    ASSERT_TRUE(straight.finished());

    sim::Simulator es(*sys);
    ASSERT_EQ(es.run(250).status, sim::RunStatus::kMaxCycles);
    rtl::NetlistSim resumed(nl);
    resumed.restore(es.snapshot());
    resumed.run(10'000);
    ASSERT_TRUE(resumed.finished());
    EXPECT_EQ(resumed.cycle(), straight.cycle());
    EXPECT_EQ(resumed.metrics().toJson("pipe"),
              straight.metrics().toJson("pipe"));
    EXPECT_EQ(resumed.logOutput(), straight.logOutput());
}

TEST(CkptTest, NetlistSnapshotRestoresIntoEventSim)
{
    auto sys = buildPipe(600);
    sim::Simulator straight(*sys);
    straight.run(10'000);
    ASSERT_TRUE(straight.finished());

    rtl::Netlist nl(*sys);
    rtl::NetlistSim rs(nl);
    ASSERT_EQ(rs.run(250).status, sim::RunStatus::kMaxCycles);
    sim::Simulator resumed(*sys);
    resumed.restore(rs.snapshot());
    resumed.run(10'000);
    ASSERT_TRUE(resumed.finished());
    EXPECT_EQ(resumed.cycle(), straight.cycle());
    EXPECT_EQ(resumed.metrics().toJson("pipe"),
              straight.metrics().toJson("pipe"));
    EXPECT_EQ(resumed.logOutput(), straight.logOutput());
}

TEST(CkptTest, RestoreIntoWrongDesignIsAStructuredFatal)
{
    auto pipe = buildPipe(600);
    sim::Simulator s(*pipe);
    ASSERT_EQ(s.run(10).status, sim::RunStatus::kMaxCycles);
    sim::Snapshot snap = s.snapshot();

    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::Simulator other(*cpu.sys);
    EXPECT_THROW(other.restore(snap), FatalError);
}

// ---- Sweep resume -----------------------------------------------------------

TEST(SweepCkptTest, ResumedInstanceMatchesCleanRun)
{
    auto sys = buildPipe(600);
    auto prog = sim::Program::compile(*sys);

    sim::RunConfig clean_cfg;
    clean_cfg.name = "victim";
    clean_cfg.max_cycles = 10'000;
    sim::SweepReport clean =
        sim::runSweep({clean_cfg}, sim::eventInstance(prog), 1);
    ASSERT_TRUE(clean.allOk());

    // One sweep leaves periodic checkpoints behind, the way a process
    // killed mid-run would; checkpointing itself perturbs nothing.
    std::string manifest = tempPath("sweep_victim.ckpt.json");
    sim::RunConfig periodic = clean_cfg;
    periodic.ckpt_every = 200;
    periodic.ckpt_path = manifest;
    sim::SweepReport first =
        sim::runSweep({periodic}, sim::eventInstance(prog), 1);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.runs[0].end_cycle, clean.runs[0].end_cycle);
    ASSERT_TRUE(checkpointOnDisk(manifest));
    const uint64_t at = sim::loadCheckpoint(manifest).cycle;
    ASSERT_GT(at, 0u);
    ASSERT_LT(at, clean.runs[0].end_cycle);

    // A second sweep resumes from it and finishes as the clean run did.
    sim::RunConfig resumed = clean_cfg;
    resumed.resume_from = manifest;
    sim::SweepReport rep =
        sim::runSweep({resumed}, sim::eventInstance(prog), 1);
    ASSERT_EQ(rep.runs.size(), 1u);
    EXPECT_EQ(rep.runs[0].result.status, sim::RunStatus::kFinished);
    EXPECT_EQ(rep.runs[0].result.cycles, clean.runs[0].end_cycle - at);
    EXPECT_EQ(rep.runs[0].end_cycle, clean.runs[0].end_cycle);
    EXPECT_EQ(rep.runs[0].metrics.toJson("pipe"),
              clean.runs[0].metrics.toJson("pipe"));
    EXPECT_EQ(rep.runs[0].logs, clean.runs[0].logs);
    EXPECT_FALSE(rep.runs[0].logs.empty());
    removeCheckpoint(manifest);
}

// ---- Checkpointed, resumed differential grades ------------------------------

TEST(GradeCkptTest, SlicedAndResumedGradeReproducesVerdict)
{
    grader::CorpusProgram prog = grader::fuzzProgram(3);
    grader::Verdict straight = grader::gradeProgram(
        prog, grader::Core::kInOrder, grader::Engine::kEvent);

    // Sliced with periodic checkpoints: same verdict, byte for byte.
    std::string manifest = tempPath("grade.ckpt.json");
    // The seed-3 fuzz program grades in ~121 cycles; a 40-cycle cadence
    // leaves several periodic checkpoints behind.
    grader::GradeOptions copts;
    copts.ckpt_every = 40;
    copts.ckpt_path = manifest;
    grader::Verdict sliced = grader::gradeProgram(
        prog, grader::Core::kInOrder, grader::Engine::kEvent, copts);
    EXPECT_EQ(sliced.toJson(), straight.toJson());

    // The run left its last periodic checkpoint behind: resume from it
    // and the verdict must still come out identical (the lockstep
    // cursor — ISS position, store cursor, shadow memory — travels in
    // the "grader" section).
    ASSERT_TRUE(checkpointOnDisk(manifest));
    grader::GradeOptions ropts;
    ropts.resume_from = manifest;
    grader::Verdict resumed = grader::gradeProgram(
        prog, grader::Core::kInOrder, grader::Engine::kEvent, ropts);
    EXPECT_EQ(resumed.toJson(), straight.toJson());
    removeCheckpoint(manifest);
}

// ---- Corrupted-snapshot hardening (satellite 1) -----------------------------

TEST(CkptCorruptionTest, EveryTruncationIsAStructuredFatal)
{
    auto sys = buildPipe(100);
    sim::Simulator s(*sys);
    ASSERT_EQ(s.run(50).status, sim::RunStatus::kMaxCycles);
    std::vector<uint8_t> blob = sim::encodeSnapshot(s.snapshot());
    ASSERT_GT(blob.size(), 64u);

    // A well-formed blob round-trips.
    sim::Snapshot ok = sim::decodeSnapshot(blob.data(), blob.size());
    EXPECT_EQ(sim::encodeSnapshot(ok), blob);

    for (size_t len = 0; len < blob.size(); ++len)
        EXPECT_THROW(sim::decodeSnapshot(blob.data(), len), FatalError)
            << "truncation at " << len << " of " << blob.size();
}

/**
 * A section whose CRC is intact but whose payload is short: the
 * `arrays` section cut halfway through the memory's words (and mid
 * word). Array payloads are decoded in bulk after one bounds check, so
 * the cut must surface as that check's diagnostic on both engines.
 */
TEST(CkptCorruptionTest, ShortArraysSectionIsAStructuredFatal)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::Simulator es(*cpu.sys);
    ASSERT_EQ(es.run(100).status, sim::RunStatus::kMaxCycles);
    sim::Snapshot snap = es.snapshot();

    // Section layout: u32 count, then per array (IR order) u32 size,
    // size u64 words, u64 write count.
    size_t cut = 4;
    for (const auto &arr : cpu.sys->arrays()) {
        cut += 4;
        if (arr.get() == cpu.mem) {
            ASSERT_GT(arr->size(), 2u);
            cut += arr->size() / 2 * 8 + 3;
            break;
        }
        cut += arr->size() * 8 + 8;
    }
    for (sim::SnapshotSection &sec : snap.sections)
        if (sec.name == "arrays") {
            ASSERT_LT(cut, sec.bytes.size());
            sec.bytes.resize(cut);
        }

    rtl::Netlist nl(*cpu.sys);
    auto expectTruncated = [&](auto &engine, const char *label) {
        try {
            engine.restore(snap);
            ADD_FAILURE() << label << ": short arrays section restored";
        } catch (const FatalError &err) {
            std::string msg = err.what();
            EXPECT_NE(msg.find("section 'arrays' truncated at byte"),
                      std::string::npos)
                << label << ": " << msg;
        }
    };
    sim::Simulator event(*cpu.sys);
    expectTruncated(event, "event");
    rtl::NetlistSim netlist(nl);
    expectTruncated(netlist, "netlist");
}

TEST(CkptCorruptionTest, EverySingleBitFlipIsAStructuredFatal)
{
    auto sys = buildPipe(100);
    sim::Simulator s(*sys);
    ASSERT_EQ(s.run(50).status, sim::RunStatus::kMaxCycles);
    std::vector<uint8_t> blob = sim::encodeSnapshot(s.snapshot());

    // Every byte of the file is covered by a CRC (header + section
    // payloads + the CRCs themselves), so every possible single-bit
    // flip must surface as a structured FatalError.
    for (size_t byte = 0; byte < blob.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            blob[byte] ^= uint8_t(1u << bit);
            EXPECT_THROW(sim::decodeSnapshot(blob.data(), blob.size()),
                         FatalError)
                << "bit " << bit << " of byte " << byte;
            blob[byte] ^= uint8_t(1u << bit);
        }
    }
}

TEST(CkptCorruptionTest, ManifestBitFlipsNeverCrash)
{
    auto sys = buildPipe(100);
    sim::Simulator s(*sys);
    ASSERT_EQ(s.run(50).status, sim::RunStatus::kMaxCycles);
    std::string manifest = tempPath("fuzz.ckpt.json");
    sim::saveCheckpoint(s.snapshot(), manifest);
    std::vector<uint8_t> want = sim::encodeSnapshot(s.snapshot());

    std::string text = readAll(manifest);
    ASSERT_FALSE(text.empty());
    // The corrupted copy lives in the same directory, so its relative
    // binary reference still resolves to the intact blob.
    std::string corrupt = tempPath("fuzz_corrupt.ckpt.json");
    for (size_t i = 0; i < text.size(); ++i) {
        std::string mutated = text;
        mutated[i] = char(uint8_t(mutated[i]) ^ 0x10);
        {
            std::ofstream out(corrupt, std::ios::binary);
            out << mutated;
        }
        try {
            sim::Snapshot snap = sim::loadCheckpoint(corrupt);
            // A flip the validator accepts must not have changed what
            // gets restored.
            EXPECT_EQ(sim::encodeSnapshot(snap), want) << "byte " << i;
        } catch (const FatalError &) {
            // Structured rejection: the expected outcome.
        }
    }
    std::remove(corrupt.c_str());
    removeCheckpoint(manifest);
}

TEST(CkptCorruptionTest, ManifestTruncationsNeverCrash)
{
    auto sys = buildPipe(100);
    sim::Simulator s(*sys);
    ASSERT_EQ(s.run(50).status, sim::RunStatus::kMaxCycles);
    std::string manifest = tempPath("trunc.ckpt.json");
    sim::saveCheckpoint(s.snapshot(), manifest);

    std::string text = readAll(manifest);
    std::string corrupt = tempPath("trunc_corrupt.ckpt.json");
    for (size_t len = 0; len < text.size(); ++len) {
        {
            std::ofstream out(corrupt, std::ios::binary);
            out << text.substr(0, len);
        }
        EXPECT_THROW(sim::loadCheckpoint(corrupt), FatalError)
            << "manifest truncated at " << len;
    }
    std::remove(corrupt.c_str());
    removeCheckpoint(manifest);
}

TEST(CkptCorruptionTest, DamagedBinaryOnDiskIsAStructuredFatal)
{
    auto sys = buildPipe(100);
    sim::Simulator s(*sys);
    ASSERT_EQ(s.run(50).status, sim::RunStatus::kMaxCycles);
    std::string manifest = tempPath("disk.ckpt.json");
    sim::saveCheckpoint(s.snapshot(), manifest);
    ASSERT_TRUE(checkpointOnDisk(manifest));

    std::string bin_path = manifest + ".bin";
    std::string blob = readAll(bin_path);

    // Truncated blob: the manifest's byte count catches it.
    {
        std::ofstream out(bin_path, std::ios::binary);
        out << blob.substr(0, blob.size() / 2);
    }
    EXPECT_THROW(sim::loadCheckpoint(manifest), FatalError);

    // Flipped byte at full length: the whole-file CRC catches it.
    {
        std::string flipped = blob;
        flipped[flipped.size() / 2] ^= 0x01;
        std::ofstream out(bin_path, std::ios::binary);
        out << flipped;
    }
    EXPECT_THROW(sim::loadCheckpoint(manifest), FatalError);

    // Missing blob: structurally absent, not a crash.
    std::remove(bin_path.c_str());
    EXPECT_FALSE(checkpointOnDisk(manifest));
    EXPECT_THROW(sim::loadCheckpoint(manifest), FatalError);
    removeCheckpoint(manifest);
}

} // namespace
} // namespace assassyn
