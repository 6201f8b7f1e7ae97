/**
 * @file
 * Structural validation of every machine-readable report the toolchain
 * emits (ctest -L trace; the `validate_reports` build target):
 *
 *  - assassyn.trace.v1 (sim/trace.h + support/profiler.h): required
 *    top-level keys, well-formed Chrome trace events, per-(pid, tid)
 *    timestamp monotonicity over non-metadata events, and balanced
 *    B/E nesting per track;
 *  - assassyn.sweep.v3 (sim/sweep.h): per-run records (an instance
 *    that threw is a fault record with its error and repro) and the
 *    merged section;
 *  - assassyn.ckpt.v1 (sim/ckpt.h): the checkpoint manifest — schema,
 *    binary reference with size + CRC, and a per-section table
 *    consistent with the decoded snapshot;
 *  - assassyn.grade.v1 (src/grader): per-run verdicts with core,
 *    status, retirement accounting, and — on failure — a divergence
 *    object naming the first divergent retirement plus the additive
 *    one-command replay repro;
 *  - assassyn.debug.v1 (src/debug): the time-travel session summary —
 *    keyframe accounting, re-executed cycles, and break/watch hits;
 *  - assassyn.bench.fig16.v5 (bench/fig16_sim_speed.cc): the tracked
 *    throughput report at the repo root.
 *
 * The validators work on the raw JSON through support/jsonv.h — not
 * through TraceReader — so they catch malformations the higher-level
 * query API would paper over.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "debug/session.h"
#include "grader/corpus.h"
#include "grader/grader.h"
#include "sim/ckpt.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/jsonv.h"
#include "support/profiler.h"

namespace assassyn {
namespace {

using namespace dsl;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "assassyn_" + name;
}

jsonv::Value
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return jsonv::parse(os.str());
}

const jsonv::Value &
field(const jsonv::Value &obj, const char *key)
{
    const jsonv::Value *v = obj.find(key);
    EXPECT_NE(v, nullptr) << "missing required key '" << key << "'";
    static jsonv::Value null_value;
    return v ? *v : null_value;
}

/**
 * The Chrome trace-event invariants every assassyn.trace.v1 file must
 * satisfy: every event carries name/ph/pid/tid (+ts when not metadata),
 * per-(pid, tid) timestamps are monotone non-decreasing, and every
 * track's B/E stream is balanced.
 */
void
validateTraceEvents(const jsonv::Value &events)
{
    ASSERT_TRUE(events.isArray());
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> last_ts;
    std::map<std::pair<uint64_t, uint64_t>, int> be_depth;
    for (const jsonv::Value &ev : events.array) {
        ASSERT_TRUE(ev.isObject());
        const jsonv::Value &ph = field(ev, "ph");
        ASSERT_TRUE(ph.isString());
        EXPECT_TRUE(field(ev, "name").isString());
        ASSERT_TRUE(field(ev, "pid").isNumber());
        if (ph.string == "M")
            continue; // metadata: no timestamp
        ASSERT_TRUE(field(ev, "tid").isNumber());
        ASSERT_TRUE(field(ev, "ts").isNumber());
        auto key = std::make_pair(field(ev, "pid").u64(),
                                  field(ev, "tid").u64());
        uint64_t ts = field(ev, "ts").u64();
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second)
                << "timestamps regressed on pid " << key.first
                << " tid " << key.second;
        }
        last_ts[key] = ts;
        if (ph.string == "X") {
            EXPECT_TRUE(field(ev, "dur").isNumber());
        } else if (ph.string == "B") {
            ++be_depth[key];
        } else if (ph.string == "E") {
            EXPECT_GT(be_depth[key], 0)
                << "'E' without matching 'B' on tid " << key.second;
            --be_depth[key];
        } else if (ph.string == "s" || ph.string == "f") {
            EXPECT_TRUE(field(ev, "id").isNumber());
        } else if (ph.string == "i") {
            EXPECT_TRUE(field(ev, "s").isString());
        }
    }
    for (const auto &[key, depth] : be_depth)
        EXPECT_EQ(depth, 0) << "unclosed 'B' events on pid " << key.first
                            << " tid " << key.second;
}

/** A driver streaming a bounded counter into a consuming sink. */
struct Stream {
    SysBuilder sb{"stream"};
    Stage sink, d;

    Stream()
    {
        sink = sb.stage("sink", {{"x", uintType(16)}});
        d = sb.driver();
        Reg n = sb.reg("n", uintType(16));
        {
            StageScope scope(sink);
            sink.arg("x");
        }
        {
            StageScope scope(d);
            Val cur = n.read();
            when(cur < 20, [&] { asyncCall(sink, {cur}); });
            when(cur == 20, [&] { finish(); });
            n.write(cur + 1);
        }
        compile(sb.sys());
    }
};

TEST(ValidateReports, TraceV1IsWellFormedChromeTrace)
{
    // Profiler on: the file then carries both clock domains, so the
    // validator exercises 'X'/'s'/'f'/'i' (pid 1) and 'B'/'E' (pid 2).
    HostProfiler::instance().enable();
    Stream design;
    std::string path = tempPath("validate_trace.json");
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.timeline_path = path;
        sim::Simulator s(design.sb.sys(), opts);
        s.run(10'000);
        ASSERT_TRUE(s.finished());
    }
    HostProfiler::instance().disable();

    jsonv::Value doc = parseFile(path);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(field(doc, "schema").string, "assassyn.trace.v1");
    validateTraceEvents(field(doc, "traceEvents"));
    const jsonv::Value &stats = field(doc, "stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_TRUE(field(stats, "events").isNumber());
    EXPECT_TRUE(field(stats, "dropped_events").isNumber());
    EXPECT_TRUE(field(stats, "ring_capacity").isNumber());
    std::remove(path.c_str());
}

TEST(ValidateReports, HostProfileV1IsWellFormedChromeTrace)
{
    HostProfiler::instance().enable();
    {
        HostProfiler::Scope outer("phase:outer");
        HostProfiler::Scope inner("phase:inner");
    }
    std::string path = tempPath("validate_host.json");
    HostProfiler::instance().writeJson(path);
    HostProfiler::instance().disable();

    jsonv::Value doc = parseFile(path);
    EXPECT_EQ(field(doc, "schema").string, "assassyn.trace.v1");
    validateTraceEvents(field(doc, "traceEvents"));
    EXPECT_GE(field(field(doc, "stats"), "host_spans").u64(), 2u);
    std::remove(path.c_str());
}

TEST(ValidateReports, SweepV2HasPerRunRecordsAndMergedSection)
{
    Stream design;
    auto prog = sim::Program::compile(design.sb.sys());
    std::vector<sim::RunConfig> configs(2);
    configs[0].name = "a";
    configs[0].sim.capture_logs = false;
    configs[1].name = "b";
    configs[1].sim.capture_logs = false;
    sim::SweepReport report =
        sim::runSweep(configs, sim::eventInstance(prog), 2);
    ASSERT_TRUE(report.allOk());

    std::string path = tempPath("validate_sweep.json");
    report.write(path, "stream");

    jsonv::Value doc = parseFile(path);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(field(doc, "schema").string, "assassyn.sweep.v3");
    EXPECT_EQ(field(doc, "design").string, "stream");
    EXPECT_EQ(field(doc, "workers").u64(), 2u);
    EXPECT_TRUE(field(doc, "seconds").isNumber());
    const jsonv::Value &runs = field(doc, "runs");
    ASSERT_TRUE(runs.isArray());
    ASSERT_EQ(runs.array.size(), 2u);
    for (const jsonv::Value &run : runs.array) {
        EXPECT_TRUE(field(run, "name").isString());
        EXPECT_EQ(field(run, "status").string, "finished");
        EXPECT_TRUE(field(run, "cycles").isNumber());
        EXPECT_TRUE(field(run, "end_cycle").isNumber());
        EXPECT_TRUE(field(run, "seconds").isNumber());
        // v3: no retry accounting; a clean run has no error or repro.
        EXPECT_EQ(run.find("attempts"), nullptr);
        EXPECT_EQ(run.find("resumes"), nullptr);
        EXPECT_EQ(run.find("attempt_errors"), nullptr);
        EXPECT_EQ(run.find("error"), nullptr);
        EXPECT_EQ(run.find("repro"), nullptr);
        EXPECT_TRUE(field(run, "metrics").isObject());
    }
    EXPECT_TRUE(field(doc, "merged").isObject());
    std::remove(path.c_str());
}

/** Structural checks every verdict object must satisfy, passing or
 *  failing: the diff-relevant fields exist, the enums carry known
 *  values, and a divergence (when present) names its first divergent
 *  retirement, cycle, and deltas. */
void
validateVerdict(const jsonv::Value &v)
{
    ASSERT_TRUE(v.isObject());
    EXPECT_TRUE(field(v, "program").isString());
    const jsonv::Value &core = field(v, "core");
    ASSERT_TRUE(core.isString());
    EXPECT_TRUE(core.string == "inorder" || core.string == "ooo");
    const jsonv::Value &status = field(v, "status");
    ASSERT_TRUE(status.isString());
    EXPECT_TRUE(status.string == "pass" || status.string == "diverged" ||
                status.string == "fault" || status.string == "hazard" ||
                status.string == "timeout")
        << status.string;
    EXPECT_TRUE(field(v, "retirements").isNumber());
    EXPECT_TRUE(field(v, "golden_retired").isNumber());
    EXPECT_TRUE(field(v, "cycles").isNumber());
    EXPECT_TRUE(field(v, "ipc").isNumber());
    EXPECT_TRUE(field(v, "error").isString());
    const jsonv::Value *div = v.find("divergence");
    if (status.string == "diverged") {
        ASSERT_NE(div, nullptr);
    }
    if (div) {
        EXPECT_TRUE(field(*div, "retirement").isNumber());
        EXPECT_TRUE(field(*div, "cycle").isNumber());
        EXPECT_TRUE(field(*div, "pc").isNumber());
        EXPECT_TRUE(field(*div, "kind").isString());
        const jsonv::Value &deltas = field(*div, "deltas");
        ASSERT_TRUE(deltas.isArray());
        for (const jsonv::Value &delta : deltas.array) {
            EXPECT_TRUE(field(delta, "kind").isString());
            EXPECT_TRUE(field(delta, "index").isNumber());
            EXPECT_TRUE(field(delta, "expected").isNumber());
            EXPECT_TRUE(field(delta, "actual").isNumber());
        }
    }
}

TEST(ValidateReports, GradeV1CarriesVerdictsAndDivergences)
{
    // One passing grade and one fault-injected divergence, so the
    // validator sees both shapes of the verdict object.
    grader::CorpusProgram prog;
    prog.name = "validate-grade";
    prog.mem_words = 64;
    prog.max_cycles = 2000;
    prog.source = "    li   t0, 5\n"
                  "    li   t1, 0\n"
                  "sum:\n"
                  "    add  t1, t1, t0\n"
                  "    addi t0, t0, -1\n"
                  "    bnez t0, sum\n"
                  "    sw   t1, 0x80(x0)\n"
                  "    ecall\n";
    grader::GradeReport report = grader::gradeCorpus(
        {prog}, {grader::Core::kInOrder}, {grader::Engine::kEvent}, {},
        1);
    sim::FaultSpec spec;
    spec.seed = 6;
    spec.count = 1;
    spec.first_cycle = 10;
    spec.last_cycle = 14;
    spec.fifos = false;
    grader::GradeOptions opts;
    opts.fault = spec;
    grader::GradeRun faulted;
    faulted.engine = grader::Engine::kEvent;
    faulted.verdict = grader::gradeProgram(prog, grader::Core::kInOrder,
                                           grader::Engine::kEvent, opts);
    report.runs.push_back(faulted);
    // A guaranteed-failing run (cycle budget too small): gradeCorpus
    // must attach the one-command time-travel repro to it.
    grader::CorpusProgram starved = prog;
    starved.max_cycles = 20;
    grader::GradeReport timed_out = grader::gradeCorpus(
        {starved}, {grader::Core::kInOrder}, {grader::Engine::kEvent},
        {}, 1);
    ASSERT_EQ(timed_out.runs.size(), 1u);
    ASSERT_FALSE(timed_out.runs[0].verdict.pass());
    report.runs.push_back(timed_out.runs[0]);

    std::string path = tempPath("validate_grade.json");
    report.write(path, "inline");

    jsonv::Value doc = parseFile(path);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(field(doc, "schema").string, "assassyn.grade.v1");
    EXPECT_EQ(field(doc, "corpus").string, "inline");
    EXPECT_TRUE(field(doc, "pass").isBool());
    // Additive v1 key: the shared core builds, timed apart from the
    // per-grade seconds.
    const jsonv::Value &setup = field(doc, "setup_seconds");
    ASSERT_TRUE(setup.isNumber());
    EXPECT_GT(setup.number, 0.0);
    const jsonv::Value &runs = field(doc, "runs");
    ASSERT_TRUE(runs.isArray());
    EXPECT_EQ(field(doc, "grades").u64(), runs.array.size());
    ASSERT_EQ(runs.array.size(), 3u);
    for (const jsonv::Value &run : runs.array) {
        const jsonv::Value &engine = field(run, "engine");
        ASSERT_TRUE(engine.isString());
        EXPECT_TRUE(engine.string == "event" ||
                    engine.string == "netlist");
        EXPECT_TRUE(field(run, "seconds").isNumber());
        validateVerdict(field(run, "verdict"));
        // Additive v1 key: failing runs graded through gradeCorpus
        // carry a pasteable replay command; passing runs never do.
        const jsonv::Value *repro = run.find("repro");
        std::string status =
            field(field(run, "verdict"), "status").string;
        if (status == "pass") {
            EXPECT_EQ(repro, nullptr);
        } else if (repro) {
            ASSERT_TRUE(repro->isString());
            EXPECT_EQ(repro->string.rfind("replay ", 0), 0u)
                << repro->string;
        }
    }
    EXPECT_EQ(field(field(runs.array[0], "verdict"), "status").string,
              "pass");
    // The starved run came through gradeCorpus, so its repro MUST be
    // there (the mid one was graded directly and legitimately has
    // none).
    ASSERT_NE(runs.array[2].find("repro"), nullptr);
    std::remove(path.c_str());
}

TEST(ValidateReports, SweepV2AttachesReproToFailedRuns)
{
    // One clean run and one whose instance throws: the throw stays
    // with its run, a fault record, and only that record may carry the
    // additive "repro" command, rendered with the report's design name.
    std::vector<sim::RunConfig> configs(2);
    configs[0].name = "ok";
    configs[0].sim.capture_logs = false;
    configs[1].name = "broken";
    configs[1].sim.capture_logs = false;
    Stream design;
    auto prog = sim::Program::compile(design.sb.sys());
    sim::InstanceFn good = sim::eventInstance(prog);
    sim::InstanceFn instance = [&](const sim::RunConfig &cfg) {
        if (cfg.name == "broken")
            throw std::runtime_error("injected instance failure");
        return good(cfg);
    };
    sim::SweepReport report = sim::runSweep(configs, instance, 2);
    ASSERT_FALSE(report.allOk());
    EXPECT_EQ(report.runs[0].result.status, sim::RunStatus::kFinished);
    EXPECT_EQ(report.runs[1].result.status, sim::RunStatus::kFault);

    std::string path = tempPath("validate_sweep_repro.json");
    report.write(path, "stream");
    jsonv::Value doc = parseFile(path);
    const jsonv::Value &runs = field(doc, "runs");
    ASSERT_EQ(runs.array.size(), 2u);
    EXPECT_EQ(field(doc, "schema").string, "assassyn.sweep.v3");
    EXPECT_EQ(field(runs.array[0], "status").string, "finished");
    EXPECT_EQ(runs.array[0].find("repro"), nullptr);
    EXPECT_EQ(field(runs.array[1], "status").string, "fault");
    EXPECT_NE(field(runs.array[1], "error")
                  .string.find("injected instance failure"),
              std::string::npos);
    EXPECT_TRUE(field(runs.array[1], "metrics").isObject());
    const jsonv::Value *repro = runs.array[1].find("repro");
    ASSERT_NE(repro, nullptr);
    ASSERT_TRUE(repro->isString());
    EXPECT_EQ(repro->string.rfind("replay --design stream", 0), 0u)
        << repro->string;
    std::remove(path.c_str());
}

TEST(ValidateReports, DebugV1SessionSummaryIsWellFormed)
{
    Stream design;
    std::string path = tempPath("validate_debug.json");
    {
        sim::SimOptions so;
        so.capture_logs = false;
        sim::Simulator sim(design.sb.sys(), so);
        debug::DebugOptions dopts;
        dopts.keyframe_every = 4;
        dopts.keyframe_ring = 2;
        debug::DebugSession s(sim, design.sb.sys(), dopts);
        s.addWatch("exec:sink");
        s.runTo(12);
        s.reverseTo(6);
        s.writeSummary(path);
    }
    jsonv::Value doc = parseFile(path);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(field(doc, "schema").string, "assassyn.debug.v1");
    EXPECT_EQ(field(doc, "design").string, "stream");
    EXPECT_EQ(field(doc, "engine").string, "event");
    EXPECT_EQ(field(doc, "cycle").u64(), 6u);
    EXPECT_TRUE(field(doc, "finished").isBool());
    EXPECT_EQ(field(doc, "keyframe_every").u64(), 4u);
    EXPECT_EQ(field(doc, "keyframe_ring").u64(), 2u);
    EXPECT_TRUE(field(doc, "keyframes_taken").isNumber());
    EXPECT_TRUE(field(doc, "keyframes_evicted").isNumber());
    EXPECT_EQ(field(doc, "keyframes_restored").u64(), 1u);
    EXPECT_TRUE(field(doc, "cycles_run").isNumber());
    EXPECT_TRUE(field(doc, "cycles_reexecuted").isNumber());
    EXPECT_TRUE(field(doc, "breakpoints_hit").isNumber());
    const jsonv::Value &bps = field(doc, "breakpoints");
    ASSERT_TRUE(bps.isArray());
    ASSERT_EQ(bps.array.size(), 1u);
    EXPECT_EQ(field(bps.array[0], "spec").string, "exec:sink");
    EXPECT_EQ(field(bps.array[0], "kind").string, "watch");
    EXPECT_TRUE(field(bps.array[0], "enabled").isBool());
    EXPECT_TRUE(field(bps.array[0], "hits").isNumber());
    const jsonv::Value &hits = field(doc, "hits");
    ASSERT_TRUE(hits.isArray());
    for (const jsonv::Value &h : hits.array) {
        EXPECT_TRUE(field(h, "cycle").isNumber());
        EXPECT_TRUE(field(h, "spec").isString());
        EXPECT_TRUE(field(h, "detail").isString());
    }
    std::remove(path.c_str());
}

TEST(ValidateReports, CkptV1ManifestIsConsistentWithItsBinary)
{
    Stream design;
    std::string manifest = tempPath("validate_ckpt.json");
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        sim::Simulator s(design.sb.sys(), opts);
        sim::RunResult res = s.run(10);
        ASSERT_EQ(res.status, sim::RunStatus::kMaxCycles);
        sim::saveCheckpoint(s.snapshot(), manifest);
    }

    jsonv::Value doc = parseFile(manifest);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(field(doc, "schema").string, "assassyn.ckpt.v1");
    EXPECT_EQ(field(doc, "design").string, "stream");
    EXPECT_EQ(field(doc, "engine").string, "event");
    EXPECT_EQ(field(doc, "cycle").u64(), 10u);
    const jsonv::Value &binary = field(doc, "binary");
    ASSERT_TRUE(binary.isString());
    EXPECT_TRUE(field(doc, "binary_bytes").isNumber());
    EXPECT_TRUE(field(doc, "binary_crc32").isNumber());

    // The manifest's binary reference must match the blob on disk, and
    // the per-section table must match the decoded snapshot exactly.
    std::ifstream bin(manifest + ".bin", std::ios::binary);
    ASSERT_TRUE(bin.good());
    std::ostringstream os;
    os << bin.rdbuf();
    std::string blob = os.str();
    EXPECT_EQ(field(doc, "binary_bytes").u64(), blob.size());
    EXPECT_EQ(field(doc, "binary_crc32").u64(),
              sim::crc32(reinterpret_cast<const uint8_t *>(blob.data()),
                         blob.size()));

    sim::Snapshot snap = sim::loadCheckpoint(manifest);
    EXPECT_EQ(snap.cycle, 10u);
    const jsonv::Value &sections = field(doc, "sections");
    ASSERT_TRUE(sections.isArray());
    ASSERT_EQ(sections.array.size(), snap.sections.size());
    for (size_t i = 0; i < sections.array.size(); ++i) {
        const jsonv::Value &sec = sections.array[i];
        EXPECT_EQ(field(sec, "name").string, snap.sections[i].name);
        EXPECT_EQ(field(sec, "bytes").u64(),
                  snap.sections[i].bytes.size());
        EXPECT_EQ(field(sec, "crc32").u64(),
                  sim::crc32(snap.sections[i].bytes.data(),
                             snap.sections[i].bytes.size()));
    }
    // The mutable-state sections the contract requires
    // (docs/architecture.md).
    for (const char *name : {"meta", "arrays", "fifos", "mods"})
        EXPECT_NE(snap.find(name), nullptr) << name;

    std::remove(manifest.c_str());
    std::remove((manifest + ".bin").c_str());
}

TEST(ValidateReports, BenchFig16V3TrackedReportIsWellFormed)
{
    std::string path = std::string(ASSASSYN_SOURCE_DIR) +
                       "/BENCH_fig16.json";
    jsonv::Value doc = parseFile(path);
    ASSERT_TRUE(doc.isObject()) << path;
    EXPECT_EQ(field(doc, "schema").string, "assassyn.bench.fig16.v5");
    EXPECT_TRUE(field(doc, "smoke").isNumber());
    // Timing methodology is explicit — run-only wall-clock over `reps`
    // repetitions, build time reported per backend per run.
    EXPECT_TRUE(field(doc, "timing").isString());
    EXPECT_GT(field(doc, "reps").u64(), 0u);

    const jsonv::Value &runs = field(doc, "runs");
    ASSERT_TRUE(runs.isArray());
    ASSERT_FALSE(runs.array.empty());
    for (const jsonv::Value &run : runs.array) {
        EXPECT_TRUE(field(run, "design").isString());
        EXPECT_TRUE(field(run, "cycles").isNumber());
        EXPECT_GT(field(run, "asyn_cps").number, 0.0);
        EXPECT_GT(field(run, "rtl_cps").number, 0.0);
        EXPECT_GT(field(run, "asyn_over_rtl").number, 0.0);
        EXPECT_GT(field(run, "asyn_build_seconds").number, 0.0);
        EXPECT_GT(field(run, "rtl_build_seconds").number, 0.0);
        // v5: the interpreted tape's throughput beside the compiled
        // one's.
        EXPECT_GT(field(run, "asyn_tape_cps").number, 0.0);
        // v4: each engine's `*_cps` is the median rep, bracketed by the
        // slowest and fastest reps.
        for (const std::string key :
             {"asyn_cps", "asyn_tape_cps", "rtl_cps"}) {
            double median = field(run, key.c_str()).number;
            EXPECT_LE(field(run, (key + "_min").c_str()).number, median)
                << key;
            EXPECT_LE(median, field(run, (key + "_max").c_str()).number)
                << key;
        }
        // Wake-list scheduler counters. The CPU designs always have
        // mostly-idle stages (a stalled frontend, an underused memory
        // port), so zero skipped visits there means the dense fallback
        // scan silently came back. The streaming HLS pipelines can
        // legitimately keep every stage busy every cycle.
        ASSERT_TRUE(field(run, "events_skipped").isNumber());
        if (field(run, "design").string.rfind("cpu.", 0) == 0) {
            EXPECT_GT(field(run, "events_skipped").u64(), 0u);
        }
        EXPECT_TRUE(field(run, "stages_woken").isNumber());
    }
}

} // namespace
} // namespace assassyn
