#include "grader/grader.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/iss.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/program.h"
#include "sim/repro.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/json.h"
#include "support/logging.h"

namespace assassyn {
namespace grader {

const char *
coreName(Core core)
{
    switch (core) {
      case Core::kInOrder: return "inorder";
      case Core::kOoO: return "ooo";
    }
    return "?";
}

const char *
engineName(Engine engine)
{
    switch (engine) {
      case Engine::kEvent: return "event";
      case Engine::kNetlist: return "netlist";
    }
    return "?";
}

const char *
gradeStatusName(GradeStatus status)
{
    switch (status) {
      case GradeStatus::kPass: return "pass";
      case GradeStatus::kDiverged: return "diverged";
      case GradeStatus::kFault: return "fault";
      case GradeStatus::kHazard: return "hazard";
      case GradeStatus::kTimeout: return "timeout";
    }
    return "?";
}

namespace {

/** Everything the golden pre-run learns about a program. */
struct GoldenTrace {
    uint64_t retired = 0;
    uint32_t regs[32] = {};
    std::vector<uint32_t> memory;

    /** One store that changed memory, in program order. */
    struct Store {
        uint32_t word = 0;  ///< word address
        uint32_t value = 0; ///< value after the store
    };
    std::vector<Store> stores;
};

/**
 * Run the ISS to completion, recording final state plus the ordered
 * sequence of *visible* stores — stores whose value differs from the
 * word already in memory. Silent stores are invisible to the DUT-side
 * change scan, so they must be invisible to the expectation too.
 */
GoldenTrace
goldenRun(const CorpusProgram &prog, const std::vector<uint32_t> &image)
{
    isa::Iss iss(image);
    GoldenTrace gold;
    // The DUTs retire at most one instruction per cycle, so the cycle
    // budget also bounds the retirements any aligned run can reach.
    uint64_t limit = prog.max_cycles;
    while (!iss.stats().halted && iss.stats().retired < limit) {
        uint32_t word = iss.loadWord(iss.pc());
        isa::Decoded d = isa::decode(word);
        if (d.opcode == isa::kStore) {
            uint32_t addr = iss.reg(d.rs1) + uint32_t(d.imm);
            uint32_t value = iss.reg(d.rs2);
            if (iss.loadWord(addr) != value)
                gold.stores.push_back({addr / 4, value});
        }
        iss.stepOne();
    }
    if (!iss.stats().halted)
        fatal("grader: golden model for '", prog.name,
              "' did not reach ECALL within ", limit,
              " instructions — raise '#: max-cycles' or fix the program");
    gold.retired = iss.stats().retired;
    for (unsigned i = 0; i < 32; ++i)
        gold.regs[i] = iss.reg(i);
    gold.memory = iss.memory();
    return gold;
}

/** The architectural-state handles shared by both CPU designs. */
struct Handles {
    const RegArray *mem = nullptr;
    const RegArray *rf = nullptr;
    const RegArray *retired = nullptr;
    const RegArray *ret_pc = nullptr;
};

/** The per-cycle diffing state driven from a post-cycle hook. */
struct Lockstep {
    sim::Engine *sim = nullptr;
    Handles h;
    const GoldenTrace *gold = nullptr;
    const sim::FaultInjector *faults = nullptr; ///< attached plan, if any
    isa::Iss iss;                  ///< stepped once per DUT retirement
    std::vector<uint32_t> shadow;  ///< last-seen copy of DUT memory
    size_t store_cursor = 0;       ///< next expected visible store
    uint64_t seen_retired = 0;     ///< DUT retired counter, last cycle
    uint64_t retirement = 0;       ///< dynamic instruction index (1-based)
    uint64_t seen_writes = 0;      ///< DUT mem write count, last scan
    size_t seen_faults = 0;        ///< fired fault records, last scan
    size_t max_deltas = 8;
    std::optional<Divergence> div; ///< first divergence only

    Lockstep(sim::Engine *s, Handles handles, const GoldenTrace *g,
             std::vector<uint32_t> image, size_t cap)
        : sim(s), h(handles), gold(g), iss(std::move(image)),
          shadow(iss.memory()), seen_writes(s->arrayWrites(h.mem)),
          max_deltas(cap)
    {
    }

    void
    diverge(uint64_t cycle, const char *kind, uint64_t pc,
            std::vector<StateDelta> deltas)
    {
        Divergence d;
        d.retirement = retirement;
        d.cycle = cycle;
        d.pc = pc;
        d.kind = kind;
        if (deltas.size() > max_deltas)
            deltas.resize(max_deltas);
        d.deltas = std::move(deltas);
        div = std::move(d);
    }

    /**
     * True when DUT memory may differ from the shadow: the cycle
     * committed a write to it, or a fault fired (a flip goes through
     * Engine::writeArray, which the write count does not see).
     */
    bool
    memoryTouched()
    {
        uint64_t writes = sim->arrayWrites(h.mem);
        size_t fired = faults ? faults->records().size() : 0;
        bool touched = writes != seen_writes || fired != seen_faults;
        seen_writes = writes;
        seen_faults = fired;
        return touched;
    }

    /**
     * Match this cycle's memory changes against the golden visible-store
     * sequence. Order-based, so the in-order core's MEM-stage store skew
     * (a store lands up to two cycles before its own retirement) is
     * absorbed without weakening the check.
     */
    void
    scanMemory(uint64_t cycle)
    {
        for (size_t w = 0; w < shadow.size(); ++w) {
            uint64_t now = sim->readArray(h.mem, w);
            if (now == shadow[w])
                continue;
            bool expected = store_cursor < gold->stores.size() &&
                            gold->stores[store_cursor].word == w &&
                            gold->stores[store_cursor].value == now;
            if (expected) {
                ++store_cursor;
            } else if (!div) {
                uint64_t want = store_cursor < gold->stores.size()
                                    ? gold->stores[store_cursor].value
                                    : shadow[w];
                diverge(cycle, "mem", iss.pc(),
                        {{"mem", uint64_t(w) * 4, want, now}});
            }
            shadow[w] = uint32_t(now);
        }
    }

    /** Step the golden model once per new DUT retirement and diff. */
    void
    checkRetirements(uint64_t cycle)
    {
        uint64_t now_retired = sim->readArray(h.retired, 0);
        while (seen_retired < now_retired && !div) {
            ++seen_retired;
            ++retirement;
            if (iss.stats().halted) {
                // The golden program is over; any further retirement is
                // the DUT running past its own ECALL.
                diverge(cycle, "retired", iss.pc(),
                        {{"retired", 0, gold->retired, now_retired}});
                return;
            }
            isa::StepInfo si = iss.stepOne();
            // ret_pc holds only the latest retirement, so the pc check
            // applies to the final retirement of the cycle (both cores
            // are 1-wide; the loop body runs once per cycle in practice).
            if (seen_retired == now_retired) {
                uint64_t dut_pc = sim->readArray(h.ret_pc, 0);
                if (dut_pc != si.pc) {
                    diverge(cycle, "pc", si.pc,
                            {{"pc", 0, si.pc, dut_pc}});
                    return;
                }
            }
            std::vector<StateDelta> regs;
            for (unsigned i = 0; i < 32; ++i) {
                uint64_t dut = sim->readArray(h.rf, i);
                uint64_t want = iss.reg(i);
                if (dut != want)
                    regs.push_back({"reg", i, want, dut});
            }
            if (!regs.empty())
                diverge(cycle, "reg", si.pc, std::move(regs));
        }
    }

    void
    onCycle(uint64_t cycle)
    {
        if (div)
            return; // first divergence frozen; stop diffing
        if (memoryTouched())
            scanMemory(cycle);
        checkRetirements(cycle);
    }

    /**
     * Append the lockstep cursor as a "grader" section. The ISS and
     * shadow memory are *not* serialized: both are deterministic
     * functions of (image, retirement) and of the DUT memory at the
     * boundary, so restoreFrom() reconstructs them instead.
     */
    void
    saveTo(sim::Snapshot &snap) const
    {
        sim::ByteWriter w;
        w.u64(seen_retired);
        w.u64(retirement);
        w.u64(store_cursor);
        w.u8(div ? 1 : 0);
        if (div) {
            w.u64(div->retirement);
            w.u64(div->cycle);
            w.u64(div->pc);
            w.str(div->kind);
            w.u32(uint32_t(div->deltas.size()));
            for (const StateDelta &d : div->deltas) {
                w.str(d.kind);
                w.u64(d.index);
                w.u64(d.expected);
                w.u64(d.actual);
            }
        }
        snap.add("grader", w.take());
    }

    /**
     * Rewind the diffing cursor to @p snap. Must run *after* the
     * engine's own restore(): the shadow memory is rebuilt by reading
     * the restored DUT arrays. The golden ISS is replayed one
     * retirement at a time — stepOne() is deterministic, so the replay
     * lands on the exact mid-run ISS state (pc, registers, memory).
     */
    void
    restoreFrom(const sim::Snapshot &snap)
    {
        sim::ByteReader r = snap.reader("grader");
        seen_retired = r.u64();
        retirement = r.u64();
        store_cursor = r.u64();
        if (retirement > gold->retired)
            fatal("checkpoint: grader section claims ", retirement,
                  " retirements but the golden run only has ",
                  gold->retired);
        if (store_cursor > gold->stores.size())
            fatal("checkpoint: grader store cursor ", store_cursor,
                  " exceeds the golden store count ",
                  gold->stores.size());
        for (uint64_t i = 0; i < retirement && !iss.stats().halted; ++i)
            iss.stepOne();
        for (size_t w = 0; w < shadow.size(); ++w)
            shadow[w] = uint32_t(sim->readArray(h.mem, w));
        seen_writes = sim->arrayWrites(h.mem);
        seen_faults = faults ? faults->records().size() : 0;
        if (r.flag()) {
            Divergence d;
            d.retirement = r.u64();
            d.cycle = r.u64();
            d.pc = r.u64();
            d.kind = r.str(256);
            uint32_t n = r.u32();
            if (n > 4096)
                fatal("checkpoint: grader divergence claims ", n,
                      " deltas (cap 4096)");
            for (uint32_t i = 0; i < n; ++i) {
                StateDelta delta;
                delta.kind = r.str(256);
                delta.index = r.u64();
                delta.expected = r.u64();
                delta.actual = r.u64();
                d.deltas.push_back(delta);
            }
            div = std::move(d);
        } else {
            div.reset();
        }
        r.expectEnd();
    }
};

/** Post-run whole-state diff for runs that never visibly diverged. */
void
finalStateCheck(Lockstep &ls, Verdict &v)
{
    std::vector<StateDelta> deltas;
    if (ls.retirement != ls.gold->retired)
        deltas.push_back({"retired", 0, ls.gold->retired, ls.retirement});
    if (ls.store_cursor != ls.gold->stores.size()) {
        const auto &missing = ls.gold->stores[ls.store_cursor];
        deltas.push_back({"mem", uint64_t(missing.word) * 4, missing.value,
                          ls.sim->readArray(ls.h.mem, missing.word)});
    }
    for (unsigned i = 0; i < 32 && deltas.size() < ls.max_deltas; ++i) {
        uint64_t dut = ls.sim->readArray(ls.h.rf, i);
        if (dut != ls.gold->regs[i])
            deltas.push_back({"reg", i, ls.gold->regs[i], dut});
    }
    for (size_t w = 0; w < ls.gold->memory.size() &&
                       deltas.size() < ls.max_deltas;
         ++w) {
        uint64_t dut = ls.sim->readArray(ls.h.mem, w);
        if (dut != ls.gold->memory[w])
            deltas.push_back({"mem", uint64_t(w) * 4, ls.gold->memory[w],
                              dut});
    }
    if (deltas.empty())
        return;
    if (deltas.size() > ls.max_deltas)
        deltas.resize(ls.max_deltas);
    Divergence d;
    d.retirement = ls.retirement;
    d.cycle = ls.sim->cycle();
    d.pc = ls.iss.pc();
    d.kind = "final-state";
    d.deltas = std::move(deltas);
    v.divergence = std::move(d);
    v.status = GradeStatus::kDiverged;
}

/** The engine-generic grade: attach, run, classify. */
Verdict
runGrade(const CorpusProgram &prog, Core core, sim::Engine &sim,
         const System &sys, const Handles &h, const GoldenTrace &gold,
         const std::vector<uint32_t> &image, const GradeOptions &opts)
{
    Verdict v;
    v.program = prog.name;
    v.core = core;
    v.golden_retired = gold.retired;

    Lockstep ls(&sim, h, &gold, image, opts.max_deltas);
    sim.addPostCycleHook([&ls](uint64_t cycle) { ls.onCycle(cycle); });

    std::optional<sim::FaultInjector> inj;
    if (opts.fault) {
        inj.emplace(sys, *opts.fault);
        inj->attach(sim);
        ls.faults = &*inj;
    }

    if (!opts.resume_from.empty()) {
        sim::Snapshot snap = sim::loadCheckpoint(opts.resume_from);
        sim.restore(snap);
        ls.restoreFrom(snap);
    }
    const bool periodic = opts.ckpt_every > 0 && !opts.ckpt_path.empty();
    sim::RunResult result = sim::runSliced(
        sim, prog.max_cycles, periodic ? opts.ckpt_every : 0, [&] {
            sim::Snapshot snap = sim.snapshot();
            ls.saveTo(snap);
            sim::saveCheckpoint(snap, opts.ckpt_path);
        });
    v.retirements = ls.retirement;
    v.cycles = sim.cycle();
    v.ipc = v.cycles ? double(v.retirements) / double(v.cycles) : 0.0;

    if (ls.div) {
        v.status = GradeStatus::kDiverged;
        v.divergence = std::move(ls.div);
        return v;
    }
    switch (result.status) {
      case sim::RunStatus::kFault:
        v.status = GradeStatus::kFault;
        v.error = result.error;
        return v;
      case sim::RunStatus::kDeadlock:
      case sim::RunStatus::kLivelock:
        v.status = GradeStatus::kHazard;
        v.error = result.hazard.toString();
        return v;
      case sim::RunStatus::kMaxCycles:
        v.status = GradeStatus::kTimeout;
        v.error = "cycle budget elapsed before ECALL";
        return v;
      case sim::RunStatus::kFinished:
        break;
    }
    finalStateCheck(ls, v);
    return v;
}

/**
 * One core elaborated over a blank image, shared read-only by every job
 * of a gradeCorpus call on that (core, mem_words): the engines read an
 * array's init values only when they construct their run state, so a
 * job's program image is loaded afterwards, before cycle 0.
 */
struct SharedCore {
    Core core = Core::kInOrder;
    uint32_t mem_words = 0;
    std::unique_ptr<System> sys;
    Handles h;
    std::shared_ptr<const sim::Program> program; ///< for event jobs
    std::optional<rtl::Netlist> netlist;         ///< for netlist jobs
    double seconds = 0.0; ///< build + compile + netlist wall-clock
};

/** Elaborate @p sc's core and build the artifacts of the given engines. */
void
buildCore(SharedCore &sc, bool event, bool netlist)
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<uint32_t> blank(sc.mem_words, 0);
    if (sc.core == Core::kInOrder) {
        auto d = designs::buildCpu(designs::BranchPolicy::kTaken, blank);
        sc.h = {d.mem, d.rf, d.retired, d.ret_pc};
        sc.sys = std::move(d.sys);
    } else {
        auto d = designs::buildOoo(blank);
        sc.h = {d.mem, d.rf, d.retired, d.ret_pc};
        sc.sys = std::move(d.sys);
    }
    if (event)
        sc.program = sim::Program::compile(*sc.sys);
    if (netlist)
        sc.netlist.emplace(*sc.sys);
    sc.seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
}

/** Grade @p prog on a fresh engine over @p sc, loaded with its image. */
Verdict
gradeOn(const CorpusProgram &prog, const SharedCore &sc, Engine engine,
        const GradeOptions &opts)
{
    std::vector<uint32_t> image = prog.image();
    GoldenTrace gold = goldenRun(prog, image);

    sim::SimOptions so;
    so.capture_logs = false;
    so.shuffle = opts.shuffle;
    so.shuffle_seed = opts.shuffle_seed;
    so.timeline_path = opts.timeline_path;
    std::unique_ptr<sim::Engine> sim;
    if (engine == Engine::kEvent)
        sim = std::make_unique<sim::Simulator>(sc.program, so);
    else
        sim = std::make_unique<rtl::NetlistSim>(*sc.netlist, so);
    for (size_t w = 0; w < image.size(); ++w)
        sim->writeArray(sc.h.mem, w, image[w]);
    return runGrade(prog, sc.core, *sim, *sc.sys, sc.h, gold, image, opts);
}

void
writeVerdict(JsonWriter &w, const Verdict &v)
{
    w.beginObject();
    w.key("program");
    w.value(v.program);
    w.key("core");
    w.value(coreName(v.core));
    w.key("status");
    w.value(gradeStatusName(v.status));
    w.key("retirements");
    w.value(v.retirements);
    w.key("golden_retired");
    w.value(v.golden_retired);
    w.key("cycles");
    w.value(v.cycles);
    w.key("ipc");
    w.value(v.ipc);
    w.key("error");
    w.value(v.error);
    if (v.divergence) {
        const Divergence &d = *v.divergence;
        w.key("divergence");
        w.beginObject();
        w.key("retirement");
        w.value(d.retirement);
        w.key("cycle");
        w.value(d.cycle);
        w.key("pc");
        w.value(d.pc);
        w.key("kind");
        w.value(d.kind);
        w.key("deltas");
        w.beginArray();
        for (const StateDelta &delta : d.deltas) {
            w.beginObject();
            w.key("kind");
            w.value(delta.kind);
            w.key("index");
            w.value(delta.index);
            w.key("expected");
            w.value(delta.expected);
            w.key("actual");
            w.value(delta.actual);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

} // namespace

Verdict
gradeProgram(const CorpusProgram &program, Core core, Engine engine,
             const GradeOptions &opts)
{
    return gradeCorpus({program}, {core}, {engine}, opts).runs[0].verdict;
}

std::string
Verdict::toJson() const
{
    JsonWriter w;
    writeVerdict(w, *this);
    return w.str();
}

std::string
reproCommand(const CorpusProgram &program, Core core, Engine engine,
             const GradeOptions &opts, const Verdict &verdict)
{
    sim::ReproSpec spec;
    if (program.path.empty() &&
        program.name.rfind("fuzz-", 0) == 0) {
        spec.is_fuzz = true;
        spec.fuzz_seed =
            std::strtoull(program.name.c_str() + 5, nullptr, 10);
    } else {
        spec.program = program.name;
        size_t slash = program.path.rfind('/');
        if (slash != std::string::npos)
            spec.corpus_dir = program.path.substr(0, slash);
    }
    spec.core = coreName(core);
    spec.engine = engineName(engine);
    spec.shuffle = opts.shuffle;
    spec.shuffle_seed = opts.shuffle_seed;
    spec.fault = opts.fault;
    spec.ckpt = opts.resume_from;
    spec.max_cycles = program.max_cycles;
    spec.until = verdict.divergence ? verdict.divergence->cycle
                                    : verdict.cycles;
    return spec.toCommand();
}

bool
GradeReport::allPass() const
{
    for (const GradeRun &run : runs)
        if (!run.verdict.pass())
            return false;
    return !runs.empty();
}

std::string
GradeReport::toJson(const std::string &corpus) const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("assassyn.grade.v1");
    w.key("corpus");
    w.value(corpus);
    w.key("grades");
    w.value(uint64_t(runs.size()));
    w.key("pass");
    w.value(allPass());
    w.key("setup_seconds");
    w.value(setup_seconds);
    w.key("runs");
    w.beginArray();
    for (const GradeRun &run : runs) {
        w.beginObject();
        w.key("engine");
        w.value(engineName(run.engine));
        w.key("seconds");
        w.value(run.seconds);
        if (!run.repro.empty()) {
            w.key("repro");
            w.value(run.repro);
        }
        w.key("verdict");
        writeVerdict(w, run.verdict);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
GradeReport::write(const std::string &path, const std::string &corpus) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out.good())
        fatal("grade report: cannot open '", path, "' for writing");
    out << toJson(corpus) << "\n";
}

GradeReport
gradeCorpus(const std::vector<CorpusProgram> &programs,
            const std::vector<Core> &cores,
            const std::vector<Engine> &engines, const GradeOptions &opts,
            size_t workers)
{
    std::vector<std::unique_ptr<SharedCore>> shared;
    auto sharedCore = [&](Core core, uint32_t mem_words) {
        for (const auto &sc : shared)
            if (sc->core == core && sc->mem_words == mem_words)
                return sc.get();
        shared.push_back(std::make_unique<SharedCore>());
        shared.back()->core = core;
        shared.back()->mem_words = mem_words;
        return shared.back().get();
    };
    struct Job {
        const CorpusProgram *program;
        const SharedCore *core;
        Engine engine;
    };
    std::vector<Job> jobs;
    for (const CorpusProgram &prog : programs)
        for (Core core : cores) {
            const SharedCore *sc = sharedCore(core, prog.mem_words);
            for (Engine engine : engines)
                jobs.push_back({&prog, sc, engine});
        }

    auto wants = [&](Engine e) {
        return std::find(engines.begin(), engines.end(), e) != engines.end();
    };
    bool event = wants(Engine::kEvent), netlist = wants(Engine::kNetlist);
    sim::parallelFor(
        shared.size(),
        [&](size_t i) { buildCore(*shared[i], event, netlist); }, workers);

    GradeReport report;
    for (const auto &sc : shared)
        report.setup_seconds += sc->seconds;
    report.runs.resize(jobs.size());
    sim::parallelFor(
        jobs.size(),
        [&](size_t i) {
            const Job &job = jobs[i];
            auto t0 = std::chrono::steady_clock::now();
            GradeRun run;
            run.engine = job.engine;
            run.verdict = gradeOn(*job.program, *job.core, job.engine, opts);
            run.seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            if (!run.verdict.pass())
                run.repro = reproCommand(*job.program, job.core->core,
                                         job.engine, opts, run.verdict);
            report.runs[i] = std::move(run);
        },
        workers);
    return report;
}

} // namespace grader
} // namespace assassyn
