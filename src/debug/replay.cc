#include "debug/replay.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "debug/session.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "grader/corpus.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/simulator.h"
#include "support/logging.h"

namespace assassyn {
namespace debug {

namespace {

uint64_t
parseU64(const std::string &text, const std::string &flag)
{
    char *end = nullptr;
    uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end != text.c_str() + text.size())
        fatal("usage: ", flag, " expects a number, got '", text, "'");
    return v;
}

/** Split a command line on whitespace. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** The mutable fault spec, created on the first --fault-* flag. */
sim::FaultSpec &
faultOf(ReplayPlan &plan)
{
    if (!plan.fault)
        plan.fault = sim::FaultSpec{};
    return *plan.fault;
}

void
printStop(std::ostream &out, const Stop &stop)
{
    out << "stopped at cycle " << stop.cycle << ": " << stop.what
        << " [" << stopKindName(stop.kind) << "]\n";
}

/** Everything a live session needs kept alive, in destruction order. */
struct LiveSession {
    grader::CorpusProgram program;
    designs::CpuDesign cpu;
    designs::OooDesign ooo;
    const System *sys = nullptr;
    std::optional<rtl::Netlist> netlist;
    std::unique_ptr<sim::Engine> engine;
    std::optional<sim::FaultInjector> inj;
    std::unique_ptr<DebugSession> session;
};

/**
 * Rebuild the workload and engine exactly as the grader does (same
 * corpus loader / fuzz generator / design builders / engine options),
 * so a pasted repro command re-enters the failing trajectory.
 */
void
setup(const ReplayPlan &plan, LiveSession &live)
{
    if (plan.is_fuzz) {
        live.program = grader::fuzzProgram(plan.fuzz_seed);
    } else if (!plan.program.empty()) {
        if (plan.corpus_dir.empty())
            fatal("usage: --program needs --corpus <dir>");
        bool found = false;
        for (grader::CorpusProgram &p :
             grader::loadCorpusDir(plan.corpus_dir)) {
            if (p.name == plan.program) {
                live.program = std::move(p);
                found = true;
                break;
            }
        }
        if (!found)
            fatal("replay: corpus '", plan.corpus_dir,
                  "' has no program named '", plan.program, "'");
    } else {
        // --design only (the sweep-repro shape): a small deterministic
        // built-in workload, so the design can be driven stand-alone.
        live.program = grader::fuzzProgram(1);
        live.program.name = "design-default";
    }

    std::string core = plan.core;
    if (core.empty())
        core = plan.design == "ooo" ? "ooo" : "inorder";
    std::vector<uint32_t> image = live.program.image();
    if (core == "inorder") {
        live.cpu =
            designs::buildCpu(designs::BranchPolicy::kTaken, image);
        live.sys = live.cpu.sys.get();
    } else if (core == "ooo") {
        live.ooo = designs::buildOoo(image);
        live.sys = live.ooo.sys.get();
    } else {
        fatal("usage: --core expects inorder | ooo, got '", core, "'");
    }

    sim::SimOptions so;
    so.shuffle = plan.shuffle;
    so.shuffle_seed = plan.shuffle_seed;
    if (plan.engine == "event") {
        live.engine = std::make_unique<sim::Simulator>(*live.sys, so);
    } else if (plan.engine == "netlist") {
        live.netlist.emplace(*live.sys);
        live.engine = std::make_unique<rtl::NetlistSim>(*live.netlist, so);
    } else {
        fatal("usage: --engine expects event | netlist, got '",
              plan.engine, "'");
    }

    if (plan.fault) {
        live.inj.emplace(*live.sys, *plan.fault);
        live.inj->attach(*live.engine);
    }

    // Restore any starting checkpoint *before* the session exists:
    // the session's base keyframe — the reverse floor — is taken at
    // construction.
    if (!plan.ckpt.empty())
        live.engine->restore(sim::loadCheckpoint(plan.ckpt));

    DebugOptions dopts;
    dopts.keyframe_every = plan.keyframe_every;
    dopts.keyframe_ring = size_t(plan.keyframe_ring);
    live.session =
        std::make_unique<DebugSession>(*live.engine, *live.sys, dopts);
    if (live.inj)
        live.session->watchFaults(&*live.inj);
}

void
printHelp(std::ostream &out)
{
    out << "commands:\n"
           "  step [n]          run n cycles (default 1)\n"
           "  rstep [n]         step backward n cycles (default 1)\n"
           "  run <cycle>       run forward to the cycle\n"
           "  reverse <cycle>   land at an earlier cycle\n"
           "  cont [n]          run on (n or the remaining budget)\n"
           "  print <mod.val>   committed value of an IR node\n"
           "  fifo <mod.port>   live FIFO contents, head first\n"
           "  array <name> [lo [n]]  register-array slice\n"
           "  bt [n]            last n recorded stall reasons\n"
           "  break <spec> | watch <spec>   add a break/watchpoint\n"
           "  hits [n]          last n break/watch hit records\n"
           "  info              session state and breakpoints\n"
           "  quit              end the session\n";
}

/** Dispatch one command; FatalErrors are caught by the caller. */
bool // false = quit
command(DebugSession &s, const ReplayPlan &plan,
        const std::vector<std::string> &argv, std::ostream &out)
{
    const std::string &cmd = argv[0];
    auto arg = [&](size_t i, uint64_t dflt) {
        return argv.size() > i ? parseU64(argv[i], cmd) : dflt;
    };
    auto need = [&](size_t i) -> const std::string & {
        if (argv.size() <= i)
            fatal(cmd, ": missing operand");
        return argv[i];
    };
    if (cmd == "quit" || cmd == "q" || cmd == "exit")
        return false;
    if (cmd == "help") {
        printHelp(out);
    } else if (cmd == "step" || cmd == "s") {
        printStop(out, s.stepCycles(arg(1, 1)));
    } else if (cmd == "rstep") {
        printStop(out, s.reverseStep(arg(1, 1)));
    } else if (cmd == "run") {
        printStop(out, s.runTo(parseU64(need(1), cmd)));
    } else if (cmd == "reverse") {
        printStop(out, s.reverseTo(parseU64(need(1), cmd)));
    } else if (cmd == "cont") {
        uint64_t n = arg(1, 0);
        if (!n)
            n = plan.max_cycles > s.cycle()
                    ? plan.max_cycles - s.cycle()
                    : 1'000'000;
        printStop(out, s.stepCycles(n));
    } else if (cmd == "print" || cmd == "p") {
        out << need(1) << " = " << s.read(argv[1]) << "\n";
    } else if (cmd == "fifo") {
        std::vector<uint64_t> v = s.fifoContents(need(1));
        out << argv[1] << " (" << v.size() << " deep):";
        for (uint64_t x : v)
            out << " " << x;
        out << "\n";
    } else if (cmd == "array") {
        const std::string &name = need(1);
        size_t lo = size_t(arg(2, 0));
        size_t n = size_t(arg(3, 8));
        std::vector<uint64_t> v = s.arraySlice(name, lo, n);
        out << name << "[" << lo << ".." << lo + v.size() << "):";
        for (uint64_t x : v)
            out << " " << x;
        out << "\n";
    } else if (cmd == "bt") {
        std::vector<StallRecord> st = s.stallReasons(size_t(arg(1, 8)));
        if (st.empty())
            out << "no recorded stalls\n";
        for (const StallRecord &r : st)
            out << "  cycle " << r.cycle << ": " << r.stage << " — "
                << r.reason << "\n";
    } else if (cmd == "break" || cmd == "watch") {
        // Re-join the operands: value specs like "mod.value == 3" may
        // arrive split.
        std::string spec;
        for (size_t i = 1; i < argv.size(); ++i)
            spec += (i > 1 ? " " : "") + argv[i];
        if (spec.empty())
            fatal(cmd, ": missing spec");
        int idx = cmd == "break" ? s.addBreak(spec) : s.addWatch(spec);
        out << cmd << "point " << idx << ": " << spec << "\n";
    } else if (cmd == "hits") {
        const std::vector<HitRecord> &all = s.hits();
        size_t n = size_t(arg(1, 10));
        size_t from = all.size() > n ? all.size() - n : 0;
        if (all.empty())
            out << "no hits recorded\n";
        for (size_t i = from; i < all.size(); ++i)
            out << "  cycle " << all[i].cycle << ": " << all[i].spec
                << (all[i].detail.empty() ? "" : "  (" + all[i].detail +
                                                     ")")
                << "\n";
    } else if (cmd == "info") {
        out << "cycle " << s.cycle() << " on " << s.engine()
            << (s.finished() ? " (finished)" : "") << ", keyframes "
            << s.keyframesTaken() << " taken / "
            << s.keyframesRestored() << " restored, "
            << s.cyclesReexecuted() << " cycles re-executed\n";
        const std::vector<Breakpoint> &bps = s.breakpoints();
        for (size_t i = 0; i < bps.size(); ++i)
            out << "  [" << i << "] "
                << (bps[i].stops ? "break " : "watch ") << bps[i].spec
                << (bps[i].enabled ? "" : " (disabled)") << " — "
                << bps[i].hits << " hits\n";
    } else {
        fatal("unknown command '", cmd, "' (try help)");
    }
    return true;
}

} // namespace

ReplayPlan
parseReplayArgs(const std::vector<std::string> &args)
{
    ReplayPlan plan;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                fatal("usage: ", arg, " needs a value");
            return args[++i];
        };
        if (arg == "--program") {
            plan.program = next();
        } else if (arg == "--corpus") {
            plan.corpus_dir = next();
        } else if (arg == "--fuzz-seed") {
            plan.is_fuzz = true;
            plan.fuzz_seed = parseU64(next(), arg);
        } else if (arg == "--design") {
            plan.design = next();
            if (plan.design == "cpu")
                plan.design = "inorder";
        } else if (arg == "--core") {
            plan.core = next();
        } else if (arg == "--engine") {
            plan.engine = next();
        } else if (arg == "--shuffle-seed") {
            plan.shuffle = true;
            plan.shuffle_seed = parseU64(next(), arg);
        } else if (arg == "--fault-seed") {
            faultOf(plan).seed = parseU64(next(), arg);
        } else if (arg == "--fault-count") {
            faultOf(plan).count = parseU64(next(), arg);
        } else if (arg == "--fault-first") {
            faultOf(plan).first_cycle = parseU64(next(), arg);
        } else if (arg == "--fault-last") {
            faultOf(plan).last_cycle = parseU64(next(), arg);
        } else if (arg == "--fault-no-arrays") {
            faultOf(plan).arrays = false;
        } else if (arg == "--fault-no-fifos") {
            faultOf(plan).fifos = false;
        } else if (arg == "--fault-memories") {
            faultOf(plan).include_memories = true;
        } else if (arg == "--ckpt") {
            plan.ckpt = next();
        } else if (arg == "--until") {
            plan.until = parseU64(next(), arg);
        } else if (arg == "--max-cycles") {
            plan.max_cycles = parseU64(next(), arg);
        } else if (arg == "--break") {
            plan.breaks.push_back(next());
        } else if (arg == "--watch") {
            plan.watches.push_back(next());
        } else if (arg == "--keyframe-every") {
            plan.keyframe_every = parseU64(next(), arg);
        } else if (arg == "--keyframe-ring") {
            plan.keyframe_ring = parseU64(next(), arg);
        } else if (arg == "--script") {
            plan.script = next();
        } else if (arg == "--json") {
            plan.json_path = next();
        } else {
            fatal("usage: unknown flag '", arg, "'");
        }
    }
    int workloads = int(plan.is_fuzz) + int(!plan.program.empty()) +
                    int(!plan.design.empty());
    if (workloads > 1)
        fatal("usage: --program, --fuzz-seed, and --design are "
              "mutually exclusive");
    if (workloads == 0)
        fatal("usage: pick a workload: --program <name> --corpus <dir>, "
              "--fuzz-seed <n>, or --design <cpu|ooo>");
    return plan;
}

int
replayMain(const std::vector<std::string> &args, std::istream &in,
           std::ostream &out, std::ostream &err)
{
    ReplayPlan plan;
    try {
        plan = parseReplayArgs(args);
    } catch (const FatalError &e) {
        err << "replay: " << e.what() << "\n";
        return 2;
    }

    LiveSession live;
    std::ifstream script;
    try {
        setup(plan, live);
        if (!plan.script.empty()) {
            script.open(plan.script);
            if (!script.good())
                fatal("replay: cannot open script '", plan.script, "'");
        }
        DebugSession &s = *live.session;
        for (const std::string &spec : plan.breaks)
            out << "breakpoint " << s.addBreak(spec) << ": " << spec
                << "\n";
        for (const std::string &spec : plan.watches)
            out << "watchpoint " << s.addWatch(spec) << ": " << spec
                << "\n";
        out << "replaying " << live.program.name << " (core "
            << (plan.core.empty()
                    ? (plan.design == "ooo" ? "ooo" : "inorder")
                    : plan.core)
            << ", engine " << plan.engine << ") at cycle " << s.cycle()
            << "\n";
        if (plan.until)
            printStop(out, s.runTo(plan.until));
    } catch (const FatalError &e) {
        err << "replay: " << e.what() << "\n";
        return std::string(e.what()).rfind("usage:", 0) == 0 ? 2 : 1;
    }

    std::istream &cmds = plan.script.empty() ? in : script;
    bool interactive = plan.script.empty();
    std::string line;
    for (;;) {
        if (interactive)
            out << "(replay) " << std::flush;
        if (!std::getline(cmds, line))
            break;
        std::vector<std::string> argv = tokens(line);
        if (argv.empty() || argv[0][0] == '#')
            continue;
        if (!interactive)
            out << "(replay) " << line << "\n";
        try {
            if (!command(*live.session, plan, argv, out))
                break;
        } catch (const FatalError &e) {
            out << "error: " << e.what() << "\n";
        }
    }

    if (!plan.json_path.empty()) {
        try {
            live.session->writeSummary(plan.json_path);
        } catch (const FatalError &e) {
            err << "replay: " << e.what() << "\n";
            return 1;
        }
    }
    return 0;
}

} // namespace debug
} // namespace assassyn
