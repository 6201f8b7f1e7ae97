/**
 * @file
 * The differential-grader CLI (docs/grading.md): grade a corpus of
 * RISC-V programs on the DSL CPUs, on either or both execution
 * backends, against the golden-model ISS.
 *
 *     grade_corpus                         # whole corpus, all four DUTs
 *     grade_corpus --list                  # show what would run
 *     grade_corpus --filter 'haz*'         # glob over program names
 *     grade_corpus --core ooo --engine netlist
 *     grade_corpus --fuzz 50 --seed 1      # seeded streams, no files
 *     grade_corpus --json grade.json       # assassyn.grade.v1 report
 *     grade_corpus --filter fib --core ooo --engine event \
 *         --trace fib.trace.json           # Perfetto repro of one run
 *
 * Exit status: 0 when every grade passes, 1 on any divergence or
 * failed run, 2 on usage errors. Corpus discovery problems (missing
 * directory, no .s files, unparseable listing) are structured fatals.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "grader/corpus.h"
#include "grader/grader.h"
#include "support/logging.h"

using namespace assassyn;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --corpus <dir>     corpus directory (default: "
                 "tests/corpus of the source tree)\n"
                 "  --list             list selected programs, grade "
                 "nothing\n"
                 "  --filter <glob>    keep programs matching the glob "
                 "(* and ?)\n"
                 "  --core <c>         inorder | ooo | both (default "
                 "both)\n"
                 "  --engine <e>       event | netlist | both (default "
                 "both)\n"
                 "  --fuzz <n>         grade n seeded random programs "
                 "instead of the corpus\n"
                 "  --seed <s>         first fuzz seed (default 1)\n"
                 "  --max-cycles <n>   override every program's cycle "
                 "budget\n"
                 "  --workers <n>      grading threads (default: "
                 "hardware)\n"
                 "  --json <path>      write the assassyn.grade.v1 "
                 "report\n"
                 "  --trace <path>     Perfetto timeline; requires a "
                 "single-run selection\n"
                 "  --ckpt-every <n>   checkpoint every n cycles; "
                 "requires a single-run selection\n"
                 "  --ckpt <path>      checkpoint manifest path "
                 "(default: <prog>.<core>.<engine>.ckpt.json)\n"
                 "  --resume <path>    resume a grade from a checkpoint "
                 "manifest; requires a single-run selection\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string corpus_dir = std::string(ASSASSYN_SOURCE_DIR) +
                             "/tests/corpus";
    std::string filter, json_path, trace_path;
    std::string ckpt_path, resume_path;
    bool list_only = false;
    std::string core_sel = "both", engine_sel = "both";
    uint64_t fuzz_count = 0, fuzz_seed = 1, max_cycles = 0;
    uint64_t ckpt_every = 0;
    size_t workers = std::thread::hardware_concurrency();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--corpus") {
            corpus_dir = next("--corpus");
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--filter") {
            filter = next("--filter");
        } else if (arg == "--core") {
            core_sel = next("--core");
        } else if (arg == "--engine") {
            engine_sel = next("--engine");
        } else if (arg == "--fuzz") {
            fuzz_count = std::strtoull(next("--fuzz"), nullptr, 0);
        } else if (arg == "--seed") {
            fuzz_seed = std::strtoull(next("--seed"), nullptr, 0);
        } else if (arg == "--max-cycles") {
            max_cycles = std::strtoull(next("--max-cycles"), nullptr, 0);
        } else if (arg == "--workers") {
            workers = std::strtoull(next("--workers"), nullptr, 0);
        } else if (arg == "--json") {
            json_path = next("--json");
        } else if (arg == "--trace") {
            trace_path = next("--trace");
        } else if (arg == "--ckpt-every") {
            ckpt_every = std::strtoull(next("--ckpt-every"), nullptr, 0);
        } else if (arg == "--ckpt") {
            ckpt_path = next("--ckpt");
        } else if (arg == "--resume") {
            resume_path = next("--resume");
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    std::vector<grader::Core> cores;
    if (core_sel == "inorder" || core_sel == "both")
        cores.push_back(grader::Core::kInOrder);
    if (core_sel == "ooo" || core_sel == "both")
        cores.push_back(grader::Core::kOoO);
    if (cores.empty()) {
        std::fprintf(stderr, "%s: bad --core '%s'\n", argv[0],
                     core_sel.c_str());
        return usage(argv[0]);
    }
    std::vector<grader::Engine> engines;
    if (engine_sel == "event" || engine_sel == "both")
        engines.push_back(grader::Engine::kEvent);
    if (engine_sel == "netlist" || engine_sel == "both")
        engines.push_back(grader::Engine::kNetlist);
    if (engines.empty()) {
        std::fprintf(stderr, "%s: bad --engine '%s'\n", argv[0],
                     engine_sel.c_str());
        return usage(argv[0]);
    }

    try {
        std::vector<grader::CorpusProgram> programs;
        std::string corpus_name;
        if (fuzz_count) {
            for (uint64_t s = 0; s < fuzz_count; ++s)
                programs.push_back(grader::fuzzProgram(fuzz_seed + s));
            corpus_name = "fuzz[" + std::to_string(fuzz_seed) + ".." +
                          std::to_string(fuzz_seed + fuzz_count - 1) + "]";
        } else {
            programs = grader::loadCorpusDir(corpus_dir);
            corpus_name = corpus_dir;
        }
        if (!filter.empty()) {
            programs = grader::filterCorpus(programs, filter);
            if (programs.empty())
                fatal("--filter '", filter, "' matches no program");
        }
        if (max_cycles)
            for (auto &prog : programs)
                prog.max_cycles = max_cycles;

        if (list_only) {
            for (const auto &prog : programs)
                std::printf("%-16s mem=%u max-cycles=%llu%s\n",
                            prog.name.c_str(), prog.mem_words,
                            (unsigned long long)prog.max_cycles,
                            prog.path.empty() ? " (generated)" : "");
            return 0;
        }

        grader::GradeOptions opts;
        if (!trace_path.empty()) {
            if (programs.size() * cores.size() * engines.size() != 1)
                fatal("--trace records one run: narrow the selection "
                      "with --filter/--core/--engine to a single "
                      "(program, core, engine)");
            opts.timeline_path = trace_path;
        }
        if (ckpt_every || !resume_path.empty()) {
            if (programs.size() * cores.size() * engines.size() != 1)
                fatal("--ckpt-every/--resume apply to one run: narrow "
                      "the selection with --filter/--core/--engine to "
                      "a single (program, core, engine)");
            opts.ckpt_every = ckpt_every;
            opts.resume_from = resume_path;
            if (ckpt_every) {
                opts.ckpt_path =
                    ckpt_path.empty()
                        ? programs[0].name + "." +
                              grader::coreName(cores[0]) + "." +
                              grader::engineName(engines[0]) +
                              ".ckpt.json"
                        : ckpt_path;
                std::printf("checkpointing every %llu cycles to %s\n",
                            (unsigned long long)ckpt_every,
                            opts.ckpt_path.c_str());
            }
        }

        grader::GradeReport report = grader::gradeCorpus(
            programs, cores, engines, opts, workers);

        for (const grader::GradeRun &run : report.runs) {
            const grader::Verdict &v = run.verdict;
            std::printf("%-16s %-7s %-7s %-8s retired=%llu cycles=%llu "
                        "ipc=%.3f\n",
                        v.program.c_str(), grader::coreName(v.core),
                        grader::engineName(run.engine),
                        grader::gradeStatusName(v.status),
                        (unsigned long long)v.retirements,
                        (unsigned long long)v.cycles, v.ipc);
            if (v.divergence) {
                const grader::Divergence &d = *v.divergence;
                std::printf("    first divergence: retirement %llu, "
                            "cycle %llu, pc 0x%llx, kind %s\n",
                            (unsigned long long)d.retirement,
                            (unsigned long long)d.cycle,
                            (unsigned long long)d.pc, d.kind.c_str());
                for (const grader::StateDelta &delta : d.deltas)
                    std::printf("      %s[%llu]: expected 0x%llx, got "
                                "0x%llx\n",
                                delta.kind.c_str(),
                                (unsigned long long)delta.index,
                                (unsigned long long)delta.expected,
                                (unsigned long long)delta.actual);
            } else if (!v.error.empty()) {
                std::printf("    %s\n", v.error.c_str());
            }
            // A failed grade prints its one-command time-travel repro
            // (docs/debugging.md): paste it to land a deterministic
            // replay session at the frozen failure cycle.
            if (!run.repro.empty())
                std::fprintf(stderr, "    repro: %s\n",
                             run.repro.c_str());
        }
        if (!json_path.empty())
            report.write(json_path, corpus_name);

        // The shared core builds are timed once per call, apart from
        // the grades that reuse them.
        std::printf("%zu grades, %s; core set-up %.3f s\n",
                    report.runs.size(),
                    report.allPass() ? "all pass" : "FAILURES",
                    report.setup_seconds);
        return report.allPass() ? 0 : 1;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s: %s\n", argv[0], err.what());
        return 2;
    }
}
