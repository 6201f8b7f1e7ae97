/**
 * @file
 * The RISC-V workload corpus behind the differential grader
 * (docs/grading.md).
 *
 * A corpus is a directory of `*.s` assembly files in the subset of
 * isa/riscv.h, each optionally carrying `#:` header directives that
 * size the machine and budget the run:
 *
 *     #: mem 512            # unified memory size in words (default 256)
 *     #: max-cycles 400000  # per-engine cycle budget (default 2000000)
 *
 * Plain `#` comments remain ordinary assembly comments. Discovery is
 * deterministic (names sorted), and every discovery failure — missing
 * directory, directory with no .s files, an unparseable listing — is a
 * structured fatal() naming the offending path, never a silent skip:
 * a corpus test that quietly graded nothing would defeat the whole
 * harness.
 *
 * The corpus also grows without files: seeded random instruction
 * streams (support/rng.h) in the style of tests/fuzz_cpu_test.cc,
 * always-terminating by construction, extend scenario coverage to the
 * fuzz tier (200 seeds in tests/grader_fuzz_test.cc).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace assassyn {
namespace grader {

/** One program of the corpus, ready to assemble. */
struct CorpusProgram {
    std::string name;   ///< file stem, or "fuzz-<seed>" for generated
    std::string path;   ///< source file, empty for generated programs
    std::string source; ///< assembly listing (code at address 0)
    uint32_t mem_words = 256;       ///< unified memory size in words
    uint64_t max_cycles = 2'000'000; ///< per-engine cycle budget

    /**
     * Assemble the listing and zero-extend it to mem_words. fatal()s
     * with the program name when the code does not fit the memory or
     * the assembler rejects a line.
     */
    std::vector<uint32_t> image() const;
};

/**
 * Load every `*.s` file under @p dir, sorted by name. fatal()s when the
 * directory does not exist, contains no .s files, or a file cannot be
 * read — discovery errors are loud by design.
 */
std::vector<CorpusProgram> loadCorpusDir(const std::string &dir);

/**
 * Shell-style glob match (`*` any run, `?` any one char) used by the
 * grade_corpus CLI's --filter flag.
 */
bool globMatch(const std::string &pattern, const std::string &name);

/** The programs of @p all whose name matches @p pattern. */
std::vector<CorpusProgram> filterCorpus(const std::vector<CorpusProgram> &all,
                                        const std::string &pattern);

/**
 * A seeded random RV32I-subset program: straight-line arithmetic,
 * forward branches and jumps, loads/stores to a 16-word scratch area
 * at the top of its 256-word image (byte 0x3C0: above the code for any
 * body_len up to 56), and one bounded backward loop, so termination is
 * guaranteed by construction.
 * Deterministic in (seed, body_len).
 */
CorpusProgram fuzzProgram(uint64_t seed, int body_len = 24);

} // namespace grader
} // namespace assassyn
