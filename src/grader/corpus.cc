#include "grader/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "isa/riscv.h"
#include "support/logging.h"
#include "support/rng.h"

namespace assassyn {
namespace grader {

namespace fs = std::filesystem;

namespace {

/** Parse `#:` header directives out of one listing. */
void
applyDirectives(CorpusProgram &prog)
{
    std::istringstream in(prog.source);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        size_t at = line.find_first_not_of(" \t");
        if (at == std::string::npos)
            continue;
        if (line.compare(at, 2, "#:") != 0) {
            // Directives are a header: stop at the first real line so a
            // commented-out `#: ...` deep in the body stays inert.
            if (line[at] != '#')
                break;
            continue;
        }
        std::istringstream fields(line.substr(at + 2));
        std::string key;
        long long value = -1;
        fields >> key >> value;
        if (key == "mem" && value > 0) {
            prog.mem_words = uint32_t(value);
        } else if (key == "max-cycles" && value > 0) {
            prog.max_cycles = uint64_t(value);
        } else {
            fatal("corpus '", prog.name, "' line ", line_no,
                  ": bad directive '#:", line.substr(at + 2),
                  "' (known: mem <words>, max-cycles <n>)");
        }
    }
}

} // namespace

std::vector<uint32_t>
CorpusProgram::image() const
{
    std::vector<uint32_t> code;
    try {
        code = isa::assemble(source);
    } catch (const FatalError &err) {
        // Re-raise with the program named: a corpus failure must point
        // at its file, not at an anonymous listing.
        fatal("corpus '", name, "'",
              path.empty() ? "" : (" (" + path + ")"), ": ", err.what());
    }
    if (code.empty())
        fatal("corpus '", name, "': listing assembles to zero instructions");
    if (code.size() > mem_words)
        fatal("corpus '", name, "': ", code.size(),
              " code words exceed mem ", mem_words,
              " (raise the '#: mem' directive)");
    code.resize(mem_words, 0);
    return code;
}

std::vector<CorpusProgram>
loadCorpusDir(const std::string &dir)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        fatal("corpus directory '", dir, "' does not exist");

    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file() && entry.path().extension() == ".s")
            files.push_back(entry.path());
    }
    if (files.empty())
        fatal("corpus directory '", dir,
              "' contains no .s files — nothing to grade");
    std::sort(files.begin(), files.end());

    std::vector<CorpusProgram> out;
    out.reserve(files.size());
    for (const fs::path &file : files) {
        CorpusProgram prog;
        prog.name = file.stem().string();
        prog.path = file.string();
        std::ifstream in(file, std::ios::binary);
        if (!in.good())
            fatal("corpus file '", prog.path, "' cannot be read");
        std::ostringstream os;
        os << in.rdbuf();
        prog.source = os.str();
        if (prog.source.empty())
            fatal("corpus file '", prog.path, "' is empty");
        applyDirectives(prog);
        out.push_back(std::move(prog));
    }
    return out;
}

bool
globMatch(const std::string &pattern, const std::string &name)
{
    // Iterative glob with single-star backtracking.
    size_t p = 0, n = 0;
    size_t star = std::string::npos, mark = 0;
    while (n < name.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = n;
        } else if (star != std::string::npos) {
            p = star + 1;
            n = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::vector<CorpusProgram>
filterCorpus(const std::vector<CorpusProgram> &all,
             const std::string &pattern)
{
    std::vector<CorpusProgram> out;
    for (const CorpusProgram &prog : all)
        if (globMatch(pattern, prog.name))
            out.push_back(prog);
    return out;
}

CorpusProgram
fuzzProgram(uint64_t seed, int body_len)
{
    Rng rng(seed);
    std::ostringstream os;
    auto reg = [&](bool allow_x0 = true) {
        // x5..x15 minus s0 (x8, scratch base) and s1 (x9, loop counter).
        static const char *pool[] = {"x5", "x6", "x7", "x10", "x11",
                                     "x12", "x13", "x14", "x15"};
        if (allow_x0 && rng.below(8) == 0)
            return std::string("x0");
        return std::string(pool[rng.below(9)]);
    };

    os << "# fuzz seed " << seed << " (generated; never edit by hand)\n";
    // Scratch base (byte address): the top 16 words of the 256-word
    // image, above any body this generator emits. 0x3C0 still fits one
    // addi, so the code length does not depend on where scratch sits.
    os << "    li s0, 0x3C0\n";
    os << "    li s1, 3\n";     // bounded loop counter
    for (const char *r : {"x5", "x6", "x7", "x10", "x11", "x12", "x13",
                          "x14", "x15"})
        os << "    li " << r << ", " << int64_t(rng.below(4096)) - 2048
           << "\n";

    os << "outer:\n";
    for (int i = 0; i < body_len; ++i) {
        switch (rng.below(12)) {
          case 0:
          case 1: {
            static const char *ops[] = {"add", "sub", "and", "or", "xor",
                                        "sll", "srl", "sra", "slt",
                                        "sltu"};
            os << "    " << ops[rng.below(10)] << " " << reg(false) << ", "
               << reg() << ", " << reg() << "\n";
            break;
          }
          case 2: {
            static const char *ops[] = {"addi", "andi", "ori", "xori",
                                        "slti", "sltiu"};
            os << "    " << ops[rng.below(6)] << " " << reg(false) << ", "
               << reg() << ", " << int64_t(rng.below(4096)) - 2048 << "\n";
            break;
          }
          case 3:
            os << "    " << (rng.below(2) ? "slli" : "srai") << " "
               << reg(false) << ", " << reg() << ", " << rng.below(32)
               << "\n";
            break;
          case 4:
            os << "    lui " << reg(false) << ", " << rng.below(1 << 20)
               << "\n";
            break;
          case 5:
            os << "    sw " << reg() << ", " << 4 * rng.below(16)
               << "(s0)\n";
            break;
          case 6:
            os << "    lw " << reg(false) << ", " << 4 * rng.below(16)
               << "(s0)\n";
            break;
          case 7: {
            // Load-use pressure: a load immediately consumed, the
            // hazard the in-order pipeline must interlock on.
            std::string rd = reg(false);
            os << "    lw " << rd << ", " << 4 * rng.below(16) << "(s0)\n";
            os << "    addi " << reg(false) << ", " << rd << ", "
               << rng.below(64) << "\n";
            break;
          }
          case 8: {
            // Store-to-load forwarding hazard for the OoO core's
            // conservative disambiguation: store then load same slot.
            uint64_t off = 4 * rng.below(16);
            os << "    sw " << reg() << ", " << off << "(s0)\n";
            os << "    lw " << reg(false) << ", " << off << "(s0)\n";
            break;
          }
          case 9: {
            // Forward branch over 1-3 instructions.
            static const char *ops[] = {"beq", "bne", "blt", "bge",
                                        "bltu", "bgeu"};
            int skip = 1 + int(rng.below(3));
            os << "    " << ops[rng.below(6)] << " " << reg() << ", "
               << reg() << ", fwd_" << seed << "_" << i << "\n";
            for (int k = 0; k < skip; ++k)
                os << "    addi " << reg(false) << ", " << reg() << ", "
                   << rng.below(100) << "\n";
            os << "fwd_" << seed << "_" << i << ":\n";
            break;
          }
          case 10: {
            // Forward jal with a live link register.
            os << "    jal x5, jmp_" << seed << "_" << i << "\n";
            os << "    addi x6, x6, 1\n";
            os << "jmp_" << seed << "_" << i << ":\n";
            break;
          }
          default:
            os << "    auipc " << reg(false) << ", " << rng.below(16)
               << "\n";
            break;
        }
    }
    // One bounded back edge exercises taken backward branches.
    os << "    addi s1, s1, -1\n";
    os << "    bnez s1, outer\n";
    os << "    ecall\n";

    CorpusProgram prog;
    prog.name = "fuzz-" + std::to_string(seed);
    prog.source = os.str();
    prog.mem_words = 256;
    prog.max_cycles = 1'000'000;
    return prog;
}

} // namespace grader
} // namespace assassyn
