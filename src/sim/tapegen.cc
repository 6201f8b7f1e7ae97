/**
 * @file
 * The tape generator: compiles every design of the catalog
 * (baseline/catalog.h), keeps one copy of each distinct tape, and
 * writes the compiled evaluator of each (sim/tape_emit.h) plus the
 * registry compiledTapes() reads:
 *
 *   assassyn_tapegen <out_dir> <shards>
 *
 * writes <out_dir>/tapes_<k>.cc for k < shards (distinct tapes dealt
 * round-robin in catalog order, so the build compiles them in
 * parallel) and <out_dir>/registry.cc. The output depends only on the
 * catalog and the compiler passes: the same sources give byte-identical
 * files (the tapegen_deterministic ctest). The generator links the
 * simulator without any generated code (tapegen_registry.cc), so every
 * Program it compiles is interpreted.
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/catalog.h"
#include "sim/tape_emit.h"
#include "support/logging.h"

using namespace assassyn;

namespace {

/** One distinct tape and the catalog designs that compile to it. */
struct Distinct {
    std::unique_ptr<System> sys;
    std::shared_ptr<const sim::Program> prog;
    std::string designs;
};

void
writeFile(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0)
        fatal("tapegen: cannot write '", path, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || std::atoi(argv[2]) <= 0) {
        std::fprintf(stderr, "usage: %s <out_dir> <shards>\n", argv[0]);
        return 2;
    }
    const std::string out_dir = argv[1];
    const size_t shards = size_t(std::atoi(argv[2]));
    std::vector<Distinct> distinct;
    const std::vector<baseline::CatalogDesign> catalog =
        baseline::designCatalog();
    for (const baseline::CatalogDesign &d : catalog) {
        std::unique_ptr<System> sys = d.build();
        auto prog = sim::Program::compile(*sys);
        bool seen = false;
        // Equal fingerprints are taken as equal tapes: should two
        // distinct tapes ever collide, Program::compile()'s byte check
        // rejects the one left out and CompiledTape.CoversCatalog
        // fails.
        for (Distinct &t : distinct)
            if (t.prog->fingerprint() == prog->fingerprint()) {
                t.designs += " " + d.name;
                seen = true;
                break;
            }
        if (!seen)
            distinct.push_back({std::move(sys), std::move(prog), d.name});
    }
    std::vector<std::string> symbols, sources(shards);
    for (size_t i = 0; i < distinct.size(); ++i) {
        symbols.push_back("kCompiledTape" + std::to_string(i));
        sources[i % shards] += sim::emitCompiledTape(
            *distinct[i].prog, symbols.back(), distinct[i].designs);
    }
    for (size_t k = 0; k < shards; ++k)
        writeFile(out_dir + "/tapes_" + std::to_string(k) + ".cc",
                  sources[k].empty()
                      ? "// Generated by assassyn_tapegen: no tape in "
                        "this shard.\n"
                      : sources[k]);
    writeFile(out_dir + "/registry.cc", sim::emitTapeRegistry(symbols));
    std::printf("tapegen: %zu catalog tapes (%zu distinct) in %zu shards\n",
                catalog.size(), distinct.size(), shards);
    return 0;
}
