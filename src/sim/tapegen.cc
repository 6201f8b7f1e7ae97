/**
 * @file
 * The tape generator: compiles and elaborates every design of the
 * catalog (baseline/catalog.h), keeps one copy of each distinct event
 * tape and of each distinct netlist, and writes the compiled evaluator
 * of each (sim/tape_emit.h), and the registries compiledTapes() and
 * rtl::compiledNetlists() read. A tape the catalog carries over more
 * than one set of array sizes (a core over the Sodor workloads' and
 * the grader's memory) has sizes users vary, so it also gets an
 * any-size evaluator, which reads its array bounds at run time:
 *
 *   assassyn_tapegen <out_dir> <shards>
 *
 * writes <out_dir>/tapes_<k>.cc and <out_dir>/netlists_<k>.cc for
 * k < shards (distinct tapes and netlists dealt round-robin in catalog
 * order, so the build compiles them in parallel), <out_dir>/registry.cc
 * and <out_dir>/netlist_registry.cc. The output depends only on the
 * catalog, the compiler passes and the netlist elaboration: the same
 * sources give byte-identical files (the tapegen_deterministic ctest).
 * The generator links the simulator and the netlist without any
 * generated code (tapegen_registry.cc), so every Program and Netlist it
 * builds is interpreted.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/catalog.h"
#include "rtl/netlist.h"
#include "sim/tape_emit.h"
#include "support/logging.h"

using namespace assassyn;

namespace {

/**
 * One distinct tape or netlist: its fingerprint, the catalog index of
 * the first design with it and the names of all of them. Equal
 * fingerprints are taken as equal artifacts: should two distinct ones
 * ever collide, the byte check of Program::compile() or of the Netlist
 * constructor rejects the one left out and CompiledTape.CoversCatalog
 * fails.
 */
struct Distinct {
    uint64_t fingerprint;
    size_t first;
    std::string designs;
};

void
addDesign(std::vector<Distinct> &distinct, uint64_t fingerprint,
          size_t index, const std::string &name)
{
    for (Distinct &d : distinct)
        if (d.fingerprint == fingerprint) {
            d.designs += " " + name;
            return;
        }
    distinct.push_back({fingerprint, index, name});
}

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
    const std::vector<baseline::CatalogDesign> catalog =
        baseline::designCatalog();
    std::vector<std::unique_ptr<System>> systems;
    std::vector<std::shared_ptr<const sim::Program>> progs;
    std::vector<std::unique_ptr<rtl::Netlist>> netlists;
    std::vector<Distinct> tapes, any_size, nets;
    for (size_t i = 0; i < catalog.size(); ++i) {
        systems.push_back(catalog[i].build());
        progs.push_back(sim::Program::compile(*systems.back()));
        netlists.push_back(std::make_unique<rtl::Netlist>(*systems.back()));
        addDesign(tapes, progs.back()->fingerprint(), i, catalog[i].name);
        addDesign(any_size, progs.back()->anySizeFingerprint(), i,
                  catalog[i].name);
        addDesign(nets, netlists.back()->fingerprint(), i, catalog[i].name);
    }
    auto one_size = [&](const Distinct &a) {
        size_t sizes = 0;
        for (const Distinct &t : tapes)
            sizes += progs[t.first]->anySizeFingerprint() == a.fingerprint;
        return sizes < 2;
    };
    any_size.erase(std::remove_if(any_size.begin(), any_size.end(), one_size),
                   any_size.end());
    std::vector<std::string> tape_syms, net_syms;
    std::vector<std::string> tape_srcs(shards), net_srcs(shards);
    for (size_t i = 0; i < tapes.size() + any_size.size(); ++i) {
        const bool any = i >= tapes.size();
        const Distinct &d = any ? any_size[i - tapes.size()] : tapes[i];
        tape_syms.push_back("kCompiledTape" + std::to_string(i));
        tape_srcs[i % shards] += sim::emitCompiledTape(
            *progs[d.first], tape_syms.back(), d.designs, any);
    }
    for (size_t i = 0; i < nets.size(); ++i) {
        net_syms.push_back("kCompiledNetlist" + std::to_string(i));
        net_srcs[i % shards] += sim::emitCompiledNetlist(
            *netlists[nets[i].first], net_syms.back(), nets[i].designs);
    }
    auto shard = [&](const std::string &stem, const std::string &src,
                     const char *what) {
        writeFile(out_dir + "/" + stem + ".cc",
                  src.empty() ? std::string("// Generated by "
                                            "assassyn_tapegen: no ") +
                                    what + " in this shard.\n"
                              : src);
    };
    for (size_t k = 0; k < shards; ++k) {
        shard("tapes_" + std::to_string(k), tape_srcs[k], "tape");
        shard("netlists_" + std::to_string(k), net_srcs[k], "netlist");
    }
    writeFile(out_dir + "/registry.cc", sim::emitTapeRegistry(tape_syms));
    writeFile(out_dir + "/netlist_registry.cc",
              sim::emitNetlistRegistry(net_syms));
    std::printf("tapegen: %zu catalog designs: %zu distinct tapes (and %zu "
                "any-size), %zu distinct netlists, in %zu shards\n",
                catalog.size(), tapes.size(), any_size.size(), nets.size(),
                shards);
    return 0;
}
