/**
 * @file
 * The tape generator of the contract test's call-group designs
 * (tests/group_designs.h), which the design catalog does not carry:
 *
 *   group_tapegen <out.cc>
 *
 * writes the generated evaluator of each (sim/tape_emit.h) and the
 * definition of test::groupTapes() listing them.
 */
#include <cstdio>
#include <string>

#include "sim/program.h"
#include "sim/tape_emit.h"
#include "tests/group_designs.h"

using namespace assassyn;

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <out.cc>\n", argv[0]);
        return 2;
    }
    std::string out;
    std::string list;
    int n = 0;
    std::unique_ptr<System> designs[] = {test::buildGroupOverflow(),
                                         test::buildGroupDoublePush(false),
                                         test::buildGroupDoublePush(true)};
    for (const std::unique_ptr<System> &sys : designs) {
        auto prog = sim::Program::compile(*sys, sim::Evaluator::kTape);
        const std::string sym = "kGroupTape" + std::to_string(n++);
        out += sim::emitCompiledTape(*prog, sym, sys->name());
        list += "&sim::" + sym + ", ";
    }
    out += "#include \"tests/group_designs.h\"\n\nnamespace assassyn {\n"
           "namespace test {\n\nsim::CompiledTapes\ngroupTapes()\n{\n"
           "    static const sim::CompiledTape *const kAll[] = {" +
           list + "};\n    return {kAll, " + std::to_string(n) +
           "};\n}\n\n} // namespace test\n} // namespace assassyn\n";
    FILE *f = std::fopen(argv[1], "w");
    if (!f || std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "group_tapegen: cannot write %s\n", argv[1]);
        return 1;
    }
    return 0;
}
