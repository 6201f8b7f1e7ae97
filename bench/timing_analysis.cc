/**
 * @file
 * Pre-synthesis critical-path report for every design: the Sec. 8.2
 * "future work" backend analysis, demonstrated across the full design
 * inventory. Prints the critical path length, the implied Fmax, and the
 * stages the worst path traverses (cross-stage combinational chains —
 * e.g. the CPU's bypass network feeding decode — show up here before
 * any synthesis tool runs).
 */
#include "baseline/catalog.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "synth/timing.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

void
report(const std::string &name, const System &sys)
{
    rtl::Netlist nl(sys);
    auto rep = synth::estimateTiming(nl);
    std::printf("%-10s %10.0f %8.2f   ", name.c_str(),
                rep.critical_path_ps, rep.fmax_ghz);
    // Show the distinct stages along the worst path, in order.
    std::string last;
    bool first = true;
    for (const auto &hop : rep.path) {
        auto at = hop.describe.find('@');
        std::string stage = at == std::string::npos
                                ? hop.describe
                                : hop.describe.substr(at + 1);
        if (stage != last) {
            std::printf("%s%s", first ? "" : " -> ", stage.c_str());
            last = stage;
            first = false;
        }
    }
    std::printf("\n");
}

void
printTable()
{
    std::printf("=== Pre-synthesis critical paths (Sec. 8.2 analysis) "
                "===\n");
    std::printf("%-10s %10s %8s   %s\n", "design", "path ps", "Fmax GHz",
                "stages on the worst path");

    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    report("cpu-base",
           *designs::buildCpu(designs::BranchPolicy::kInterlock, image)
                .sys);
    report("cpu-bpt",
           *designs::buildCpu(designs::BranchPolicy::kTaken, image).sys);
    report("ooo", *designs::buildOoo(image).sys);
    report("pq", *baseline::paperPq().sys);
    report("sys-pe", *baseline::paperSystolic().sys);
    for (const baseline::AccelPair &p : baseline::paperAccels())
        report(p.name, *p.assassyn().sys);
    report("fft", *baseline::paperFft().assassyn().sys);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    rejectLeftoverArgs(argc, argv, "");
    printTable();
    return 0;
}
