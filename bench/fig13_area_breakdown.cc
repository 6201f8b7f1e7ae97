/**
 * @file
 * Fig. 13 (Q4): area breakdown of every design into user functionality
 * (func), stage-buffer FIFOs (fifo), and the event-bookkeeping counter
 * state machines (sm). The paper reports FIFOs at ~20-40% for
 * control-heavy designs (CPU, priority queue, merge sort) and the
 * counter SM below ~5% except on tiny designs like kmp.
 */
#include "bench/bench_designs.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "isa/workloads.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

void
printRow(const std::string &name, const synth::AreaReport &rep)
{
    double t = rep.total();
    std::printf("%-8s %10.1f %7.1f%% %7.1f%% %7.1f%%\n", name.c_str(), t,
                100.0 * rep.func / t, 100.0 * rep.fifo / t,
                100.0 * rep.sm / t);
}

void
printTable()
{
    std::printf("=== Fig. 13 (Q4): area breakdown (func / fifo / sm) "
                "===\n");
    std::printf("%-8s %10s %8s %8s %8s\n", "design", "um^2", "func", "fifo",
                "sm");

    auto pq = paperPq();
    printRow("pq", areaOf(*pq.sys));
    auto sa = paperSystolic();
    printRow("sys-pe", areaOf(*sa.sys));
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    printRow("cpu", areaOf(*cpu.sys));
    for (const AccelPair &p : paperAccels()) {
        auto d = p.assassyn();
        printRow(p.name, areaOf(*d.sys));
    }
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
