/**
 * @file
 * Fig. 12 (Q3): area-normalized performance. Against handcrafted
 * references both ours and theirs hit the same initiation interval, so
 * the ratio reduces to the inverse area ratio (paper: comparable, ~1x).
 * Against HLS the ratio multiplies the measured cycle-count speedup with
 * the HLS/Assassyn area ratio (paper: up to 32x, mean 6x).
 */
#include "bench/bench_designs.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "isa/workloads.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

void
printTable()
{
    std::printf("=== Fig. 12 (Q3): speedup / normalized area ===\n");
    std::printf("-- vs handcrafted (same II; ratio = ref_area/our_area) "
                "--\n");
    std::printf("%-8s %14s\n", "design", "perf/area gain");

    std::vector<double> hand;
    auto pq = paperPq();
    double v = kRefAreaPq / areaOf(*pq.sys).total();
    std::printf("%-8s %14.2f\n", "pq", v);
    hand.push_back(v);
    auto sa = paperSystolic();
    v = kRefAreaPe / (areaOf(*sa.sys).total() / 16.0);
    std::printf("%-8s %14.2f\n", "sys-pe", v);
    hand.push_back(v);
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    v = kRefAreaCpu / areaOf(*cpu.sys).total();
    std::printf("%-8s %14.2f\n", "cpu", v);
    hand.push_back(v);
    std::printf("%-8s %14.2f  (paper: ~1x)\n", "gmean", gmean(hand));

    std::printf("-- vs HLS (speedup x area ratio) --\n");
    std::printf("%-8s %9s %10s %14s\n", "design", "speedup", "area ratio",
                "perf/area gain");
    std::vector<double> hls_gain;
    for (const AccelPair &p : paperAccels()) {
        auto ours = p.assassyn();
        auto hls = p.hls();
        double speedup = double(cyclesOf(*hls.sys)) / cyclesOf(*ours.sys);
        double area_ratio =
            areaOf(*hls.sys).total() / areaOf(*ours.sys).total();
        double gain = speedup * area_ratio;
        std::printf("%-8s %9.2f %10.2f %14.2f\n", p.name.c_str(), speedup,
                    area_ratio, gain);
        hls_gain.push_back(gain);
    }
    std::printf("%-8s %33.2f  (paper: mean 6x, up to 32x)\n\n", "gmean",
                gmean(hls_gain));
}

} // namespace

int
main(int argc, char **argv)
{
    rejectLeftoverArgs(argc, argv, "");
    printTable();
    return 0;
}
