/**
 * @file
 * Fig. 11 (Q2): lines-of-code comparison. The paper reports that
 * Assassyn needs ~70% of the LoC of handcrafted reference RTL for the
 * CPU and ~1.26x the LoC of the MachSuite C sources for the accelerator
 * workloads. This binary counts the LoC of this repo's DSL design
 * sources (cloc-style: non-blank, non-comment) and compares against the
 * reference LoC the paper reports for the third-party artifacts.
 */
#include "bench/common.h"

namespace {

using namespace assassyn::bench;

struct Row {
    const char *design;
    const char *file;     ///< under src/designs/
    int ref_loc;          ///< paper-reported reference LoC
    const char *ref_kind; ///< what the reference is
};

const Row kRows[] = {
    {"cpu", "cpu.cc", kRefLocCpu, "Sodor (Chisel RTL)"},
    {"sys-pe", "systolic.cc", kRefLocPe, "Gemmini PE (Chisel RTL)"},
    {"pq", "priority_queue.cc", kRefLocPq, "handwritten SystemVerilog"},
    {"kmp", "kmp.cc", kRefLocKmp, "MachSuite C"},
    {"spmv", "spmv.cc", kRefLocSpmv, "MachSuite C"},
    {"merge", "merge_sort.cc", kRefLocMerge, "MachSuite C"},
    {"radix", "radix_sort.cc", kRefLocRadix, "MachSuite C"},
    {"st-2d", "stencil.cc", kRefLocStencil, "MachSuite C"},
};

void
printTable()
{
    std::printf("=== Fig. 11 (Q2): lines of code, Assassyn vs reference "
                "===\n");
    std::printf("%-8s %10s %10s %8s  %s\n", "design", "assassyn", "refLoC",
                "ratio", "reference");
    std::vector<double> rtl_ratios, hls_ratios;
    for (const Row &row : kRows) {
        size_t ours =
            countLoc(sourceDir() + "/src/designs/" + row.file);
        double ratio = double(ours) / row.ref_loc;
        std::printf("%-8s %10zu %10d %8.2f  %s\n", row.design, ours,
                    row.ref_loc, ratio, row.ref_kind);
        if (std::string(row.ref_kind).find("MachSuite") != std::string::npos)
            hls_ratios.push_back(ratio);
        else
            rtl_ratios.push_back(ratio);
    }
    std::printf("vs handcrafted RTL (gmean ratio): %.2f  "
                "(paper: ~0.70 for the CPU)\n",
                gmean(rtl_ratios));
    std::printf("vs MachSuite C   (gmean ratio): %.2f  (paper: 1.26x)\n\n",
                gmean(hls_ratios));
}

} // namespace

int
main(int argc, char **argv)
{
    rejectLeftoverArgs(argc, argv, "");
    printTable();
    return 0;
}
