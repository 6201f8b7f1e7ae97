/**
 * @file
 * Fig. 14 (Q3): synthesized area of every design, split into sequential
 * and combinational, compared against references. For the three manual
 * designs the reference is the paper-reported handcrafted area; for the
 * accelerators the reference is our HLS baseline's own area (the paper's
 * HLS bars), where Assassyn should average roughly 70% savings.
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
    std::printf("=== Fig. 14 (Q3): area vs reference (um^2, seq/comb) "
                "===\n");
    std::printf("%-8s %10s %9s %9s %10s %7s\n", "design", "ours", "seq",
                "comb", "reference", "ratio");

    auto row = [&](const std::string &name, const synth::AreaReport &rep,
                   double ref, const char *) {
        std::printf("%-8s %10.1f %9.1f %9.1f %10.1f %7.2f\n", name.c_str(),
                    rep.total(), rep.seq, rep.comb, ref,
                    rep.total() / ref);
    };

    auto pq = paperPq();
    row("pq", areaOf(*pq.sys), kRefAreaPq, "handcrafted");
    // The paper reports per-PE area; our 4x4 array divides evenly.
    auto sa = paperSystolic();
    auto sa_area = areaOf(*sa.sys);
    synth::AreaReport pe_rep = sa_area;
    double scale = 1.0 / 16.0;
    pe_rep.func *= scale;
    pe_rep.fifo *= scale;
    pe_rep.sm *= scale;
    pe_rep.seq *= scale;
    pe_rep.comb *= scale;
    row("sys-pe", pe_rep, kRefAreaPe, "handcrafted");
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    row("cpu", areaOf(*cpu.sys), kRefAreaCpu, "handcrafted");

    std::vector<double> savings;
    auto accels = paperAccels();
    accels.push_back(paperFft()); // Fig. 14 includes fft in the HLS set
    for (const AccelPair &p : accels) {
        auto ours = p.assassyn();
        auto hls = p.hls();
        auto rep = areaOf(*ours.sys);
        auto hls_rep = areaOf(*hls.sys);
        row(p.name, rep, hls_rep.total(), "HLS");
        savings.push_back(rep.total() / hls_rep.total());
    }
    std::printf("Assassyn/HLS area (gmean): %.2f  "
                "(paper: ~0.30, i.e. 70%% savings)\n\n",
                gmean(savings));
}

} // namespace

int
main(int argc, char **argv)
{
    rejectLeftoverArgs(argc, argv, "");
    printTable();
    return 0;
}
