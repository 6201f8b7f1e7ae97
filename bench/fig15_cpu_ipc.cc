/**
 * @file
 * Fig. 15 (Q3/Q5):
 *  (a) CPU IPC per workload for the Sodor reference (paper-reported),
 *      the gem5-like model (measured; deliberately misaligned, see
 *      src/baseline/gem5like.h), and our Assassyn CPU (measured; bp.t,
 *      the configuration the paper evaluates). The paper's point: the
 *      three agree on the mean but gem5 fluctuates per workload in both
 *      directions, while the Assassyn simulator is cycle-exact to RTL.
 *  (b) accelerator speedup over the HLS baseline (paper gmean: 1.81x).
 */
#include <iterator>

#include "baseline/gem5like.h"
#include "bench/bench_designs.h"
#include "bench/common.h"
#include "designs/cpu.h"
#include "isa/workloads.h"
#include "support/profiler.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

void
printTable(bool trace)
{
    std::printf("=== Fig. 15(a): CPU IPC (sodor=paper ref, gem5-like and "
                "ours measured) ===\n");
    std::printf("%-10s %8s %8s %8s\n", "workload", "sodor", "gem5", "ours");
    MetricsReport report;
    std::vector<double> sodor_v, gem5_v, ours_v;
    for (const SodorIpc &ref : kSodorIpc) {
        auto image = isa::buildMemoryImage(isa::workload(ref.name));

        baseline::Gem5LikeCpu gem5(image);
        auto g = gem5.run();

        auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
        sim::SimOptions opts;
        opts.capture_logs = false;
        // The last workload carries the timeline; since the host
        // profiler is enabled, the trace file also absorbs every
        // earlier workload's compile spans (process 2).
        bool last = &ref == &kSodorIpc[std::size(kSodorIpc) - 1];
        if (trace && last)
            opts.timeline_path = artifactsDir() + "/fig15_trace.json";
        sim::Simulator s(*cpu.sys, opts);
        s.run(50'000'000);
        double ipc =
            double(s.readArray(cpu.retired, 0)) / double(s.cycle());
        report.add("cpu." + std::string(ref.name), s.metrics(),
                   {{"ipc", ipc}, {"gem5_ipc", g.ipc},
                    {"sodor_ipc", ref.ipc}});

        std::printf("%-10s %8.2f %8.2f %8.2f\n", ref.name, ref.ipc, g.ipc,
                    ipc);
        sodor_v.push_back(ref.ipc);
        gem5_v.push_back(g.ipc);
        ours_v.push_back(ipc);
    }
    std::printf("%-10s %8.2f %8.2f %8.2f   (paper: 0.76 / 0.79 / 0.78)\n",
                "g-mean", gmean(sodor_v), gmean(gem5_v), gmean(ours_v));
    std::string report_path = artifactsDir() + "/fig15_metrics.json";
    report.write(report_path);
    std::printf("metrics report: %s\n", report_path.c_str());
    if (trace)
        std::printf("timeline trace: %s/fig15_trace.json\n",
                    artifactsDir().c_str());

    std::printf("\n=== Fig. 15(b): accelerator speedup over HLS ===\n");
    std::printf("%-8s %9s   (paper)\n", "design", "speedup");
    const double paper_ref[] = {4.78, 1.08, 1.41, 2.75, 0.98};
    std::vector<double> sp;
    size_t i = 0;
    for (const AccelPair &p : paperAccels()) {
        auto ours = p.assassyn();
        auto hls = p.hls();
        double speedup = double(cyclesOf(*hls.sys)) / cyclesOf(*ours.sys);
        std::printf("%-8s %9.2f   (%.2f)\n", p.name.c_str(), speedup,
                    paper_ref[i++]);
        sp.push_back(speedup);
    }
    std::printf("%-8s %9.2f   (1.81)\n\n", "g-mean", gmean(sp));
}

} // namespace

int
main(int argc, char **argv)
{
    bool trace = eatFlag(argc, argv, "--trace");
    rejectLeftoverArgs(argc, argv, "[--trace]");
    if (trace)
        HostProfiler::instance().enable();
    printTable(trace);
    return 0;
}
