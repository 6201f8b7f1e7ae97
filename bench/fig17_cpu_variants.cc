/**
 * @file
 * Fig. 17 + the Q6 tables: the progressive CPU design case study.
 *  (a) per-workload speedup of bp.f / bp.t / OoO over the interlocked
 *      base design (paper: bp.t ~1.12x, OoO ~1.26x);
 *  (b) area of base / bp.t / OoO with the sequential/combinational
 *      split (paper: 1.00x / 1.03x / 1.43x);
 *  plus the always-taken success-rate table and the OoO pipeline
 *  profile the paper quotes (dispatch/issue utilization).
 */
#include "bench/common.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "sim/sweep.h"
#include "support/profiler.h"

namespace {

using namespace assassyn;
using namespace assassyn::bench;

struct VariantRun {
    uint64_t cycles = 0;
    uint64_t retired = 0;
    uint64_t br_total = 0;
    uint64_t br_taken = 0;
};

VariantRun
runInOrder(designs::BranchPolicy policy,
           const std::vector<uint32_t> &image)
{
    auto cpu = designs::buildCpu(policy, image);
    sim::SimOptions opts;
    opts.capture_logs = false;
    sim::Simulator s(*cpu.sys, opts);
    s.run(50'000'000);
    if (!s.finished())
        fatal("CPU run did not finish");
    return {s.cycle(), s.readArray(cpu.retired, 0),
            s.readArray(cpu.br_total, 0), s.readArray(cpu.br_taken, 0)};
}

void
printTable()
{
    std::printf("=== Fig. 17(a): speedup over the base design ===\n");
    std::printf("%-10s %8s %8s %8s %8s | taken-rate\n", "workload", "base",
                "bp.f", "bp.t", "ooo");
    std::vector<double> s_bpf, s_bpt, s_ooo;
    std::vector<std::pair<std::string, double>> taken_rates;
    // One job per workload, distributed over the sweep runner's thread
    // pool (sim/sweep.h): each job elaborates its own independent
    // Systems (thread-safe since elaboration has no process-wide
    // state) and runs all four variants. Results land in per-workload
    // slots, so the printed table keeps its deterministic order.
    constexpr size_t kWorkloads = std::size(kSodorIpc);
    struct WorkloadRow {
        VariantRun base, bpf, bpt;
        uint64_t ooo_cycles = 0;
    };
    std::vector<WorkloadRow> rows(kWorkloads);
    sim::parallelFor(
        kWorkloads,
        [&](size_t i) {
            // One host-timeline span per workload job: under --trace
            // the profile shows how the jobs packed onto the pool.
            HostProfiler::Scope span(
                "workload:" + std::string(kSodorIpc[i].name));
            auto image =
                isa::buildMemoryImage(isa::workload(kSodorIpc[i].name));
            WorkloadRow &row = rows[i];
            row.base =
                runInOrder(designs::BranchPolicy::kInterlock, image);
            row.bpf =
                runInOrder(designs::BranchPolicy::kNotTaken, image);
            row.bpt = runInOrder(designs::BranchPolicy::kTaken, image);
            auto ooo = designs::buildOoo(image);
            sim::SimOptions opts;
            opts.capture_logs = false;
            sim::Simulator s(*ooo.sys, opts);
            s.run(50'000'000);
            if (!s.finished())
                fatal("OoO run did not finish");
            row.ooo_cycles = s.cycle();
        },
        4);
    for (size_t i = 0; i < kWorkloads; ++i) {
        const WorkloadRow &row = rows[i];
        double f = double(row.base.cycles) / row.bpf.cycles;
        double t = double(row.base.cycles) / row.bpt.cycles;
        double o = double(row.base.cycles) / row.ooo_cycles;
        double rate =
            100.0 * double(row.bpt.br_taken) / double(row.bpt.br_total);
        std::printf("%-10s %8.2f %8.2f %8.2f %8.2f | %5.1f%%\n",
                    kSodorIpc[i].name, 1.0, f, t, o, rate);
        s_bpf.push_back(f);
        s_bpt.push_back(t);
        s_ooo.push_back(o);
        taken_rates.emplace_back(kSodorIpc[i].name, rate);
    }
    std::printf("%-10s %8.2f %8.2f %8.2f %8.2f   "
                "(paper gmean: 1.00 / ~1.03 / 1.12 / 1.26)\n",
                "g-mean", 1.0, gmean(s_bpf), gmean(s_bpt), gmean(s_ooo));

    std::printf("\n=== Q6 table: always-taken success rate ===\n");
    std::printf("(paper: median 59.4%%, mul 90.6%%, qsort 64.9%%, "
                "rsort 76.2%%, towers 85.7%%, vvadd 71.8%%)\n");
    for (const auto &[name, rate] : taken_rates)
        std::printf("%-10s %5.1f%%\n", name.c_str(), rate);

    std::printf("\n=== Fig. 17(b): CPU variant area (um^2) ===\n");
    std::printf("%-8s %10s %9s %9s %7s\n", "variant", "total", "seq",
                "comb", "ratio");
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto base_cpu =
        designs::buildCpu(designs::BranchPolicy::kInterlock, image);
    auto bpt_cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto ooo_cpu = designs::buildOoo(image);
    auto a0 = areaOf(*base_cpu.sys);
    auto a1 = areaOf(*bpt_cpu.sys);
    auto a2 = areaOf(*ooo_cpu.sys);
    std::printf("%-8s %10.1f %9.1f %9.1f %7.2f\n", "base", a0.total(),
                a0.seq, a0.comb, 1.0);
    std::printf("%-8s %10.1f %9.1f %9.1f %7.2f  (paper: 1.03)\n", "bp.t",
                a1.total(), a1.seq, a1.comb, a1.total() / a0.total());
    std::printf("%-8s %10.1f %9.1f %9.1f %7.2f  (paper: 1.43)\n", "ooo",
                a2.total(), a2.seq, a2.comb, a2.total() / a0.total());

    std::printf("\n=== Q6 profile: OoO pipeline utilization (vvadd) ===\n");
    {
        sim::SimOptions opts;
        opts.capture_logs = false;
        auto ooo = designs::buildOoo(image);
        sim::Simulator s(*ooo.sys, opts);
        s.run(50'000'000);
        uint64_t cycles = s.cycle();
        uint64_t disp = s.readArray(ooo.dispatched, 0);
        uint64_t retired_n = s.readArray(ooo.retired, 0);
        uint64_t issue_idle = s.readArray(ooo.issue_idle, 0);
        uint64_t mispred = s.readArray(ooo.br_mispred, 0);
        double squashed_per_mispred =
            mispred ? double(disp - retired_n) / double(mispred) : 0.0;
        std::printf("dispatch rate: %.1f%% of cycles  issue idle: %.1f%%  "
                    "mispredicts: %llu  wrongly dispatched per "
                    "mispredict: %.2f (paper: <=1 in >99%%)\n\n",
                    100.0 * double(disp) / double(cycles),
                    100.0 * double(issue_idle) / double(cycles),
                    (unsigned long long)mispred, squashed_per_mispred);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool trace = eatFlag(argc, argv, "--trace");
    rejectLeftoverArgs(argc, argv, "[--trace]");
    if (trace)
        HostProfiler::instance().enable();
    printTable();
    if (trace) {
        std::string path = artifactsDir() + "/fig17_host_trace.json";
        HostProfiler::instance().writeJson(path);
        std::printf("host timeline: %s\n", path.c_str());
    }
    return 0;
}
