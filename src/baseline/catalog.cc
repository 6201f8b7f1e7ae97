#include "baseline/catalog.h"

#include "baseline/hls_workloads.h"
#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/workloads.h"
#include "support/rng.h"

namespace assassyn {
namespace baseline {

std::vector<AccelPair>
paperAccels()
{
    using namespace designs;
    std::vector<AccelPair> out;
    out.push_back({"kmp",
                   [] { return buildKmpAccel(makeKmpData(32000, 5)); },
                   [] {
                       auto d = makeKmpData(32000, 5);
                       return generateHls(hlsKmp(d), d.memory);
                   }});
    out.push_back({"spmv",
                   [] { return buildSpmvAccel(makeSpmvData(494, 10, 6)); },
                   [] {
                       auto d = makeSpmvData(494, 10, 6);
                       return generateHls(hlsSpmv(d), d.memory);
                   }});
    out.push_back({"merge",
                   [] {
                       return buildMergeSortAccel(makeMergeSortData(2048, 7));
                   },
                   [] {
                       auto d = makeMergeSortData(2048, 7);
                       return generateHls(hlsMergeSort(d), d.memory);
                   }});
    out.push_back({"radix",
                   [] {
                       return buildRadixSortAccel(makeRadixSortData(2048, 8));
                   },
                   [] {
                       auto d = makeRadixSortData(2048, 8);
                       return generateHls(hlsRadixSort(d), d.memory);
                   }});
    out.push_back({"st-2d",
                   [] {
                       return buildStencilAccel(makeStencilData(128, 128, 9));
                   },
                   [] {
                       auto d = makeStencilData(128, 128, 9);
                       return generateHls(hlsStencil(d), d.memory);
                   }});
    return out;
}

AccelPair
paperFft()
{
    using namespace designs;
    return {"fft",
            [] { return buildFftAccel(makeFftData(256, 10)); },
            [] {
                auto d = makeFftData(256, 10);
                return generateHls(hlsFft(d), d.memory);
            }};
}

designs::PqDesign
paperPq()
{
    Rng rng(99);
    std::vector<designs::PqOp> script;
    size_t depth = 0;
    for (size_t i = 0; i < 4096; ++i) {
        bool push = depth == 0 || (depth < 8 && rng.below(3) != 0);
        if (push) {
            script.push_back({designs::PqCmd::kPush,
                              uint32_t(rng.below(1 << 20))});
            ++depth;
        } else {
            script.push_back({designs::PqCmd::kPop, 0});
            --depth;
        }
    }
    while (depth--)
        script.push_back({designs::PqCmd::kPop, 0});
    return designs::buildPriorityQueue(8, script);
}

designs::SystolicDesign
paperSystolic()
{
    Rng rng(41);
    std::vector<uint32_t> a(16), b(16);
    for (auto &v : a)
        v = uint32_t(rng.below(100));
    for (auto &v : b)
        v = uint32_t(rng.below(100));
    return designs::buildSystolic(4, a, b);
}

std::vector<CatalogDesign>
designCatalog()
{
    using designs::BranchPolicy;
    // The cores' tapes do not depend on the program image; any Sodor
    // workload stands for all of them.
    auto image = [] {
        return isa::buildMemoryImage(isa::workload("median"));
    };
    auto cpu = [&](BranchPolicy p) {
        return [image, p] { return designs::buildCpu(p, image()).sys; };
    };
    std::vector<CatalogDesign> out;
    out.push_back({"cpu.base", cpu(BranchPolicy::kInterlock)});
    out.push_back({"cpu.bp.f", cpu(BranchPolicy::kNotTaken)});
    out.push_back({"cpu.bp.t", cpu(BranchPolicy::kTaken)});
    out.push_back({"ooo", [image] { return designs::buildOoo(image()).sys; }});
    std::vector<AccelPair> accels = paperAccels();
    accels.push_back(paperFft());
    for (const AccelPair &p : accels)
        out.push_back({"accel." + p.name,
                       [p] { return p.assassyn().sys; }});
    for (const AccelPair &p : accels)
        out.push_back({"hls." + p.name, [p] { return p.hls().sys; }});
    out.push_back({"pq", [] { return paperPq().sys; }});
    out.push_back({"systolic", [] { return paperSystolic().sys; }});
    return out;
}

} // namespace baseline
} // namespace assassyn
