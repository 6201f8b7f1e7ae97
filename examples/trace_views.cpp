/**
 * @file
 * The paper's Fig. 2(d) insight made visible: the event-driven
 * simulation trace and the RTL waveform are the same data, transposed.
 * This example runs a small 3-stage pipeline, prints the event trace
 * (rows = cycles, columns = stages) next to the waveform view
 * (rows = stages, columns = cycles), and also writes a real VCD file.
 *
 *   build/examples/trace_views
 */
#include <cstdio>
#include <vector>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "sim/simulator.h"

using namespace assassyn;
using namespace assassyn::dsl;

int
main()
{
    SysBuilder sb("trace_views");
    Stage s_if = sb.stage("IF", {{"tok", uintType(8)}});
    Stage s_id = sb.stage("ID", {{"tok", uintType(8)}});
    Stage s_ex = sb.stage("EX", {{"tok", uintType(8)}});
    Stage driver = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg sink = sb.reg("sink", uintType(8));

    {
        StageScope scope(s_if);
        asyncCall(s_id, {s_if.arg("tok") + 1});
    }
    {
        StageScope scope(s_id);
        asyncCall(s_ex, {s_id.arg("tok") + 1});
    }
    {
        StageScope scope(s_ex);
        sink.write(s_ex.arg("tok"));
    }
    {
        StageScope scope(driver);
        Val v = cyc.read();
        cyc.write(v + 1);
        // Issue a token every other cycle so the bubble pattern shows.
        when(v.bit(0) == 0, [&] { asyncCall(s_if, {v}); });
        when(v == 9, [&] { finish(); });
    }
    compile(sb.sys());

    // Run with VCD tracing on; then replay the activity by re-running
    // cycle by cycle and sampling executions() deltas.
    sim::SimOptions opts;
    opts.vcd_path = "trace_views.vcd";
    sim::Simulator s(sb.sys(), opts);

    std::vector<Module *> stages = {s_if.mod(), s_id.mod(), s_ex.mod()};
    std::vector<std::vector<bool>> active; // [cycle][stage]
    std::vector<uint64_t> prev(stages.size(), 0);
    while (!s.finished() && s.cycle() < 12) {
        s.run(1);
        std::vector<bool> row;
        for (size_t k = 0; k < stages.size(); ++k) {
            uint64_t e = s.stageCounters(stages[k]).execs;
            row.push_back(e != prev[k]);
            prev[k] = e;
        }
        active.push_back(row);
    }

    std::printf("event trace (rows = cycles, like Fig. 2b):\n");
    std::printf("  cycle |  IF  ID  EX\n");
    for (size_t c = 0; c < active.size(); ++c) {
        std::printf("  %5zu |", c);
        for (bool a : active[c])
            std::printf("  %s", a ? " *" : " .");
        std::printf("\n");
    }

    std::printf("\nwaveform view (rows = signals, like Fig. 2d --"
                " the transpose):\n");
    const char *names[] = {"IF", "ID", "EX"};
    for (size_t k = 0; k < stages.size(); ++k) {
        std::printf("  %-3s |", names[k]);
        for (size_t c = 0; c < active.size(); ++c)
            std::printf("%s", active[c][k] ? "#" : "_");
        std::printf("|\n");
    }
    std::printf("\nfull waveform written to trace_views.vcd\n");
    return 0;
}
