/**
 * @file
 * The RTL-level cycle simulator: this repo's stand-in for Verilator.
 *
 * Unlike the event-driven simulator (src/sim), which lowers each stage
 * to a bytecode tape and runs only the stages with pending events, this
 * simulator evaluates all of the elaborated netlist's cells, then
 * commits every sequential block — the cost structure of an RTL
 * simulator. The netlist is levelized once at elaboration, so each
 * cycle is exactly one pass over every cell: no settle loop, and no
 * cell skipped (docs/performance.md, "Full evaluation"). The cells are
 * executed from the Netlist's pre-decoded tape (Netlist::tape():
 * sim::DStep records in the pure prefix of sim::DOp) through the event
 * engine's own pure-op rows: as generated straight-line code per cone
 * for a catalog design (Netlist::compiled()), by the threaded
 * interpreter otherwise. So the two engines differ in what they
 * evaluate each cycle, not in how. The paper's Q5 speedup (2.2-8.1x)
 * comes from the backends' remaining cost difference, and its Q5
 * alignment claim is validated by running one design through both
 * engines and comparing cycle counts, committed state, and log output
 * byte for byte. Everything past evaluation and commit — the cycle
 * frame, inspection, metrics, checkpoints, the watchdog, and every
 * per-cycle output (timeline, VCD, text trace), rendered from the
 * stage activity each cycle publishes into sim::RunState — is the
 * shared sim::Engine.
 */
#pragma once

#include <cstdint>
#include <memory>

#include "rtl/netlist.h"
#include "sim/engine.h"

namespace assassyn {
namespace rtl {

/**
 * The netlist engine takes the one sim::SimOptions. The alias keeps the
 * historical name compiling.
 */
using NetlistSimOptions = sim::SimOptions;

/**
 * Executes an elaborated Netlist cycle by cycle. On top of the shared
 * sim::RunState it owns only the net values, which every cycle
 * re-derives from that state: nothing is cached across a cycle
 * boundary, so pokes and restore() need no engine hook. It honours
 * every SimOptions field except `shuffle`, which it ignores: results
 * are shuffle-invariant by contract and the netlist has no stage order.
 */
class NetlistSim final : public sim::Engine {
  public:
    explicit NetlistSim(const Netlist &nl, sim::SimOptions opts = {});
    ~NetlistSim() override;

  private:
    void runCycles(uint64_t max_cycles) override;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rtl
} // namespace assassyn
