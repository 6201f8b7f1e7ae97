/**
 * @file
 * The RTL-level cycle simulator: this repo's stand-in for Verilator.
 *
 * Unlike the event-driven simulator (src/sim), which lowers each stage
 * to a bytecode tape and runs only the stages with pending events, this
 * simulator evaluates all of the elaborated netlist's cells, then
 * commits every sequential block — the cost structure of an RTL
 * simulator. The netlist is levelized once at elaboration, so each
 * cycle is exactly one pass over the cells (no settle loop), with
 * per-stage activity gating skipping cones whose inputs are unchanged
 * (docs/performance.md). The cells are executed from the Netlist's
 * pre-decoded tape (Netlist::tape(): sim::DStep records in the pure
 * prefix of sim::DOp, threaded dispatch) by the event engine's own
 * pure-op handlers, so the two engines differ in what they evaluate
 * each cycle, not in how they interpret it. The paper's Q5 speedup (2.2-8.1x)
 * comes from the backends' remaining cost difference, and its Q5
 * alignment claim is validated by running one design through both
 * engines and comparing cycle counts, committed state, and log output
 * byte for byte. Everything past evaluation and commit — inspection,
 * metrics, checkpoints, the watchdog, and every per-cycle output
 * (timeline, VCD, text trace), rendered from the stage activity each
 * cycle publishes into sim::RunState — is the shared sim::Engine.
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
 * sim::RunState it owns only the netlist's private state: net values
 * and the activity-gating cone state. It honours every SimOptions field
 * except `shuffle`, which it ignores: results are shuffle-invariant by
 * contract and the netlist has no stage order.
 */
class NetlistSim final : public sim::Engine {
  public:
    explicit NetlistSim(const Netlist &nl, sim::SimOptions opts = {});
    ~NetlistSim() override;

    /** Current value of a net (post the last evaluated cycle). */
    uint64_t netValue(uint32_t net) const;

  private:
    void runCycles(uint64_t max_cycles) override;
    void arrayPoked(uint32_t aid) override;
    void rebuildViews() override;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rtl
} // namespace assassyn
