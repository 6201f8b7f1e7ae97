/**
 * @file
 * RTL elaboration (paper Sec. 5.2, Fig. 10).
 *
 * The lowered IR is mapped onto word-level hardware structures:
 *  - each stage's body becomes always-on combinational cells;
 *  - each FIFO port becomes a FifoBlock whose pushes are gathered from
 *    every upstream site with one-hot selection (Fig. 10d);
 *  - each stage gets a CounterBlock: upstream activations are *added*
 *    into the pending-event counter and the stage's execution subtracts
 *    one (Fig. 10b);
 *  - register arrays gather their writers with or-ed write enables and
 *    one-hot data selection (Fig. 10c);
 *  - logs/assertions/finish become testbench monitor processes.
 *
 * Construction ends with a levelization pass: the cell list is verified
 * to be a topological order over combinational dependencies (reordering
 * it if needed), so the netlist simulator can evaluate each cycle in
 * exactly one pass with no settle loop. A residual combinational cycle
 * is recorded as a structured diagnostic naming the offending cells
 * (levelized() / combCycleDiag()) instead of looping at runtime. The
 * levelized cells are then decoded, once, into a dense tape of 24-byte
 * sim::DStep records (tape()) — the event engine's tape format, limited
 * to its pure opcode prefix — with every mask and shift precomputed.
 * The simulator evaluates it in one of two ways, both expanded from the
 * event engine's own rows (sim/tape.h): a catalog design's netlist gets
 * straight-line C++ per cone generated at build time (compiled(),
 * rtl/compiled_netlist.h); any other netlist runs the threaded tape
 * interpreter. The Cell list itself stays the structural view the area
 * and timing models and the SystemVerilog emitter read.
 *
 * The Netlist feeds three consumers: the netlist simulator (the repo's
 * Verilator stand-in), the synthesis area model, and the SystemVerilog
 * emitter.
 *
 * Thread-safety contract (the RTL half of the compile/run split,
 * docs/architecture.md): a Netlist is immutable after construction —
 * finalize() (levelization, tape decode and the compiled-evaluator
 * lookup) runs inside the constructor, there are no mutable members and
 * no lazily-initialized caches — so one `const Netlist` may back
 * any number of concurrent rtl::NetlistSim instances, each of which
 * owns all of its run-time state (its sim::RunState plus net values;
 * see netlist_sim.cc). The referenced System must outlive the Netlist.
 * tests/parallel_determinism_test.cc pins the guarantee.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ir/system.h"
#include "sim/hazard.h"
#include "sim/program.h"
#include "sim/tape.h"

namespace assassyn {
namespace rtl {

struct CompiledNetlist; // rtl/compiled_netlist.h

/** Opcode of a combinational word-level cell. */
enum class CellOp : uint8_t {
    kBin,       ///< sub = BinOpcode, operand width in `opnd_bits`
    kUn,        ///< sub = UnOpcode
    kSlice,     ///< a[hi:lo], hi = `b_imm`, lo = `c_imm`
    kConcat,    ///< {a, b}, lsb width in `c_imm`
    kMux,       ///< a ? b : c
    kCast,      ///< sub = Cast::Mode, source width in `opnd_bits`
    kArrayRead, ///< array[`aux`] read port, index net `a`
};

/** Provenance tag for the area breakdown of Fig. 13. */
enum class OriginTag : uint8_t {
    kFunc, ///< user functionality
    kFifo, ///< stage-buffer FIFOs
    kSm,   ///< event-bookkeeping counters and generated arbiters
};

/** One combinational cell. Cells are stored in evaluation order. */
struct Cell {
    CellOp op;
    uint8_t sub = 0;
    bool sgn = false;
    unsigned bits = 0;      ///< output width
    unsigned opnd_bits = 0; ///< operand width (sign semantics, reductions)
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
    uint32_t b_imm = 0; ///< immediate (slice hi)
    uint32_t c_imm = 0; ///< immediate (slice lo / concat lsb width)
    uint32_t out = 0;
    uint32_t aux = 0; ///< array id for kArrayRead
    const Module *origin = nullptr;
    OriginTag tag = OriginTag::kFunc;
};

/** Sentinel for "this optional net was not allocated". */
inline constexpr uint32_t kNoNet = 0xffffffffu;

/** A push site gathered into a FIFO (Fig. 10d). */
struct PushSite {
    uint32_t enable;
    uint32_t data;
    const Module *origin = nullptr; ///< producing stage (diagnostics)
};

/** The stage-buffer FIFO of one port. */
struct FifoBlock {
    const Port *port = nullptr;
    unsigned width = 0;
    unsigned depth = 0;
    std::vector<PushSite> pushes;
    std::vector<uint32_t> deq_enables;
    uint32_t pop_data = 0;  ///< state-driven output net
    uint32_t pop_valid = 0; ///< state-driven output net
    /**
     * State-driven "occupancy == depth" net; allocated only for
     * kStallProducer ports, where it gates every producer's exec_valid
     * (docs/robustness.md). kNoNet otherwise.
     */
    uint32_t full = kNoNet;
};

/** A write site gathered into a register array (Fig. 10c). */
struct WriteSite {
    uint32_t enable;
    uint32_t index;
    uint32_t data;
};

/** A register array / memory. */
struct ArrayBlock {
    const RegArray *array = nullptr;
    std::vector<WriteSite> writes;
};

/** The event-bookkeeping counter state machine of one stage (Fig. 10b). */
struct CounterBlock {
    const Module *mod = nullptr;
    std::vector<uint32_t> incs; ///< subscribe enables, gathered by addition
    uint32_t dec = 0;           ///< exec_valid net
    uint32_t nonzero = 0;       ///< state-driven output net
};

/** A testbench monitor: log / assert / finish. */
struct MonitorBlock {
    enum class Kind : uint8_t { kLog, kAssert, kFinish };
    Kind kind;
    uint32_t enable = 0;
    const Instruction *inst = nullptr;
    std::vector<uint32_t> args; ///< log arg nets / [assert cond net]
};

/**
 * One stage's contiguous cell range, in topological stage order. The
 * cones tile the cell list, so evaluating them in order is one pass
 * over every cell; each is one generated function of a compiled
 * netlist (rtl/compiled_netlist.h).
 */
struct Cone {
    uint32_t begin = 0; ///< first cell index
    uint32_t end = 0;   ///< one past the last cell index
};

/**
 * The elaborated design. After construction the cell order is a valid
 * (levelized) evaluation order unless the design has a genuine
 * combinational cycle, which levelized()/combCycleDiag() report.
 */
class Netlist {
  public:
    /**
     * Elaborate @p sys. With sim::Evaluator::kCompiled (the default) a
     * netlist whose tape and cone ranges match a generated evaluator
     * byte for byte gets it (compiled()); kTape always interprets, for
     * the tests and benchmarks that compare the two.
     */
    explicit Netlist(const System &sys,
                     sim::Evaluator ev = sim::Evaluator::kCompiled);

    const System &sys() const { return *sys_; }

    /**
     * The shared hazard analysis of the design, built once with the
     * netlist (as sim::Program::analyzer() is) so every NetlistSim over
     * it shares one instead of re-walking the IR.
     */
    const sim::HazardAnalyzer &analyzer() const { return analyzer_; }

    size_t numNets() const { return net_bits_.size(); }
    unsigned netBits(uint32_t net) const { return net_bits_[net]; }
    const std::string &netName(uint32_t net) const { return net_names_[net]; }

    /** Nets with fixed values (constants); applied once at reset. */
    const std::map<uint32_t, uint64_t> &constNets() const { return consts_; }

    const std::vector<Cell> &cells() const { return cells_; }

    /**
     * The cells lowered once, in finalize(), to the pre-decoded
     * sim::DStep records the netlist simulator executes: one per cell,
     * index-parallel to cells(), all in the pure prefix of sim::DOp.
     * Everything the evaluator would otherwise re-derive per cycle is
     * precomputed, as on the event tape: the output mask, the
     * sign-extension shift, the slice low bit and the concat lsb width.
     */
    const std::vector<sim::DStep> &tape() const { return tape_; }
    const std::vector<FifoBlock> &fifos() const { return fifos_; }
    const std::vector<ArrayBlock> &arrays() const { return arrays_; }
    const std::vector<CounterBlock> &counters() const { return counters_; }
    const std::vector<MonitorBlock> &monitors() const { return monitors_; }

    /** exec_valid net of each stage. */
    uint32_t execNet(const Module *mod) const
    {
        return exec_net_[mod->id()];
    }

    /** FifoBlock index of a port (dense, no map lookup). */
    uint32_t fifoIndex(const Port *port) const
    {
        return fifo_of_[port_base_[port->owner()->id()] + port->index()];
    }

    /** CounterBlock index of a stage; -1 for drivers (no counter). */
    int32_t counterIndex(const Module *mod) const
    {
        return counter_of_[mod->id()];
    }

    /**
     * False when the cell graph has a residual combinational cycle that
     * no evaluation order can resolve; combCycleDiag() then names the
     * offending cells. The simulator refuses to run such a netlist.
     */
    bool levelized() const { return comb_cycle_.empty(); }
    const std::string &combCycleDiag() const { return comb_cycle_; }

    /**
     * The per-stage cell ranges, tiling the cell list in order; empty
     * when elaboration had to reorder cells away from creation order
     * (such a netlist is never compiled and runs its tape).
     */
    const std::vector<Cone> &cones() const { return cones_; }

    /**
     * The generated evaluator of this netlist's cones, or nullptr when
     * the tape is interpreted (sim::Evaluator::kTape, no cones, or no
     * compiled netlist matches).
     */
    const CompiledNetlist *compiled() const { return compiled_; }

    /** 64-bit hash of the tape and the cone ranges: the key of the
     *  compiled-netlist registry. */
    uint64_t fingerprint() const { return fingerprint_; }

  private:
    friend class NetlistBuilder;
    friend class NetlistTestPeer; ///< cycle-injection hooks for tests

    /**
     * Levelize the cell list, decode it into the tape, fingerprint it
     * and attach the matching compiled evaluator, if any.
     */
    void finalize();

    /**
     * Levelization: verify the cell list is topologically ordered,
     * reorder it if not (dropping the cones), and record a structured
     * diagnostic on a residual cycle.
     */
    void levelize();

    /** Lower cells_ into tape_, one record per cell. */
    void buildTape();

    /** Look the tape up among the generated evaluators (compiled()). */
    void attachCompiled();

    const System *sys_;
    sim::Evaluator evaluator_;
    sim::HazardAnalyzer analyzer_;
    std::vector<unsigned> net_bits_;
    std::vector<std::string> net_names_;
    std::map<uint32_t, uint64_t> consts_;
    std::vector<Cell> cells_;
    std::vector<sim::DStep> tape_;
    std::vector<FifoBlock> fifos_;
    std::vector<ArrayBlock> arrays_;
    std::vector<CounterBlock> counters_;
    std::vector<MonitorBlock> monitors_;
    std::vector<Cone> cones_;
    std::string comb_cycle_;
    uint64_t fingerprint_ = 0;
    const CompiledNetlist *compiled_ = nullptr;
    // Dense compile-time indices (keyed by Module::id / Port::index),
    // replacing the pointer-keyed maps that used to sit on the
    // simulator's hot path.
    std::vector<uint32_t> exec_net_;   ///< by Module::id
    std::vector<int32_t> counter_of_;  ///< by Module::id; -1 = driver
    std::vector<uint32_t> port_base_;  ///< by Module::id
    std::vector<uint32_t> fifo_of_;    ///< by port_base + Port::index
};

} // namespace rtl
} // namespace assassyn
