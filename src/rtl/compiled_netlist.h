/**
 * @file
 * The generated cycles of the netlist engine (docs/architecture.md
 * "Compiled evaluators"): for every distinct netlist of the design
 * catalog, the tape generator (sim/tapegen.cc) writes one instantiation
 * of the netlist cycle (rtl/netlist_cycle.h) over `constexpr` copies of
 * its cycle tables, with the cells as straight-line C++ whose nets are
 * locals, each step a row of sim/tape.h specialized on a `constexpr`
 * DStep. rtl::Netlist attaches the entry whose copies of the tape, the
 * cone ranges and every cycle table equal its own byte for byte
 * (Netlist::compiled()); rtl::NetlistSim then runs that cycle where it
 * would otherwise run the generic one over the tape interpreter.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "rtl/netlist.h"
#include "sim/engine.h"
#include "sim/tape.h"

namespace assassyn {
namespace rtl {

struct NetState; // rtl/netlist_cycle.h

/** One cycle of a netlist: evaluate and commit (sim::Engine's step). */
using NetlistCycleFn = sim::CycleOutcome (*)(NetState &);

/** A RowLists (rtl/netlist.h) as the generator embeds it. */
template <class T>
struct CompiledRows {
    const uint32_t *at; ///< size + 1 offsets
    const T *rows;      ///< at[size] rows
    size_t size;
};

/**
 * The generated cycle of one distinct netlist: the copy of the tape,
 * cone ranges and cycle tables it was generated from (what the Netlist
 * constructor checks byte for byte before attaching it) and the cycle.
 */
struct CompiledNetlist {
    uint64_t fingerprint;
    const sim::DStep *tape;
    size_t tape_len;
    const Cone *cones;
    size_t num_cones;
    const FifoRow *fifos;
    size_t num_fifos;
    CompiledRows<uint32_t> deqs;
    CompiledRows<PushRow> pushes;
    const uint32_t *elem_bits;
    size_t num_arrays;
    CompiledRows<WriteRow> writes;
    const CounterRow *counters;
    size_t num_counters;
    CompiledRows<uint32_t> incs;
    const StageRow *stages;
    size_t num_stages;
    CompiledRows<uint32_t> stalls;
    const MonitorRow *monitors;
    size_t num_monitors;
    CompiledRows<uint32_t> args;
    const uint32_t *const_nets;
    const uint64_t *const_values;
    size_t num_consts;
    NetlistCycleFn cycle;
};

/** Every compiled netlist linked into this binary (the generated
 *  registry; empty in the generator itself). */
struct CompiledNetlists {
    const CompiledNetlist *const *list;
    size_t size;
};
CompiledNetlists compiledNetlists();

} // namespace rtl
} // namespace assassyn
