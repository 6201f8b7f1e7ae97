/**
 * @file
 * The generated evaluators of the netlist engine (docs/architecture.md
 * "Compiled evaluators"): for every distinct netlist of the design
 * catalog, the tape generator (sim/tapegen.cc) writes one straight-line
 * C++ function per cone (one stage's cell range), each step a row of
 * sim/tape.h specialized on a `constexpr` DStep. rtl::Netlist attaches
 * the entry whose copy of the tape and cone ranges equals its own byte
 * for byte (Netlist::compiled()); rtl::NetlistSim then calls every
 * cone's function in order, the cones tiling the tape, where it would
 * otherwise interpret the whole tape.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "rtl/netlist.h"
#include "sim/engine.h"
#include "sim/tape.h"

namespace assassyn {
namespace rtl {

/**
 * One compiled cone: evaluates the cells of its range over the net
 * store @p v and the array run state @p ast.
 */
using ConeFn = void (*)(uint64_t *v, const sim::RunState::Array *ast);

/**
 * The generated evaluator of one distinct netlist: the copy of the tape
 * and cone ranges it was generated from (what the Netlist constructor
 * checks byte for byte before attaching it) and a function per cone.
 */
struct CompiledNetlist {
    uint64_t fingerprint;
    const sim::DStep *tape;
    size_t tape_len;
    const Cone *cones;
    size_t num_cones;
    const ConeFn *cone_fns; ///< parallel to cones
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
