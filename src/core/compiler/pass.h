/**
 * @file
 * The Assassyn compiler (paper Sec. 4).
 *
 * An elaborated System goes through three phases before code generation:
 *   1. Analysis     — cross-reference resolution, structural verification,
 *                     and the combinational-dependency topological sort
 *                     that rejects cyclic combinational logic (Sec. 4.1).
 *   2. Transformation — the implicit wait_until timing transform and
 *                     arbiter generation for multi-caller stages (Sec. 4.2).
 *   3. Lowering     — async_call / bind rewritten to FIFO pushes plus
 *                     event subscriptions, and FIFO pops injected (Sec. 4.3).
 *
 * compile() runs the standard pipeline; individual passes are exposed for
 * unit testing.
 */
#pragma once

#include <string>

#include "core/ir/system.h"

namespace assassyn {

/** compile()'s one switch: constant folding, on by default. */
struct CompileOptions {
    bool run_fold = true;
};

/** Resolve every CrossRef against its producer's exposure table. */
void resolveCrossRefs(System &sys);

/** Structural well-formedness checks; fatal() on a malformed design. */
void verifySystem(const System &sys);

/**
 * Build the inter-stage combinational dependency graph and topologically
 * sort it; fatal() when a combinational cycle exists (Sec. 4.1). Stores
 * the order in the system for the backends.
 */
void topoSortStages(System &sys);

/**
 * Evaluate pure instructions with all-literal operands at compile time,
 * through the semantics kernel both simulators execute (sim/tape.h:
 * encodeInstr, then evalPure), and rewrite their uses to the literal.
 * Instructions are never removed, so netlist cell counts are unaffected.
 */
void foldConstants(System &sys);

/**
 * Wrap module bodies in an implicit wait_until over the validity of every
 * port the body consumes, unless the developer wrote an explicit
 * wait_until or tagged the stage #static_timing (Sec. 4.2, Fig. 7b).
 */
void injectTiming(System &sys);

/**
 * Detect stages invoked by multiple callers and interpose a generated
 * arbiter stage (Sec. 4.2, Fig. 8). Policy comes from the callee's
 * attribute; default is round robin.
 */
void generateArbiters(System &sys);

/**
 * Rewrite async_call and bind into FIFO pushes plus event subscriptions,
 * and inject FIFO pops at the head of each body (Sec. 4.3, Fig. 7).
 */
void lowerCalls(System &sys);

/** Run the standard pipeline. After this the system is backend-ready. */
void compile(System &sys, const CompileOptions &opts = {});

} // namespace assassyn
