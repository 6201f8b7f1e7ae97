/**
 * @file
 * Committed-state IR evaluation for the time-travel debugger
 * (docs/debugging.md).
 *
 * A breakpoint on "mod.value" must read the same number on both
 * engines, at the same cycle, without caring how each engine laid the
 * value out (event-engine slot tapes fuse and go stale between
 * executions; netlist nets are a private dense numbering). So the
 * debugger never asks an engine for an internal wire: it re-evaluates
 * the IR cone of the named value over *committed architectural state* —
 * register arrays, FIFO contents, FIFO occupancy — through the shared
 * sim::Engine inspection surface. Pure ops are encoded and evaluated
 * by the semantics kernel (sim/tape.h: encodeInstr, then evalPure over
 * the rows both engines' handlers are generated from), so the operand
 * widths and the formulas are the engines' own — cross-backend identity
 * by construction.
 *
 * Semantics are those of a cycle boundary: FifoPop reads as a peek of
 * the current head (0 when empty, mirroring DOp::kFifoPeek), FifoValid
 * is occupancy > 0, and an out-of-range ArrayRead yields 0 — the same
 * conventions the engines implement mid-cycle.
 */
#pragma once

#include <cstdint>

namespace assassyn {

class Value;

namespace sim {
class Engine;
}

namespace debug {

/**
 * Evaluate @p v — a constant, cross-stage reference, or *pure* IR cone
 * (kFifoPop included, as a peek) — over @p engine's committed state.
 * Effectful instructions (pushes, writes, calls) have no boundary value
 * and fatal() with the offending opcode.
 */
uint64_t evalValue(const Value *v, const sim::Engine &engine);

} // namespace debug
} // namespace assassyn
