/**
 * @file
 * The ahead-of-time tape emitter: partially evaluates the event
 * interpreter over one Program's fixed tape. Every nonempty shadow and
 * active span becomes one straight-line C++ function whose steps are
 * the rows of sim/tape.h, stringified and specialized on a `constexpr`
 * DStep each, so the C++ compiler folds operands, masks and slot
 * offsets; skips become gotos, each kSwitch a C++ switch over its
 * table, and a slot no other span reads a C++ local. Next to the spans
 * it prints the Program's schedule as the tables of a generated cycle
 * (sim/event_cycle.h). The tape generator (sim/tapegen.cc) writes one
 * such source per distinct tape of the design catalog;
 * Program::compile() attaches its spans to any Program whose tape
 * matches it byte for byte, and its cycle when the schedule matches
 * too (docs/architecture.md "Compiled evaluators").
 *
 * The same rows compile the netlist engine's cell tape: every cone of
 * an rtl::Netlist becomes one straight-line function of its pure steps
 * (rtl/compiled_netlist.h), attached by the Netlist constructor on the
 * same byte check.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/program.h"

namespace assassyn {
namespace rtl {
class Netlist;
} // namespace rtl

namespace sim {

/**
 * The C++ source of the compiled evaluator of @p prog's tape. It
 * defines `const CompiledTape <symbol>` in namespace assassyn::sim;
 * @p designs, the catalog designs sharing the tape, heads it as a
 * comment.
 */
std::string emitCompiledTape(const Program &prog, const std::string &symbol,
                             const std::string &designs);

/** The C++ source of the registry listing @p symbols (compiledTapes()). */
std::string emitTapeRegistry(const std::vector<std::string> &symbols);

/**
 * The C++ source of the compiled evaluator of @p nl's cones, which must
 * not be empty. It defines `const rtl::CompiledNetlist <symbol>` in
 * namespace assassyn::rtl; @p designs heads it as a comment.
 */
std::string emitCompiledNetlist(const rtl::Netlist &nl,
                                const std::string &symbol,
                                const std::string &designs);

/** The C++ source of the registry listing @p symbols
 *  (rtl::compiledNetlists()). */
std::string emitNetlistRegistry(const std::vector<std::string> &symbols);

} // namespace sim
} // namespace assassyn
