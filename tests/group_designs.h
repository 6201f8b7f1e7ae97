/**
 * @file
 * Designs whose call groups (sim::Program::callGroups) fault, for the
 * engine contract's fault-parity cases. They are not in the design
 * catalog, so the build generates their event cycles separately
 * (tests/group_tapegen.cc) and links them into the contract test only;
 * groupTapes() lists them.
 */
#pragma once

#include <memory>

#include "core/ir/system.h"
#include "sim/event_ctx.h"

namespace assassyn {
namespace test {

/**
 * A driver calling a two-port sink every cycle; the depth-2 ports keep
 * the default abort policy and the sink skips every fourth cycle, so
 * the group fills and a push into it overflows at cycle 7.
 */
std::unique_ptr<System> buildGroupOverflow();

/**
 * Two call sites of one two-port sink in a driver, one on even cycles
 * and one at cycle 6: at cycle 6 both push the group. The second site
 * pushes port b before port a when @p reordered (through a bind
 * handle's named arguments), port a first otherwise.
 */
std::unique_ptr<System> buildGroupDoublePush(bool reordered);

/** The generated evaluators of the designs above (group_tapes.cc). */
sim::CompiledTapes groupTapes();

} // namespace test
} // namespace assassyn
