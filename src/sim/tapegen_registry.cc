// The registries of the tape generator itself, which links the
// simulator and the netlist before any evaluator is generated: no
// compiled tapes and no compiled netlists, so every Program and Netlist
// it builds is interpreted.
#include "rtl/compiled_netlist.h"
#include "sim/event_ctx.h"

namespace assassyn {
namespace sim {

CompiledTapes
compiledTapes()
{
    return {nullptr, 0};
}

} // namespace sim

namespace rtl {

CompiledNetlists
compiledNetlists()
{
    return {nullptr, 0};
}

} // namespace rtl
} // namespace assassyn
