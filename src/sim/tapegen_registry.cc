// The registry of the tape generator itself, which links the simulator
// before any tape is compiled: no compiled tapes, so every Program it
// compiles is interpreted.
#include "sim/event_ctx.h"

namespace assassyn {
namespace sim {

CompiledTapes
compiledTapes()
{
    return {nullptr, 0};
}

} // namespace sim
} // namespace assassyn
