/**
 * @file
 * White-box hook of sim::Program for the tests (a friend of the class):
 * compile a System and attach a generated evaluator from a list the
 * test links in, on the same fingerprint and byte check as
 * Program::compile() against the catalog's.
 */
#pragma once

#include <memory>

#include "sim/event_ctx.h"
#include "sim/program.h"

namespace assassyn {
namespace sim {

struct ProgramTestPeer {
    static std::shared_ptr<const Program>
    compile(const System &sys, const CompiledTapes &entries)
    {
        std::shared_ptr<Program> prog(new Program(sys));
        prog->attachCompiled(entries);
        return prog;
    }
};

} // namespace sim
} // namespace assassyn
