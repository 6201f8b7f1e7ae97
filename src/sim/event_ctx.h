/**
 * @file
 * The context the event engine's step rows (ASSASSYN_EVENT_DOPS,
 * sim/tape.h) are written over, shared by both evaluators of a tape
 * span: the interpreter (sim::Simulator's runTape) and the compiled
 * span functions the ahead-of-time emitter generates (sim/tape_emit.h,
 * docs/architecture.md "Compiled evaluators").
 *
 * The buffered-effect records are the event engine's private per-cycle
 * state, indexed like RunState; the EventCtx points at them plus the
 * run state the rows read, and carries the cold paths (fatal errors,
 * log emission) out of line so that neither evaluator inlines them.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/engine.h"
#include "sim/program.h"

namespace assassyn {
namespace sim {

/** A FIFO's buffered pop and push of the cycle in flight. */
struct FifoPending {
    bool push = false;
    bool deq = false;
    uint64_t value = 0;
    const Module *src = nullptr; ///< producer of the pending push
};

/** A register array's buffered write of the cycle in flight. */
struct ArrayPending {
    bool write = false;
    uint64_t index = 0;
    uint64_t value = 0;
};

/** A stage's scheduler record. */
struct ModSched {
    const Module *mod = nullptr;
    bool driver = false;
    bool dec = false; ///< executed a non-driver body: consume one event
    uint32_t topo_pos = 0;
    uint64_t inc = 0;
};

/** Set bit @p i of the touched bitmap @p w. */
inline void
touchBit(uint64_t *w, uint32_t i)
{
    w[i >> 6] |= 1ull << (i & 63);
}

/**
 * Everything a step row reads or writes. The owner (the Simulator)
 * refreshes the pointers before every cycle; a span evaluator copies
 * the hot ones into locals (ASSASSYN_EVENT_LOCALS).
 */
struct EventCtx {
    uint64_t *v = nullptr;                ///< the slot store
    const RunState::Fifo *fst = nullptr;  ///< FIFO run state
    const RunState::Array *ast = nullptr; ///< array run state
    const uint64_t *fa = nullptr;         ///< the FIFO arena
    FifoPending *fpd = nullptr;           ///< by fifo index
    ArrayPending *apd = nullptr;          ///< by RegArray::id
    ModSched *mst = nullptr;              ///< by Module::id
    uint64_t *touched_fifo = nullptr;     ///< bitmaps, bit per index
    uint64_t *touched_arr = nullptr;
    uint64_t *touched_mod = nullptr;
    bool finish_pending = false;
    bool log_on = false; ///< SimOptions::capture_logs

    RunState *st = nullptr;
    const Program *prog = nullptr;

    // The cold paths, out of line (sim/simulator.cc).
    [[gnu::noinline, noreturn]] void multiplePushes(uint32_t fid) const;
    [[gnu::noinline, noreturn]] void badArrayWrite(uint32_t aid,
                                                   uint64_t idx) const;
    [[gnu::noinline, noreturn]] void assertFailed(uint32_t idx) const;
    [[gnu::noinline]] void emitLog(uint32_t idx) const;
};

/** The locals a row body names, loaded from EventCtx @p cx. */
#define ASSASSYN_EVENT_LOCALS(cx)                                        \
    [[maybe_unused]] uint64_t *const v = (cx).v;                         \
    [[maybe_unused]] const RunState::Fifo *const fst = (cx).fst;         \
    [[maybe_unused]] const RunState::Array *const ast = (cx).ast;        \
    [[maybe_unused]] const uint64_t *const fa = (cx).fa;                 \
    [[maybe_unused]] FifoPending *const fpd = (cx).fpd;                  \
    [[maybe_unused]] ArrayPending *const apd = (cx).apd;                 \
    [[maybe_unused]] ModSched *const mst = (cx).mst;

/**
 * One compiled span: runs the steps of a [begin, end) tape range.
 * @return false when a wait_until check failed (event retained).
 */
using SpanFn = bool (*)(EventCtx &);

/** An IdLists (sim/program.h) as the generator embeds it. */
struct CompiledLists {
    const uint32_t *at;  ///< size + 1 offsets
    const uint32_t *ids; ///< at[size] ids
    size_t size;
};

/**
 * The generated evaluator of one distinct Program: the copy of the
 * tape, switch table, spans, slot initial values and schedule it was
 * generated from (what Program::compile() checks byte for byte before
 * attaching it), and the cycle generated over them, which calls the
 * per-module span functions directly.
 */
struct CompiledTape {
    uint64_t fingerprint;
    const DStep *tape;
    size_t tape_len;
    const uint32_t *switch_table;
    size_t switch_len;
    const StageSpan *spans;
    size_t num_spans;
    const uint64_t *slot_init;
    size_t slot_len;
    const uint32_t *topo;    ///< num_spans module ids
    const uint8_t *drivers;  ///< by Module::id
    const uint32_t *shadow_mods;
    size_t num_shadow_mods;
    CompiledLists stall_fifos; ///< by Module::id
    CompiledLists fifo_wake;   ///< by fifo index
    CompiledLists array_wake;  ///< by RegArray::id
    CycleFn cycle;
};

/** The span function of an empty span. */
inline bool
spanNop(EventCtx &)
{
    return true;
}

/** Every compiled tape linked into this binary (the generated registry;
 *  empty in the generator itself). */
struct CompiledTapes {
    const CompiledTape *const *list;
    size_t size;
};
CompiledTapes compiledTapes();

} // namespace sim
} // namespace assassyn
