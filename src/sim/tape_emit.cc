#include "sim/tape_emit.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>

#include "support/logging.h"

namespace assassyn {
namespace sim {

namespace {

// Every row as text, indexed by DOp: the pure rows through the one
// statement both runTape loops give them (ASSASSYN_PURE_EFFECT), the
// event rows verbatim, their exits still unexpanded.
#define ASSASSYN_STR_(...) #__VA_ARGS__
#define ASSASSYN_STR(...) ASSASSYN_STR_(__VA_ARGS__)
#define ASSASSYN_PURE_TEXT(name, expr) ASSASSYN_STR(ASSASSYN_PURE_EFFECT(expr)),
#define ASSASSYN_EVENT_TEXT(name, ...) #__VA_ARGS__,
const char *const kRowText[] = {ASSASSYN_PURE_STEPS(ASSASSYN_PURE_TEXT)
                                    ASSASSYN_EVENT_DOPS(ASSASSYN_EVENT_TEXT)};
#undef ASSASSYN_PURE_TEXT
#undef ASSASSYN_EVENT_TEXT
#undef ASSASSYN_STR
#undef ASSASSYN_STR_
static_assert(std::size(kRowText) == kDOps, "a row text per DOp");

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n < 0 || size_t(n) >= sizeof buf)
        panic("tape emitter: formatted text too long");
    return buf;
}

std::string
label(uint32_t i)
{
    return "L" + std::to_string(i);
}

/** One call `NAME(args)` found in a row's text. */
struct Call {
    size_t begin = std::string::npos; ///< of NAME
    size_t end = 0;                   ///< one past the closing paren
    std::vector<std::string> args;    ///< top-level, spaces removed
};

Call
findCall(const std::string &text, const std::string &name)
{
    Call c;
    const size_t at = text.find(name + "(");
    if (at == std::string::npos)
        return c;
    c.begin = at;
    int depth = 0;
    std::string arg;
    for (size_t i = at + name.size(); i < text.size(); ++i) {
        const char ch = text[i];
        if (ch == '(' && depth++ == 0)
            continue;
        if (ch == ')' && --depth == 0) {
            c.end = i + 1;
            if (!arg.empty() || !c.args.empty())
                c.args.push_back(arg);
            return c;
        }
        if (ch == ',' && depth == 1) {
            c.args.push_back(arg);
            arg.clear();
        } else if (ch != ' ') {
            arg += ch;
        }
    }
    panic("tape emitter: unbalanced call to ", name, " in row '", text,
          "'");
}

/**
 * Step @p i's row with its exits resolved: a skip becomes a goto (its
 * target added to @p targets), a table skip a switch over its table,
 * a failed check `return false`.
 */
std::string
stepBody(const Program &prog, uint32_t i, std::set<uint32_t> &targets)
{
    const DStep &s = prog.tape()[i];
    std::string text = kRowText[s.op];
    auto jump = [&](uint64_t skip) {
        const uint64_t t = uint64_t(i) + 1 + skip;
        targets.insert(uint32_t(t));
        return "goto " + label(uint32_t(t));
    };
    for (Call c; (c = findCall(text, "ASSASSYN_FAIL")).begin !=
                 std::string::npos;)
        text.replace(c.begin, c.end - c.begin, "return false");
    for (Call c; (c = findCall(text, "ASSASSYN_SKIP")).begin !=
                 std::string::npos;) {
        if (c.args.size() != 1 || c.args[0] != "s->b")
            panic("tape emitter: ASSASSYN_SKIP must skip s->b steps");
        text.replace(c.begin, c.end - c.begin, jump(s.b));
    }
    for (Call c; (c = findCall(text, "ASSASSYN_SKIP_TABLE")).begin !=
                 std::string::npos;) {
        if (c.args.size() != 2 || c.args[0] != "s->b")
            panic("tape emitter: ASSASSYN_SKIP_TABLE must index the "
                  "table at s->b");
        // Entries [0, dest) are the arms, entry dest the miss.
        const std::vector<uint32_t> &sw = prog.switchTable();
        if (uint64_t(s.b) + s.dest >= sw.size())
            panic("tape emitter: switch table overrun at step ", i);
        std::string out = "switch (" + c.args[1] + ") {";
        for (uint32_t k = 0; k < s.dest; ++k)
            out += " case " + std::to_string(k) + ": " +
                   jump(sw[s.b + k]) + ";";
        out += " default: " + jump(sw[s.b + s.dest]) + "; }";
        text.replace(c.begin, c.end - c.begin, out);
    }
    return text;
}

/** The function of span [@p begin, @p end) named @p fn. */
std::string
emitSpan(const Program &prog, const std::string &fn, uint32_t begin,
         uint32_t end)
{
    std::set<uint32_t> targets;
    std::vector<std::string> bodies;
    for (uint32_t i = begin; i < end; ++i)
        bodies.push_back(stepBody(prog, i, targets));
    for (uint32_t t : targets)
        if (t <= begin || t > end)
            panic("tape emitter: a skip leaves span [", begin, ", ", end,
                  ") for step ", t);
    std::string out = "bool\n" + fn + "(EventCtx &cx)\n{\n";
    out += "    ASSASSYN_EVENT_LOCALS(cx)\n";
    for (uint32_t i = begin; i < end; ++i) {
        if (targets.count(i))
            out += label(i) + ":;\n";
        out += "    { [[maybe_unused]] constexpr const DStep *s = &kTape[" +
               std::to_string(i) + "]; " + bodies[i - begin] + " }\n";
    }
    if (targets.count(end))
        out += label(end) + ":;\n";
    out += "    return true;\n}\n\n";
    return out;
}

/** `{a, b, ...}` over @p n items, @p per_line to a line. */
template <typename Fn>
std::string
list(size_t n, size_t per_line, Fn item)
{
    std::string out = "{";
    for (size_t i = 0; i < n; ++i)
        out += (i % per_line == 0 ? "\n    " : " ") + item(i) + ",";
    return out + "\n}";
}

} // namespace

std::string
emitCompiledTape(const Program &prog, const std::string &symbol,
                 const std::string &designs)
{
    const std::vector<DStep> &tape = prog.tape();
    const std::vector<uint32_t> &sw = prog.switchTable();
    const std::vector<StageSpan> &spans = prog.spans();
    const std::vector<uint64_t> &init = prog.slotInit();
    std::string out;
    out += "// Generated by assassyn_tapegen (src/sim/tapegen.cc) from the "
           "design catalog;\n// do not edit. Designs: " +
           designs + "\n";
    out += "#include \"sim/event_ctx.h\"\n\nnamespace assassyn {\n"
           "namespace sim {\nnamespace {\nnamespace " +
           symbol + "_ {\n\n";
    out += "constexpr DStep kTape[] = " +
           list(tape.size(), 1,
                [&](size_t i) {
                    const DStep &s = tape[i];
                    return format("{%u, %u, %u, %" PRIu32 ", %" PRIu32
                                  ", %" PRIu32 ", {0x%" PRIx64 "ull}}",
                                  unsigned(s.op), unsigned(s.x8),
                                  unsigned(s.x16), s.a, s.b, s.dest,
                                  s.u.mask);
                }) +
           ";\n\n";
    // Empty tables keep one unused element: C++ has no empty arrays.
    out += "constexpr uint32_t kSwitchTable[] = " +
           list(std::max<size_t>(sw.size(), 1), 12,
                [&](size_t i) {
                    return std::to_string(i < sw.size() ? sw[i] : 0);
                }) +
           ";\n\n";
    out += "constexpr StageSpan kSpans[] = " +
           list(std::max<size_t>(spans.size(), 1), 1,
                [&](size_t i) {
                    if (i >= spans.size())
                        return std::string("{}");
                    const StageSpan &sp = spans[i];
                    return format("{%" PRIu32 ", %" PRIu32 ", %" PRIu32
                                  ", %" PRIu32 "}",
                                  sp.shadow_begin, sp.shadow_end,
                                  sp.active_begin, sp.active_end);
                }) +
           ";\n\n";
    out += "constexpr uint64_t kSlotInit[] = " +
           list(std::max<size_t>(init.size(), 1), 4,
                [&](size_t i) {
                    return format("0x%" PRIx64 "ull",
                                  i < init.size() ? init[i] : 0);
                }) +
           ";\n\n";
    std::vector<std::string> shadow_fns, active_fns;
    for (size_t m = 0; m < spans.size(); ++m) {
        const StageSpan &sp = spans[m];
        std::string sh = "spanNop", ac = "spanNop";
        if (sp.shadow_end > sp.shadow_begin) {
            sh = "shadow" + std::to_string(m);
            out += emitSpan(prog, sh, sp.shadow_begin, sp.shadow_end);
        }
        if (sp.active_end > sp.active_begin) {
            ac = "active" + std::to_string(m);
            out += emitSpan(prog, ac, sp.active_begin, sp.active_end);
        }
        shadow_fns.push_back(sh);
        active_fns.push_back(ac);
    }
    auto fns = [&](const std::vector<std::string> &v) {
        return list(std::max<size_t>(v.size(), 1), 4, [&](size_t i) {
            return i < v.size() ? v[i] : std::string("spanNop");
        });
    };
    out += "constexpr SpanFn kShadow[] = " + fns(shadow_fns) + ";\n\n";
    out += "constexpr SpanFn kActive[] = " + fns(active_fns) + ";\n\n";
    out += "} // namespace " + symbol + "_\n} // namespace\n\n";
    out += "extern const CompiledTape " + symbol + ";\n";
    out += "const CompiledTape " + symbol + " = {\n";
    out += format("    0x%" PRIx64 "ull,\n", prog.fingerprint());
    const std::string ns = "    " + symbol + "_::";
    out += ns + "kTape, " + std::to_string(tape.size()) + ",\n";
    out += ns + "kSwitchTable, " + std::to_string(sw.size()) + ",\n";
    out += ns + "kSpans, " + std::to_string(spans.size()) + ",\n";
    out += ns + "kSlotInit, " + std::to_string(init.size()) + ",\n";
    out += ns + "kShadow,\n" + ns + "kActive,\n};\n\n";
    out += "} // namespace sim\n} // namespace assassyn\n";
    return out;
}

std::string
emitTapeRegistry(const std::vector<std::string> &symbols)
{
    std::string out =
        "// Generated by assassyn_tapegen (src/sim/tapegen.cc); do not "
        "edit.\n#include \"sim/event_ctx.h\"\n\nnamespace assassyn {\n"
        "namespace sim {\n\n";
    for (const std::string &sym : symbols)
        out += "extern const CompiledTape " + sym + ";\n";
    out += "\nnamespace {\nconst CompiledTape *const kAll[] = " +
           list(std::max<size_t>(symbols.size(), 1), 1,
                [&](size_t i) {
                    return i < symbols.size() ? "&" + symbols[i]
                                              : std::string("nullptr");
                }) +
           ";\n} // namespace\n\n";
    out += "CompiledTapes\ncompiledTapes()\n{\n    return {kAll, " +
           std::to_string(symbols.size()) + "};\n}\n\n";
    out += "} // namespace sim\n} // namespace assassyn\n";
    return out;
}

} // namespace sim
} // namespace assassyn
