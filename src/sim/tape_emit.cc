#include "sim/tape_emit.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

#include "rtl/netlist.h"
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

/** Step @p i of a generated `kTape`, its row text @p body in scope of
 *  `s`, the step as a constant the C++ compiler folds. */
std::string
stepBlock(uint32_t i, const std::string &body)
{
    return "    { [[maybe_unused]] constexpr const DStep *s = &kTape[" +
           std::to_string(i) + "]; " + body + " }\n";
}

/** One slot operand `v[s->FIELD]` in a step's row text. */
struct SlotRef {
    size_t begin = 0; ///< of the `v`
    size_t end = 0;   ///< one past the `]`
    uint32_t slot = 0;
    bool write = false; ///< the target of an assignment
};

/** Every slot operand of step @p s's row text @p text, in order. */
std::vector<SlotRef>
slotRefs(const DStep &s, const std::string &text)
{
    static const std::string kOpen = "v[s->";
    std::vector<SlotRef> refs;
    for (size_t at = text.find(kOpen); at != std::string::npos;
         at = text.find(kOpen, at + 1)) {
        if (at > 0 && (std::isalnum(static_cast<unsigned char>(text[at - 1])) ||
                       text[at - 1] == '_'))
            continue;
        const size_t close = text.find(']', at);
        const std::string field =
            text.substr(at + kOpen.size(), close - at - kOpen.size());
        SlotRef r;
        r.begin = at;
        r.end = close + 1;
        if (field == "a")
            r.slot = s.a;
        else if (field == "b")
            r.slot = s.b;
        else if (field == "dest")
            r.slot = s.dest;
        else if (field == "u.ca.c")
            r.slot = s.u.ca.c;
        else
            panic("tape emitter: unknown slot operand v[s->", field, "]");
        size_t next = text.find_first_not_of(' ', r.end);
        r.write = next != std::string::npos && text[next] == '=' &&
                  (next + 1 >= text.size() || text[next + 1] != '=');
        refs.push_back(r);
    }
    return refs;
}

/**
 * Step @p s's row text @p text with every array bound `ast[s->F].size`
 * the literal size of its array. @return the number of bounds printed.
 */
uint32_t
foldArrayBounds(const Program &prog, const DStep &s, std::string &text)
{
    static const std::string kOpen = "ast[s->";
    static const std::string kClose = "].size";
    uint32_t n = 0;
    for (size_t at = text.find(kOpen); at != std::string::npos;
         at = text.find(kOpen, at + 1)) {
        const size_t close = text.find(']', at);
        if (text.compare(close, kClose.size(), kClose) != 0)
            continue;
        const std::string field =
            text.substr(at + kOpen.size(), close - at - kOpen.size());
        uint32_t aid = 0;
        if (field == "b")
            aid = s.b;
        else if (field == "x16")
            aid = s.x16;
        else
            panic("tape emitter: unknown array operand ast[s->", field, "]");
        text.replace(at, close + kClose.size() - at,
                     std::to_string(prog.arraySizes().at(aid)) + "u");
        ++n;
    }
    return n;
}

/**
 * The call group of each FIFO as the emitter prints its steps: the
 * group's first FIFO, which carries the group's flags and touched bit,
 * and its size.
 */
struct GroupOf {
    std::vector<uint32_t> lead, size;
    /** Steps seen so far that push / pop each group, by lead. */
    std::vector<uint32_t> pushes, pops;

    const std::vector<FifoShape> &shapes;

    explicit GroupOf(const Program &prog) : shapes(prog.fifoShapes())
    {
        const std::vector<uint32_t> &at = prog.callGroups();
        for (size_t g = 0; g + 1 < at.size(); ++g)
            for (uint32_t f = at[g]; f < at[g + 1]; ++f) {
                lead.push_back(at[g]);
                size.push_back(at[g + 1] - at[g]);
            }
        pushes.assign(lead.size(), 0);
        pops.assign(lead.size(), 0);
    }

    /**
     * Step @p s's row when it pushes, pops, tests or peeks at a FIFO of
     * a group of two or more, else the empty string. Steps come in tape
     * order. Each run of a group's pushes (or pops) pushes each member
     * once (Program::callGroups), so every size-th such step opens a
     * run: it alone checks and sets the group's one push (or dequeue)
     * flag and touched bit, on the lead; each push still buffers its
     * own value. Members hold equal occupancy, and equal ring heads
     * (they pop together, and a restore rewinds every head to 0), so a
     * valid test or a peek reads the lead's, and a peek the member's
     * ring at its literal arena offset.
     */
    std::string
    row(const DStep &s)
    {
        const DOp op = static_cast<DOp>(s.op);
        const uint32_t f = op == DOp::kPush ? s.b : s.a;
        if ((op != DOp::kPush && op != DOp::kDequeue &&
             op != DOp::kFifoValid && op != DOp::kFifoPeek) ||
            size.at(f) < 2)
            return "";
        const std::string l = std::to_string(lead[f]);
        if (op == DOp::kFifoValid)
            return "v[s->dest] = fst[" + l + "].count > 0;";
        if (op == DOp::kFifoPeek)
            return "v[s->dest] = fst[" + l + "].count ? fa[" +
                   std::to_string(shapes[f].base) + "u + fst[" + l +
                   "].head] : 0;";
        const std::string value = "fpd[s->b].value = v[s->a] & s->u.mask;";
        if (op == DOp::kPush)
            return pushes[lead[f]]++ % size[f]
                       ? value
                       : "FifoPending &g = fpd[" + l +
                             "]; if (g.push) cx.st->multiplePushes(s->b); "
                             "g.push = true; g.src = mst[s->x16].mod; " +
                             value + " touchBit(cx.touched_fifo, " + l + ");";
        return pops[lead[f]]++ % size[f]
                   ? "/* popped with its group */"
                   : "fpd[" + l + "].deq = true; touchBit(cx.touched_fifo, " +
                         l + ");";
    }
};

/** One step of a span as the emitter prints it. */
struct EmitStep {
    std::string body;             ///< the row, exits resolved
    std::set<uint32_t> targets;   ///< where its skips land
    std::vector<SlotRef> refs;    ///< its slot operands in body
};

/** How the spans use each slot. */
struct SlotUse {
    /** Reads outside the span that writes the slot: by other spans
     *  and by logs. */
    std::vector<uint32_t> outside;
    /** 1 when no step of any span writes the slot: it holds its
     *  initial value for good (a restore re-copies slotInit()). */
    std::vector<uint8_t> constant;
};

/** The specializations an emitted tape prints, for its heading. */
struct ShapeCounts {
    uint32_t const_reads = 0;  ///< slot reads printed as kSlotInit[N]
    uint32_t array_bounds = 0; ///< array bounds printed as literals
};

/**
 * The slots of span [@p begin, @p end) that live only inside one run of
 * it: written by one of its steps and read only by its later steps,
 * with no skip from before the write landing between the write and the
 * last read, and never read by a log (emitLog reads the slot store).
 * Their values never leave the span, so the span keeps them in C++
 * locals instead of storing them to the slot store: every other reader
 * of a slot — another span, or this one in a later cycle — is outside.
 * @p outside counts each slot's reads outside the span and by logs.
 */
std::set<uint32_t>
spanLocals(const std::vector<EmitStep> &steps, uint32_t begin, uint32_t end,
           const std::vector<uint32_t> &outside)
{
    std::map<uint32_t, uint32_t> written, last_read;
    std::set<uint32_t> early; ///< read before (or without) its write
    for (uint32_t i = begin; i < end; ++i)
        for (const SlotRef &r : steps[i].refs) {
            if (r.write) {
                written.emplace(r.slot, i);
                continue;
            }
            auto w = written.find(r.slot);
            if (w == written.end() || w->second == i)
                early.insert(r.slot);
            last_read[r.slot] = i;
        }
    std::set<uint32_t> locals;
    for (const auto &[slot, w] : written) {
        if (early.count(slot) || outside[slot])
            continue;
        auto lr = last_read.find(slot);
        const uint32_t last = lr == last_read.end() ? w : lr->second;
        bool bypassed = false;
        for (uint32_t j = begin; j < w && !bypassed; ++j)
            for (uint32_t t : steps[j].targets)
                bypassed |= t > w && t <= last;
        if (!bypassed)
            locals.insert(slot);
    }
    return locals;
}

/**
 * Every step of @p prog's spans as the emitter prints it (@p steps, by
 * tape index), its array bounds literals unless @p any_size (counted in
 * @p counts), and how the spans use each slot.
 */
SlotUse
spanSteps(const Program &prog, bool any_size, std::vector<EmitStep> &steps,
          ShapeCounts &counts)
{
    const std::vector<DStep> &tape = prog.tape();
    const std::vector<StageSpan> &spans = prog.spans();
    steps.assign(tape.size(), EmitStep{});
    std::vector<int> span_of(tape.size(), -1);
    for (size_t m = 0; m < spans.size(); ++m) {
        for (uint32_t i = spans[m].shadow_begin; i < spans[m].shadow_end; ++i)
            span_of[i] = int(2 * m);
        for (uint32_t i = spans[m].active_begin; i < spans[m].active_end; ++i)
            span_of[i] = int(2 * m + 1);
    }
    std::vector<int> writer(prog.slotInit().size(), -1);
    GroupOf groups(prog);
    for (uint32_t i = 0; i < tape.size(); ++i) {
        std::string group_row = groups.row(tape[i]);
        if (span_of[i] < 0)
            continue;
        EmitStep &st = steps[i];
        st.body = stepBody(prog, i, st.targets);
        if (!group_row.empty())
            st.body = std::move(group_row);
        if (!any_size)
            counts.array_bounds += foldArrayBounds(prog, tape[i], st.body);
        st.refs = slotRefs(tape[i], st.body);
        for (const SlotRef &r : st.refs)
            if (r.write)
                writer[r.slot] = span_of[i];
    }
    SlotUse use;
    use.outside.assign(writer.size(), 0);
    use.constant.assign(writer.size(), 0);
    for (size_t slot = 0; slot < writer.size(); ++slot)
        use.constant[slot] = writer[slot] < 0;
    for (uint32_t i = 0; i < tape.size(); ++i) {
        if (span_of[i] < 0)
            continue;
        for (const SlotRef &r : steps[i].refs)
            if (!r.write && writer[r.slot] != span_of[i])
                ++use.outside[r.slot];
        if (tape[i].op == uint8_t(DOp::kLog))
            for (const LogArg &arg : prog.logs()[tape[i].a].args)
                ++use.outside[arg.slot];
    }
    return use;
}

/**
 * The function of span [@p begin, @p end) named @p fn, its slots in
 * @p locals kept in C++ locals `l<slot>` and each read of a slot no
 * step writes (@p use) the constant `kSlotInit[slot]` (counted in
 * @p counts).
 */
std::string
emitSpan(const std::string &fn, const std::vector<EmitStep> &steps,
         uint32_t begin, uint32_t end, const std::set<uint32_t> &locals,
         const SlotUse &use, ShapeCounts &counts)
{
    std::set<uint32_t> targets;
    for (uint32_t i = begin; i < end; ++i)
        targets.insert(steps[i].targets.begin(), steps[i].targets.end());
    for (uint32_t t : targets)
        if (t <= begin || t > end)
            panic("tape emitter: a skip leaves span [", begin, ", ", end,
                  ") for step ", t);
    std::string out = "bool\n" + fn + "(EventCtx &cx)\n{\n";
    out += "    ASSASSYN_EVENT_LOCALS(cx)\n";
    for (uint32_t slot : locals)
        out += "    [[maybe_unused]] uint64_t l" + std::to_string(slot) +
               " = 0;\n";
    for (uint32_t i = begin; i < end; ++i) {
        if (targets.count(i))
            out += label(i) + ":;\n";
        std::string body = steps[i].body;
        const std::vector<SlotRef> &refs = steps[i].refs;
        for (auto r = refs.rbegin(); r != refs.rend(); ++r) {
            std::string name;
            if (locals.count(r->slot)) {
                name = "l" + std::to_string(r->slot);
            } else if (!r->write && use.constant[r->slot]) {
                name = "kSlotInit[" + std::to_string(r->slot) + "]";
                ++counts.const_reads;
            } else {
                continue;
            }
            body.replace(r->begin, r->end - r->begin, name);
        }
        out += stepBlock(i, body);
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

/** `constexpr DStep kTape[] = {...};` over @p tape. */
std::string
tapeArray(const std::vector<DStep> &tape)
{
    return "constexpr DStep kTape[] = " +
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
}

/** The first lines of a generated evaluator shared by @p designs. */
std::string
heading(const std::string &designs)
{
    return "// Generated by assassyn_tapegen (src/sim/tapegen.cc) from the "
           "design catalog;\n// do not edit. Designs: " +
           designs + "\n";
}

/** The pragma a generated evaluator opens with, below its heading. */
std::string
literalPragma()
{
    // A constant operand is a literal, so a row such as `x >= 0` becomes
    // a comparison GCC flags as always true.
    return "#pragma GCC diagnostic ignored \"-Wtype-limits\"\n\n";
}

/**
 * The registry of @p symbols in namespace assassyn::@p ns: the
 * definition of `<type>s <fn>()`, declared in @p header.
 */
std::string
emitRegistry(const std::string &header, const std::string &ns,
             const std::string &type, const std::string &fn,
             const std::vector<std::string> &symbols)
{
    std::string out =
        "// Generated by assassyn_tapegen (src/sim/tapegen.cc); do not "
        "edit.\n#include \"" +
        header + "\"\n\nnamespace assassyn {\nnamespace " + ns + " {\n\n";
    for (const std::string &sym : symbols)
        out += "extern const " + type + " " + sym + ";\n";
    out += "\nnamespace {\nconst " + type + " *const kAll[] = " +
           list(std::max<size_t>(symbols.size(), 1), 1,
                [&](size_t i) {
                    return i < symbols.size() ? "&" + symbols[i]
                                              : std::string("nullptr");
                }) +
           ";\n} // namespace\n\n";
    out += type + "s\n" + fn + "()\n{\n    return {kAll, " +
           std::to_string(symbols.size()) + "};\n}\n\n";
    out += "} // namespace " + ns + "\n} // namespace assassyn\n";
    return out;
}

/** `static constexpr <type> <name>[] = {...};` over @p n rows, padded
 *  to one element (C++ has no empty arrays). */
template <typename Fn>
std::string
rowMember(const char *type, const std::string &name, size_t n,
          size_t per_line, Fn row)
{
    return std::string("    static constexpr ") + type + " " + name +
           "[] = " +
           list(std::max<size_t>(n, 1), per_line,
                [&](size_t i) { return i < n ? row(i) : std::string("{}"); }) +
           ";\n";
}

/** rowMember over the numbers @p v. */
template <typename T>
std::string
member(const char *type, const std::string &name, const std::vector<T> &v,
       size_t per_line)
{
    return rowMember(type, name, v.size(), per_line,
                     [&](size_t i) { return std::to_string(v[i]); });
}

/**
 * The schedule tables of @p prog's generated cycle, as the members of
 * `struct Schedule` that CompiledPlan (sim/event_cycle.h) reads, with
 * the span functions @p shadow_fns / @p active_fns by module.
 */
std::string
emitSchedule(const Program &prog, const std::vector<std::string> &shadow_fns,
             const std::vector<std::string> &active_fns)
{
    std::string out = "struct Schedule {\n";
    out += format("    static constexpr size_t kMods = %zu;\n",
                  prog.spans().size());
    out += format("    static constexpr size_t kShadowMods = %zu;\n",
                  prog.shadowMods().size());
    out += member("uint32_t", "kTopo", prog.topoIdx(), 16);
    out += member("uint8_t", "kDriver", prog.drivers(), 16);
    out += member("uint32_t", "kShadowMod", prog.shadowMods(), 16);
    const std::pair<const char *, const IdLists *> lists[] = {
        {"Stall", &prog.stallFifos()},
        {"FifoWake", &prog.fifoWake()},
        {"ArrayWake", &prog.arrayWake()}};
    for (const auto &[name, l] : lists) {
        out += format("    static constexpr size_t k%sLists = %zu;\n", name,
                      l->size());
        out += member("uint32_t", "k" + std::string(name) + "At",
                      l->at, 16);
        out += member("uint32_t", "k" + std::string(name), l->ids,
                      16);
    }
    out += "    static constexpr size_t kFifos = kFifoWakeLists;\n";
    out += "    static constexpr size_t kArrays = kArrayWakeLists;\n";
    const std::vector<FifoShape> &shapes = prog.fifoShapes();
    if (shapes.size() != prog.fifoWake().size() ||
        prog.arraySizes().size() != prog.arrayWake().size())
        panic("tape emitter: the shape tables do not match the wake lists");
    out += rowMember("FifoShape", "kFifoShape", shapes.size(), 2,
                     [&](size_t i) {
                         const FifoShape &sh = shapes[i];
                         return format("{%" PRIu32 ", %" PRIu32 ", %" PRIu32
                                       ", %" PRIu32 "}",
                                       sh.base, sh.mask, sh.depth,
                                       sh.policy);
                     });
    out += member("uint32_t", "kArraySize", prog.arraySizes(), 8);
    // The call groups, each committed as one unit, and the union of
    // their members' wake lists.
    const std::vector<uint32_t> &groups = prog.callGroups();
    IdLists group_wake;
    for (size_t g = 0; g + 1 < groups.size(); ++g) {
        std::set<uint32_t> wake;
        for (uint32_t f = groups[g]; f < groups[g + 1]; ++f)
            for (uint32_t mid : prog.fifoWake()[f])
                wake.insert(mid);
        group_wake.push(wake);
    }
    out += format("    static constexpr size_t kGroups = %zu;\n",
                  group_wake.size());
    out += member("uint32_t", "kGroupAt", groups, 16);
    out += member("uint32_t", "kGroupWakeAt", group_wake.at, 16);
    out += member("uint32_t", "kGroupWake", group_wake.ids, 16);
    auto fns = [&](const char *name, const std::vector<std::string> &v) {
        return std::string("    static constexpr SpanFn ") + name + "[] = " +
               list(std::max<size_t>(v.size(), 1), 4,
                    [&](size_t i) {
                        return i < v.size() ? v[i] : std::string("spanNop");
                    }) +
               ";\n";
    };
    out += fns("kShadow", shadow_fns);
    out += fns("kActive", active_fns);
    return out + "};\n\n";
}

} // namespace

std::string
emitCompiledTape(const Program &prog, const std::string &symbol,
                 const std::string &designs, bool any_size)
{
    const std::vector<DStep> &tape = prog.tape();
    const std::vector<uint32_t> &sw = prog.switchTable();
    const std::vector<StageSpan> &spans = prog.spans();
    const std::vector<uint64_t> &init = prog.slotInit();
    std::string out =
        "#include \"sim/event_cycle.h\"\n\nnamespace assassyn {\n"
        "namespace sim {\nnamespace {\nnamespace " +
        symbol + "_ {\n\n";
    out += tapeArray(tape);
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
    std::vector<EmitStep> steps;
    ShapeCounts counts;
    const SlotUse use = spanSteps(prog, any_size, steps, counts);
    std::vector<std::string> shadow_fns, active_fns;
    for (size_t m = 0; m < spans.size(); ++m) {
        const StageSpan &sp = spans[m];
        std::string sh = "spanNop", ac = "spanNop";
        if (sp.shadow_end > sp.shadow_begin) {
            sh = "shadow" + std::to_string(m);
            out += emitSpan(sh, steps, sp.shadow_begin, sp.shadow_end,
                            spanLocals(steps, sp.shadow_begin,
                                       sp.shadow_end, use.outside),
                            use, counts);
        }
        if (sp.active_end > sp.active_begin) {
            ac = "active" + std::to_string(m);
            out += emitSpan(ac, steps, sp.active_begin, sp.active_end,
                            spanLocals(steps, sp.active_begin,
                                       sp.active_end, use.outside),
                            use, counts);
        }
        shadow_fns.push_back(sh);
        active_fns.push_back(ac);
    }
    out += emitSchedule(prog, shadow_fns, active_fns);
    out += "bool\ncycle(EventState &es)\n{\n    return "
           "runEventCycle<CompiledPlan<Schedule>>(es);\n}\n\n";
    out += "} // namespace " + symbol + "_\n} // namespace\n\n";
    out += "extern const CompiledTape " + symbol + ";\n";
    out += "const CompiledTape " + symbol + " = {\n";
    out += format("    0x%" PRIx64 "ull,\n",
                  any_size ? prog.anySizeFingerprint() : prog.fingerprint());
    const std::string ns = "    " + symbol + "_::";
    out += ns + "kTape, " + std::to_string(tape.size()) + ",\n";
    out += ns + "kSwitchTable, " + std::to_string(sw.size()) + ",\n";
    out += ns + "kSpans, " + std::to_string(spans.size()) + ",\n";
    out += ns + "kSlotInit, " + std::to_string(init.size()) + ",\n";
    const std::string sc = symbol + "_::Schedule::k";
    for (const char *name : {"Topo", "Driver", "ShadowMod"})
        out += "    " + sc + name + ",\n";
    out += "    " + sc + "ShadowMods,\n";
    for (const char *name : {"Stall", "FifoWake", "ArrayWake"})
        out += "    {" + sc + name + "At, " + sc + name + ", " + sc + name +
               "Lists},\n";
    out += "    " + sc + "FifoShape, " + sc + "Fifos,\n";
    out += any_size ? "    nullptr, 0,\n"
                    : "    " + sc + "ArraySize, " + sc + "Arrays,\n";
    out += ns + "cycle,\n};\n\n";
    out += "} // namespace sim\n} // namespace assassyn\n";
    return heading(designs) +
           format("// Shape literals: %" PRIu32 " constant-slot reads, %" PRIu32
                  " array bounds%s, %zu call-group commits over %zu "
                  "FIFOs.\n",
                  counts.const_reads, counts.array_bounds,
                  any_size ? " (any array sizes)" : "",
                  prog.callGroups().size() - 1,
                  prog.fifoShapes().size()) +
           literalPragma() + out;
}

std::string
emitTapeRegistry(const std::vector<std::string> &symbols)
{
    return emitRegistry("sim/event_ctx.h", "sim", "CompiledTape",
                        "compiledTapes", symbols);
}

namespace {

std::string
netText(uint32_t net)
{
    return net == rtl::kNoNet ? std::string("kNoNet") : std::to_string(net);
}

/** The `kAt` offsets and `k` rows of @p lists, named @p name. */
template <class T, typename Fn>
std::string
rowListsMember(const char *type, const std::string &name,
               const rtl::RowLists<T> &lists, size_t per_line, Fn row)
{
    return member("uint32_t", "k" + name + "At", lists.at, 16) +
           rowMember(type, "k" + name, lists.rows.size(), per_line,
                     [&](size_t i) { return row(lists.rows[i]); });
}

} // namespace

std::string
emitCompiledNetlist(const rtl::Netlist &nl, const std::string &symbol,
                    const std::string &designs)
{
    const std::vector<DStep> &tape = nl.tape();
    const std::vector<rtl::Cone> &cones = nl.cones();
    const rtl::CycleTables &t = nl.cycleTables();
    if (cones.empty())
        panic("tape emitter: a netlist without cones has no compiled "
              "cycle");
    const std::map<uint32_t, uint64_t> &consts = nl.constNets();

    // The frame: every net the cycle drives before the cells (state
    // nets) or reads after them, constants aside (they are literals).
    std::set<uint32_t> state, frame;
    auto observe = [&](uint32_t net) {
        if (net != rtl::kNoNet && !consts.count(net))
            frame.insert(net);
    };
    for (const rtl::FifoRow &r : t.fifos)
        for (uint32_t net : {r.pop_data, r.pop_valid, r.full})
            if (net != rtl::kNoNet)
                state.insert(net);
    for (const rtl::CounterRow &r : t.counters) {
        state.insert(r.nonzero);
        observe(r.dec);
    }
    for (uint32_t net : state)
        observe(net);
    for (uint32_t net : t.deqs.rows)
        observe(net);
    for (const rtl::PushRow &r : t.pushes.rows) {
        observe(r.enable);
        observe(r.data);
    }
    for (const rtl::WriteRow &r : t.writes.rows) {
        observe(r.enable);
        observe(r.index);
        observe(r.data);
    }
    for (uint32_t net : t.incs.rows)
        observe(net);
    for (const rtl::StageRow &r : t.stages)
        observe(r.exec);
    for (const rtl::MonitorRow &r : t.monitors)
        observe(r.enable);
    for (uint32_t net : t.args.rows)
        observe(net);
    std::map<uint32_t, uint32_t> slot;
    for (uint32_t net : frame)
        slot.emplace(net, uint32_t(slot.size()));

    // The cells over locals `n<net>`, a constant operand a literal.
    std::vector<std::string> bodies(tape.size());
    std::set<uint32_t> defined(state.begin(), state.end()), read;
    for (uint32_t i = 0; i < tape.size(); ++i) {
        if (tape[i].op >= kPureDOps)
            panic("tape emitter: netlist step ", i, " is not pure");
        std::string body = kRowText[tape[i].op];
        const std::vector<SlotRef> refs = slotRefs(tape[i], body);
        for (auto r = refs.rbegin(); r != refs.rend(); ++r) {
            std::string name;
            if (r->write) {
                name = "n" + std::to_string(r->slot);
            } else if (auto c = consts.find(r->slot); c != consts.end()) {
                name = format("0x%" PRIx64 "ull", c->second);
            } else if (defined.count(r->slot)) {
                name = "n" + std::to_string(r->slot);
                read.insert(r->slot);
            } else {
                panic("tape emitter: netlist step ", i, " reads net ",
                      r->slot, " before any cell drives it");
            }
            body.replace(r->begin, r->end - r->begin, name);
        }
        bodies[i] = body;
        if (!defined.insert(tape[i].dest).second)
            panic("tape emitter: netlist step ", i, " drives net ",
                  tape[i].dest, " a second time");
    }
    for (uint32_t net : frame)
        if (!defined.count(net))
            panic("tape emitter: the cycle reads net ", net,
                  ", which nothing drives");

    std::string out = heading(designs) + literalPragma();
    out += "#include \"rtl/netlist_cycle.h\"\n\nnamespace assassyn {\n"
           "namespace rtl {\nnamespace {\nnamespace " +
           symbol + "_ {\n\nusing sim::DStep;\n\n";
    out += tapeArray(tape);
    out += "constexpr Cone kCones[] = " +
           list(cones.size(), 4,
                [&](size_t c) {
                    return format("{%" PRIu32 ", %" PRIu32 "}",
                                  cones[c].begin, cones[c].end);
                }) +
           ";\n\n";

    out += "struct Tables {\n";
    out += format("    static constexpr size_t kFifos = %zu;\n",
                  t.fifos.size());
    out += format("    static constexpr size_t kArrays = %zu;\n",
                  t.elem_bits.size());
    out += format("    static constexpr size_t kCounters = %zu;\n",
                  t.counters.size());
    out += format("    static constexpr size_t kStages = %zu;\n",
                  t.stages.size());
    out += format("    static constexpr size_t kMonitors = %zu;\n",
                  t.monitors.size());
    out += format("    static constexpr size_t kConsts = %zu;\n",
                  t.const_nets.size());
    out += format("    static constexpr size_t kFrame = %zu;\n",
                  frame.size());
    out += rowMember("FifoRow", "kFifo", t.fifos.size(), 2, [&](size_t i) {
        const rtl::FifoRow &r = t.fifos[i];
        return "{" + std::to_string(r.fid) + ", " + netText(r.pop_data) +
               ", " + netText(r.pop_valid) + ", " + netText(r.full) + ", " +
               std::to_string(r.width) + "}";
    });
    out += rowListsMember("uint32_t", "Deq", t.deqs, 16, netText);
    out += rowListsMember("PushRow", "Push", t.pushes, 4,
                          [](const rtl::PushRow &r) {
                              return "{" + netText(r.enable) + ", " +
                                     netText(r.data) + ", " +
                                     netText(r.src) + "}";
                          });
    out += member("uint32_t", "kElemBits", t.elem_bits, 16);
    out += rowListsMember("WriteRow", "Write", t.writes, 4,
                          [](const rtl::WriteRow &r) {
                              return "{" + netText(r.enable) + ", " +
                                     netText(r.index) + ", " +
                                     netText(r.data) + "}";
                          });
    out += rowMember("CounterRow", "kCounter", t.counters.size(), 4,
                     [&](size_t i) {
                         const rtl::CounterRow &r = t.counters[i];
                         return "{" + std::to_string(r.mid) + ", " +
                                netText(r.nonzero) + ", " + netText(r.dec) +
                                "}";
                     });
    out += rowListsMember("uint32_t", "Inc", t.incs, 16, netText);
    out += rowMember("StageRow", "kStage", t.stages.size(), 4,
                     [&](size_t i) {
                         const rtl::StageRow &r = t.stages[i];
                         return "{" + std::to_string(r.mid) + ", " +
                                netText(r.exec) + ", " +
                                std::to_string(r.driver) + "}";
                     });
    out += rowListsMember("uint32_t", "Stall", t.stalls, 16,
                          [](uint32_t fid) { return std::to_string(fid); });
    out += rowMember("MonitorRow", "kMonitor", t.monitors.size(), 4,
                     [&](size_t i) {
                         const rtl::MonitorRow &r = t.monitors[i];
                         return "{" + std::to_string(r.kind) + ", " +
                                netText(r.enable) + "}";
                     });
    out += rowListsMember("uint32_t", "Arg", t.args, 16, netText);
    out += member("uint32_t", "kConstNet", t.const_nets, 16);
    out += rowMember("uint64_t", "kConstValue", t.const_values.size(), 4,
                     [&](size_t i) {
                         return format("0x%" PRIx64 "ull",
                                       t.const_values[i]);
                     });
    out += member("uint32_t", "kFrameNet",
                  std::vector<uint32_t>(frame.begin(), frame.end()), 16);
    out += "    [[gnu::always_inline]] static inline void\n"
           "    evaluate(uint64_t *x, const sim::RunState::Array *ast);\n";
    out += "};\n\n";

    // The cells: the state nets they read from the frame, every step a
    // row over locals, each net the rest of the cycle reads back into
    // the frame. No net outlives the cycle, so none is stored anywhere
    // else.
    out += "inline void\nTables::evaluate([[maybe_unused]] uint64_t *x,\n"
           "    [[maybe_unused]] const sim::RunState::Array *ast)\n{\n";
    for (uint32_t net : state)
        if (read.count(net))
            out += format("    const uint64_t n%" PRIu32 " = x[%" PRIu32
                          "];\n",
                          net, slot.at(net));
    for (uint32_t i = 0; i < tape.size(); ++i) {
        const uint32_t dest = tape[i].dest;
        out += format("    [[maybe_unused]] uint64_t n%" PRIu32 ";\n", dest);
        out += stepBlock(i, bodies[i]);
        if (slot.count(dest))
            out += format("    x[%" PRIu32 "] = n%" PRIu32 ";\n",
                          slot.at(dest), dest);
    }
    out += "}\n\n";
    out += "sim::CycleOutcome\ncycle(NetState &ns)\n{\n    return "
           "runNetlistCycle<CompiledPlan<Tables>>(ns);\n}\n\n";
    out += "} // namespace " + symbol + "_\n} // namespace\n\n";

    out += "extern const CompiledNetlist " + symbol + ";\n";
    out += "const CompiledNetlist " + symbol + " = {\n";
    out += format("    0x%" PRIx64 "ull,\n", nl.fingerprint());
    const std::string ns = "    " + symbol + "_::";
    const std::string tb = symbol + "_::Tables::k";
    out += ns + "kTape, " + std::to_string(tape.size()) + ",\n";
    out += ns + "kCones, " + std::to_string(cones.size()) + ",\n";
    auto table = [&](const char *name, const char *count) {
        return "    " + tb + name + ", " + tb + count + ",\n";
    };
    auto lists = [&](const char *name, const char *count) {
        return "    {" + tb + name + "At, " + tb + name + ", " + tb + count +
               "},\n";
    };
    out += table("Fifo", "Fifos");
    out += lists("Deq", "Fifos");
    out += lists("Push", "Fifos");
    out += table("ElemBits", "Arrays");
    out += lists("Write", "Arrays");
    out += table("Counter", "Counters");
    out += lists("Inc", "Counters");
    out += table("Stage", "Stages");
    out += lists("Stall", "Stages");
    out += table("Monitor", "Monitors");
    out += lists("Arg", "Monitors");
    out += "    " + tb + "ConstNet, " + tb + "ConstValue, " + tb +
           "Consts,\n";
    out += ns + "cycle,\n};\n\n";
    out += "} // namespace rtl\n} // namespace assassyn\n";
    return out;
}

std::string
emitNetlistRegistry(const std::vector<std::string> &symbols)
{
    return emitRegistry("rtl/compiled_netlist.h", "rtl", "CompiledNetlist",
                        "compiledNetlists", symbols);
}

} // namespace sim
} // namespace assassyn
