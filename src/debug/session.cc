#include "debug/session.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>

#include "core/ir/array.h"
#include "core/ir/instruction.h"
#include "core/ir/module.h"
#include "debug/eval.h"
#include "support/json.h"
#include "support/logging.h"

namespace assassyn {
namespace debug {

const char *
stopKindName(StopKind kind)
{
    switch (kind) {
      case StopKind::kNone: return "none";
      case StopKind::kCycle: return "cycle";
      case StopKind::kBreakpoint: return "breakpoint";
      case StopKind::kFinished: return "finished";
      case StopKind::kVerdict: return "verdict";
      case StopKind::kFault: return "fault";
    }
    return "?";
}

namespace {

/** Parse a decimal or 0x-prefixed literal; fatal on trailing junk. */
uint64_t
parseLiteral(const std::string &text, const std::string &spec)
{
    if (text.empty())
        fatal("breakpoint '", spec, "': missing numeric literal");
    char *end = nullptr;
    uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (end != text.c_str() + text.size())
        fatal("breakpoint '", spec, "': bad numeric literal '", text,
              "'");
    return v;
}

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

} // namespace

/** One parsed break/watch condition plus its evaluation baseline. */
struct BpState {
    enum class Kind : uint8_t {
        kValueChange,
        kValueEq,
        kExec,
        kArrayWrite,
        kArrayElem,
        kFifoEvent,
        kFifoPush,
        kFifoPop,
        kFifoOverflow,
        kFault,
        kHazard,
    };

    Breakpoint info;
    Kind kind = Kind::kValueChange;
    const Value *value = nullptr;
    uint64_t cmp = 0;
    const Module *mod = nullptr;
    const RegArray *array = nullptr;
    uint64_t elem = 0;
    const Port *port = nullptr;

    uint64_t prev = 0; ///< last committed observation (value or counter)
    bool primed = false;
};

struct DebugSession::Impl {
    sim::Engine *be;
    const System &sys;
    DebugOptions opts;
    std::string engine;

    struct Keyframe {
        uint64_t cycle = 0;
        sim::Snapshot snap;
    };
    Keyframe base;              ///< session-start snapshot; never evicted
    std::deque<Keyframe> ring;  ///< sorted by cycle, oldest at front

    uint64_t kf_taken = 0;
    uint64_t kf_evicted = 0;
    uint64_t kf_restored = 0;
    uint64_t cycles_run = 0;
    uint64_t cycles_reexec = 0;

    std::vector<BpState> bps;
    std::vector<Breakpoint> bp_view; ///< rebuilt lazily for breakpoints()
    std::vector<HitRecord> hit_log;
    std::deque<StallRecord> stalls;

    const sim::FaultInjector *inj = nullptr;

    Impl(sim::Engine &e, const System &s, DebugOptions o)
        : be(&e), sys(s), opts(o)
    {
        base.cycle = be->cycle();
        base.snap = be->snapshot();
        engine = base.snap.engine;
        ++kf_taken;
    }

    // --- Breakpoint machinery ----------------------------------------------

    /** Current committed observation of one condition. */
    uint64_t
    observe(const BpState &bp) const
    {
        switch (bp.kind) {
          case BpState::Kind::kValueChange:
          case BpState::Kind::kValueEq:
            return evalValue(bp.value, *be);
          case BpState::Kind::kExec:
            return be->stageCounters(bp.mod).execs;
          case BpState::Kind::kArrayWrite:
            return be->arrayWrites(bp.array);
          case BpState::Kind::kArrayElem:
            return be->readArray(bp.array, size_t(bp.elem));
          case BpState::Kind::kFifoEvent: {
            sim::FifoTraffic t = be->fifoTraffic(bp.port);
            return t.pushes + t.pops;
          }
          case BpState::Kind::kFifoPush:
            return be->fifoTraffic(bp.port).pushes;
          case BpState::Kind::kFifoPop:
            return be->fifoTraffic(bp.port).pops;
          case BpState::Kind::kFifoOverflow:
            return be->fifoTraffic(bp.port).drops;
          case BpState::Kind::kFault:
            return inj ? uint64_t(inj->records().size()) : 0;
          case BpState::Kind::kHazard:
            return 0;
        }
        return 0;
    }

    void
    primeBaselines()
    {
        for (BpState &bp : bps) {
            bp.prev = observe(bp);
            bp.primed = true;
        }
    }

    /**
     * Did the condition trip between the previous boundary and now?
     * Updates the baseline either way.
     */
    bool
    evaluate(BpState &bp, std::string &detail)
    {
        if (bp.kind == BpState::Kind::kHazard)
            return false; // handled on the verdict path
        uint64_t cur = observe(bp);
        bool hit = false;
        std::ostringstream os;
        switch (bp.kind) {
          case BpState::Kind::kValueChange:
          case BpState::Kind::kArrayElem:
            hit = bp.primed && cur != bp.prev;
            if (hit)
                os << bp.prev << " -> " << cur;
            break;
          case BpState::Kind::kValueEq:
            hit = cur == bp.cmp && (!bp.primed || bp.prev != bp.cmp);
            if (hit)
                os << "== " << bp.cmp;
            break;
          case BpState::Kind::kFault:
            hit = bp.primed && cur > bp.prev;
            if (hit && inj && !inj->records().empty())
                os << inj->records().back().target;
            break;
          default: // monotone event counters
            hit = bp.primed && cur > bp.prev;
            if (hit)
                os << "+" << (cur - bp.prev);
            break;
        }
        bp.prev = cur;
        bp.primed = true;
        detail = os.str();
        return hit;
    }

    /**
     * Post-slice bookkeeping at boundary @p c: stall history, then
     * break/watch evaluation. Recording is unconditional — reverse
     * truncates history to the keyframe and replay regenerates the
     * identical records — only *stopping* is the caller's decision.
     * Returns the first stopping hit's breakpoint index, or -1.
     */
    int
    sample(uint64_t c)
    {
        // Slices are one cycle, so the published activity is exactly
        // what each stage did in the cycle just committed.
        for (const auto &mod : sys.modules()) {
            sim::StageActivity act = be->stageActivity(mod.get());
            if (act != sim::StageActivity::kBackpressure &&
                act != sim::StageActivity::kWaitSpin)
                continue;
            stalls.push_back({c, mod->name(),
                              act == sim::StageActivity::kBackpressure
                                  ? "backpressure stall"
                                  : "wait_until spin"});
            if (stalls.size() > opts.stall_history)
                stalls.pop_front();
        }
        int stop_index = -1;
        for (size_t i = 0; i < bps.size(); ++i) {
            BpState &bp = bps[i];
            if (!bp.info.enabled) {
                // Keep the baseline current so re-enabling does not
                // replay stale deltas.
                bp.prev = observe(bp);
                bp.primed = true;
                continue;
            }
            std::string detail;
            if (!evaluate(bp, detail))
                continue;
            ++bp.info.hits;
            hit_log.push_back({c, int(i), bp.info.spec, detail});
            if (bp.info.stops && stop_index < 0)
                stop_index = int(i);
        }
        return stop_index;
    }

    /** Record a watchdog verdict into every "hazard" break/watch. */
    void
    recordHazard(uint64_t c, const std::string &what)
    {
        for (size_t i = 0; i < bps.size(); ++i) {
            BpState &bp = bps[i];
            if (bp.kind != BpState::Kind::kHazard || !bp.info.enabled)
                continue;
            ++bp.info.hits;
            hit_log.push_back({c, int(i), bp.info.spec, what});
        }
    }

    // --- Keyframes ----------------------------------------------------------

    bool
    hasKeyframe(uint64_t c) const
    {
        if (base.cycle == c)
            return true;
        for (const Keyframe &kf : ring)
            if (kf.cycle == c)
                return true;
        return false;
    }

    void
    maybeKeyframe()
    {
        if (!opts.keyframe_every || !opts.keyframe_ring)
            return;
        uint64_t c = be->cycle();
        if (c % opts.keyframe_every != 0 || hasKeyframe(c))
            return;
        auto pos = std::lower_bound(
            ring.begin(), ring.end(), c,
            [](const Keyframe &kf, uint64_t v) { return kf.cycle < v; });
        Keyframe kf;
        kf.cycle = c;
        kf.snap = be->snapshot();
        ring.insert(pos, std::move(kf));
        ++kf_taken;
        if (ring.size() > opts.keyframe_ring) {
            ring.pop_front();
            ++kf_evicted;
        }
    }

    /** Drop recorded history after boundary @p c (exclusive). */
    void
    truncateHistory(uint64_t c)
    {
        hit_log.erase(std::remove_if(hit_log.begin(), hit_log.end(),
                                     [&](const HitRecord &h) {
                                         return h.cycle > c;
                                     }),
                      hit_log.end());
        while (!stalls.empty() && stalls.back().cycle > c)
            stalls.pop_back();
        for (BpState &bp : bps)
            bp.info.hits = 0;
        for (const HitRecord &h : hit_log)
            if (h.index >= 0 && size_t(h.index) < bps.size())
                ++bps[h.index].info.hits;
    }

    // --- The stepping core --------------------------------------------------

    /**
     * Advance to @p target (cycle() == target), stopping early on
     * finish, fault, verdict, or — when @p honor_breaks — a stopping
     * breakpoint. Keyframes are taken at K boundaries on the way.
     */
    Stop
    advance(uint64_t target, bool honor_breaks)
    {
        Stop s;
        while (be->cycle() < target) {
            if (be->finished()) {
                s.kind = StopKind::kFinished;
                s.cycle = be->cycle();
                s.what = "finished";
                return s;
            }
            maybeKeyframe();
            sim::RunResult r = be->run(1);
            cycles_run += r.cycles;
            uint64_t c = be->cycle();
            if (r.status == sim::RunStatus::kFault) {
                s.kind = StopKind::kFault;
                s.cycle = c;
                s.what = r.error;
                return s;
            }
            if (r.status == sim::RunStatus::kDeadlock ||
                r.status == sim::RunStatus::kLivelock) {
                s.kind = StopKind::kVerdict;
                s.cycle = c;
                s.what = r.hazard.toString();
                recordHazard(c, s.what);
                return s;
            }
            int bp = sample(c);
            if (honor_breaks && bp >= 0) {
                s.kind = StopKind::kBreakpoint;
                s.cycle = c;
                s.what = bps[bp].info.spec;
                s.index = bp;
                return s;
            }
            if (be->finished()) {
                s.kind = StopKind::kFinished;
                s.cycle = c;
                s.what = "finished";
                return s;
            }
        }
        s.kind = StopKind::kCycle;
        s.cycle = be->cycle();
        s.what = "cycle reached";
        return s;
    }

    Stop
    reverseTo(uint64_t target)
    {
        uint64_t cur = be->cycle();
        if (target >= cur)
            return advance(target, true);
        if (target < base.cycle)
            fatal("reverseTo: cycle ", target,
                  " precedes the session start (cycle ", base.cycle,
                  "); start the session from an earlier checkpoint");
        const Keyframe *kf = &base;
        for (const Keyframe &k : ring)
            if (k.cycle <= target && k.cycle > kf->cycle)
                kf = &k;
        be->restore(kf->snap);
        ++kf_restored;
        cycles_reexec += target - kf->cycle;
        truncateHistory(kf->cycle);
        primeBaselines();
        // Replay is deterministic, so a fault/verdict cannot reappear
        // before the target (the original pass got past it); stops are
        // suppressed and the history regenerates byte-identically.
        return advance(target, false);
    }

    // --- Name resolution ----------------------------------------------------

    const Module *
    moduleOf(const std::string &name, const std::string &what) const
    {
        const Module *m = sys.moduleOrNull(name);
        if (!m)
            fatal(what, ": design '", sys.name(), "' has no module '",
                  name, "'");
        return m;
    }

    const Value *
    resolveValue(const std::string &name) const
    {
        size_t dot = name.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 == name.size())
            fatal("value '", name, "': expected \"module.value\"");
        const Module *m =
            moduleOf(name.substr(0, dot), "value '" + name + "'");
        std::string vname = name.substr(dot + 1);
        if (const Value *v = m->exposedOrNull(vname))
            return v;
        for (const auto &node : m->nodes())
            if (node->name() == vname)
                return node.get();
        fatal("value '", name, "': module '", m->name(),
              "' exposes no value named '", vname,
              "' (and none of its IR nodes carries that name)");
    }

    const Port *
    resolvePort(const std::string &name) const
    {
        size_t dot = name.find('.');
        if (dot == std::string::npos || dot == 0 ||
            dot + 1 == name.size())
            fatal("fifo '", name, "': expected \"module.port\"");
        const Module *m =
            moduleOf(name.substr(0, dot), "fifo '" + name + "'");
        return m->port(name.substr(dot + 1)); // fatals when missing
    }

    const RegArray *
    resolveArray(const std::string &name) const
    {
        for (const auto &a : sys.arrays())
            if (a->name() == name)
                return a.get();
        fatal("array '", name, "': design '", sys.name(),
              "' has no array by that name");
    }

    int
    addBp(const std::string &raw, bool stops)
    {
        std::string spec = trimmed(raw);
        if (spec.empty())
            fatal("breakpoint: empty spec");
        BpState bp;
        bp.info.spec = spec;
        bp.info.stops = stops;
        if (spec == "fault") {
            bp.kind = BpState::Kind::kFault;
            if (!inj)
                fatal("breakpoint 'fault': no fault injector attached "
                      "to this session (watchFaults)");
        } else if (spec == "hazard") {
            bp.kind = BpState::Kind::kHazard;
        } else if (spec.rfind("exec:", 0) == 0) {
            bp.kind = BpState::Kind::kExec;
            bp.mod = moduleOf(trimmed(spec.substr(5)),
                              "breakpoint '" + spec + "'");
        } else if (spec.rfind("array:", 0) == 0) {
            std::string rest = trimmed(spec.substr(6));
            size_t lb = rest.find('[');
            if (lb == std::string::npos) {
                bp.kind = BpState::Kind::kArrayWrite;
                bp.array = resolveArray(rest);
            } else {
                if (rest.back() != ']')
                    fatal("breakpoint '", spec, "': expected "
                          "\"array:name[index]\"");
                bp.kind = BpState::Kind::kArrayElem;
                bp.array = resolveArray(rest.substr(0, lb));
                bp.elem = parseLiteral(
                    rest.substr(lb + 1, rest.size() - lb - 2), spec);
                if (bp.elem >= bp.array->size())
                    fatal("breakpoint '", spec, "': index ", bp.elem,
                          " out of range for array '",
                          bp.array->name(), "' (size ",
                          bp.array->size(), ")");
            }
        } else if (spec.rfind("fifo:", 0) == 0) {
            std::string rest = trimmed(spec.substr(5));
            bp.kind = BpState::Kind::kFifoEvent;
            size_t colon = rest.find(':');
            if (colon != std::string::npos) {
                std::string ev = rest.substr(colon + 1);
                rest = rest.substr(0, colon);
                if (ev == "push")
                    bp.kind = BpState::Kind::kFifoPush;
                else if (ev == "pop")
                    bp.kind = BpState::Kind::kFifoPop;
                else if (ev == "overflow")
                    bp.kind = BpState::Kind::kFifoOverflow;
                else
                    fatal("breakpoint '", spec, "': unknown FIFO event '",
                          ev, "' (push / pop / overflow)");
            }
            bp.port = resolvePort(rest);
        } else {
            size_t eq = spec.find("==");
            if (eq != std::string::npos) {
                bp.kind = BpState::Kind::kValueEq;
                bp.value = resolveValue(trimmed(spec.substr(0, eq)));
                bp.cmp = parseLiteral(trimmed(spec.substr(eq + 2)),
                                      spec);
            } else {
                bp.kind = BpState::Kind::kValueChange;
                bp.value = resolveValue(spec);
            }
        }
        bp.prev = observe(bp);
        bp.primed = true;
        bps.push_back(std::move(bp));
        return int(bps.size()) - 1;
    }
};

DebugSession::DebugSession(sim::Engine &engine, const System &sys,
                           DebugOptions opts)
    : impl_(new Impl(engine, sys, opts))
{
}

DebugSession::~DebugSession() = default;

Stop
DebugSession::stepCycles(uint64_t n)
{
    return impl_->advance(impl_->be->cycle() + n, true);
}

Stop
DebugSession::runTo(uint64_t target)
{
    return impl_->advance(target, true);
}

Stop
DebugSession::reverseStep(uint64_t n)
{
    uint64_t cur = impl_->be->cycle();
    uint64_t floor = impl_->base.cycle;
    uint64_t target = cur > n ? cur - n : 0;
    if (target < floor)
        target = floor;
    return impl_->reverseTo(target);
}

Stop
DebugSession::reverseTo(uint64_t target)
{
    return impl_->reverseTo(target);
}

uint64_t DebugSession::cycle() const { return impl_->be->cycle(); }
bool DebugSession::finished() const { return impl_->be->finished(); }
const std::string &DebugSession::engine() const { return impl_->engine; }

int
DebugSession::addBreak(const std::string &spec)
{
    return impl_->addBp(spec, true);
}

int
DebugSession::addWatch(const std::string &spec)
{
    return impl_->addBp(spec, false);
}

void
DebugSession::setBreakEnabled(int index, bool enabled)
{
    if (index < 0 || size_t(index) >= impl_->bps.size())
        fatal("breakpoint index ", index, " out of range (",
              impl_->bps.size(), " registered)");
    impl_->bps[index].info.enabled = enabled;
}

const std::vector<Breakpoint> &
DebugSession::breakpoints() const
{
    impl_->bp_view.clear();
    for (const BpState &bp : impl_->bps)
        impl_->bp_view.push_back(bp.info);
    return impl_->bp_view;
}

const std::vector<HitRecord> &
DebugSession::hits() const
{
    return impl_->hit_log;
}

void
DebugSession::watchFaults(const sim::FaultInjector *injector)
{
    impl_->inj = injector;
}

uint64_t
DebugSession::read(const std::string &name) const
{
    return evalValue(impl_->resolveValue(name), *impl_->be);
}

uint64_t
DebugSession::readValue(const Value *value) const
{
    return evalValue(value, *impl_->be);
}

std::vector<uint64_t>
DebugSession::fifoContents(const Port *port) const
{
    std::vector<uint64_t> out;
    uint64_t occ = impl_->be->fifoOccupancy(port);
    out.reserve(size_t(occ));
    for (uint64_t i = 0; i < occ; ++i)
        out.push_back(impl_->be->readFifo(port, size_t(i)));
    return out;
}

std::vector<uint64_t>
DebugSession::fifoContents(const std::string &name) const
{
    return fifoContents(impl_->resolvePort(name));
}

std::vector<uint64_t>
DebugSession::arraySlice(const RegArray *array, size_t lo,
                         size_t n) const
{
    std::vector<uint64_t> out;
    for (size_t i = lo; i < array->size() && i < lo + n; ++i)
        out.push_back(impl_->be->readArray(array, i));
    return out;
}

std::vector<uint64_t>
DebugSession::arraySlice(const std::string &name, size_t lo,
                         size_t n) const
{
    return arraySlice(impl_->resolveArray(name), lo, n);
}

std::vector<StallRecord>
DebugSession::stallReasons(size_t n) const
{
    const auto &st = impl_->stalls;
    size_t from = st.size() > n ? st.size() - n : 0;
    return std::vector<StallRecord>(st.begin() + from, st.end());
}

sim::MetricsRegistry
DebugSession::metrics() const
{
    return impl_->be->metrics();
}

const std::vector<std::string> &
DebugSession::logOutput() const
{
    return impl_->be->logOutput();
}

const Value *
DebugSession::resolveValue(const std::string &name) const
{
    return impl_->resolveValue(name);
}

const Port *
DebugSession::resolvePort(const std::string &name) const
{
    return impl_->resolvePort(name);
}

const RegArray *
DebugSession::resolveArray(const std::string &name) const
{
    return impl_->resolveArray(name);
}

uint64_t DebugSession::keyframesTaken() const { return impl_->kf_taken; }
uint64_t DebugSession::keyframesEvicted() const
{
    return impl_->kf_evicted;
}
uint64_t DebugSession::keyframesRestored() const
{
    return impl_->kf_restored;
}
uint64_t DebugSession::cyclesRun() const { return impl_->cycles_run; }
uint64_t DebugSession::cyclesReexecuted() const
{
    return impl_->cycles_reexec;
}

std::string
DebugSession::summaryJson() const
{
    const Impl &im = *impl_;
    uint64_t total_hits = 0;
    for (const BpState &bp : im.bps)
        total_hits += bp.info.hits;
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("assassyn.debug.v1");
    w.key("design");
    w.value(im.sys.name());
    w.key("engine");
    w.value(im.engine);
    w.key("cycle");
    w.value(im.be->cycle());
    w.key("finished");
    w.value(im.be->finished());
    w.key("keyframe_every");
    w.value(im.opts.keyframe_every);
    w.key("keyframe_ring");
    w.value(uint64_t(im.opts.keyframe_ring));
    w.key("keyframes_taken");
    w.value(im.kf_taken);
    w.key("keyframes_evicted");
    w.value(im.kf_evicted);
    w.key("keyframes_restored");
    w.value(im.kf_restored);
    w.key("cycles_run");
    w.value(im.cycles_run);
    w.key("cycles_reexecuted");
    w.value(im.cycles_reexec);
    w.key("breakpoints_hit");
    w.value(total_hits);
    w.key("breakpoints");
    w.beginArray();
    for (const BpState &bp : im.bps) {
        w.beginObject();
        w.key("spec");
        w.value(bp.info.spec);
        w.key("kind");
        w.value(bp.info.stops ? "break" : "watch");
        w.key("enabled");
        w.value(bp.info.enabled);
        w.key("hits");
        w.value(bp.info.hits);
        w.endObject();
    }
    w.endArray();
    w.key("hits");
    w.beginArray();
    for (const HitRecord &h : im.hit_log) {
        w.beginObject();
        w.key("cycle");
        w.value(h.cycle);
        w.key("spec");
        w.value(h.spec);
        w.key("detail");
        w.value(h.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
DebugSession::writeSummary(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out.good())
        fatal("debug summary: cannot open '", path, "' for writing");
    out << summaryJson() << "\n";
}

const System &DebugSession::system() const { return impl_->sys; }

} // namespace debug
} // namespace assassyn
