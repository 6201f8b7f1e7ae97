#include "rtl/netlist.h"

#include <map>
#include <set>
#include <sstream>

#include "core/compiler/walk.h"
#include "rtl/compiled_netlist.h"
#include "support/bits.h"
#include "support/hash.h"
#include "support/logging.h"
#include "support/profiler.h"

namespace assassyn {
namespace rtl {

namespace {

/** Apply @p fn to every input net the cell actually reads. */
template <typename F>
void
forEachCellInput(const Cell &cell, F &&fn)
{
    switch (cell.op) {
      case CellOp::kBin:
      case CellOp::kConcat:
        fn(cell.a);
        fn(cell.b);
        break;
      case CellOp::kMux:
        fn(cell.a);
        fn(cell.b);
        fn(cell.c);
        break;
      case CellOp::kUn:
      case CellOp::kSlice:
      case CellOp::kCast:
      case CellOp::kArrayRead:
        fn(cell.a);
        break;
    }
}

} // namespace

/** Elaborates a lowered System into a Netlist. */
class NetlistBuilder {
  public:
    NetlistBuilder(const System &sys, Netlist &nl) : sys_(sys), nl_(nl) {}

    void
    build()
    {
        if (!sys_.isLowered())
            fatal("RTL elaboration requires a compiled/lowered system");
        if (sys_.topoOrder().empty())
            fatal("RTL elaboration requires a topological stage order");

        const0_ = constNet(0, 1, "const0");
        const1_ = constNet(1, 1, "const1");

        // Dense compile-time index tables (by Module::id / Value::id),
        // assigned up front so every later lookup is a vector index.
        size_t num_mods = sys_.modules().size();
        nl_.exec_net_.assign(num_mods, kNoNet);
        nl_.counter_of_.assign(num_mods, -1);
        nl_.port_base_.assign(num_mods, 0);
        uint32_t num_ports = 0;
        uint32_t num_values = 0;
        value_base_.assign(num_mods, 0);
        for (const auto &mod : sys_.modules()) {
            nl_.port_base_[mod->id()] = num_ports;
            num_ports += static_cast<uint32_t>(mod->numPorts());
            value_base_[mod->id()] = num_values;
            num_values += static_cast<uint32_t>(mod->nodes().size());
        }
        nl_.fifo_of_.assign(num_ports, kNoNet);
        net_of_.assign(num_values, kNoNet);

        // Pre-allocate all state blocks so cross-module pushes and
        // subscriptions have a destination regardless of build order.
        for (const auto &arr : sys_.arrays()) {
            ArrayBlock blk;
            blk.array = arr.get();
            nl_.arrays_.push_back(blk); // block index == RegArray::id()
        }
        for (Module *mod : sys_.topoOrder()) {
            for (const auto &port : mod->ports()) {
                nl_.fifo_of_[nl_.port_base_[mod->id()] + port->index()] =
                    static_cast<uint32_t>(nl_.fifos_.size());
                FifoBlock blk;
                blk.port = port.get();
                blk.width = port->type().bits();
                blk.depth = port->depth();
                blk.pop_data = newNet(blk.width, mod->name() + "__" +
                                                     port->name() +
                                                     "__pop_data");
                blk.pop_valid = newNet(1, mod->name() + "__" + port->name() +
                                              "__pop_valid");
                if (port->policy() == FifoPolicy::kStallProducer)
                    blk.full = newNet(1, mod->name() + "__" + port->name() +
                                             "__full");
                nl_.fifos_.push_back(blk);
            }
            if (!mod->isDriver()) {
                nl_.counter_of_[mod->id()] =
                    static_cast<int32_t>(nl_.counters_.size());
                CounterBlock blk;
                blk.mod = mod;
                blk.nonzero = newNet(1, mod->name() + "__event_pending");
                nl_.counters_.push_back(blk);
            }
        }

        // Elaborate stages in topological order so that cross-stage
        // combinational references always hit already-built producers.
        // Each stage's cells form one contiguous range — its cone.
        for (Module *mod : sys_.topoOrder()) {
            Cone cone;
            cone.begin = static_cast<uint32_t>(nl_.cells_.size());
            buildModule(*mod);
            cone.end = static_cast<uint32_t>(nl_.cells_.size());
            nl_.cones_.push_back(cone);
        }

        // Hook the counter decrements (wait-until clears the event by
        // subtracting one, Fig. 10b).
        for (auto &ctr : nl_.counters_)
            ctr.dec = nl_.exec_net_[ctr.mod->id()];

        nl_.finalize();
    }

  private:
    OriginTag
    tagFor(const Module *mod) const
    {
        return mod->isGenerated() ? OriginTag::kSm : OriginTag::kFunc;
    }

    uint32_t
    newNet(unsigned bits, std::string name)
    {
        nl_.net_bits_.push_back(bits);
        nl_.net_names_.push_back(std::move(name));
        return static_cast<uint32_t>(nl_.net_bits_.size() - 1);
    }

    uint32_t
    constNet(uint64_t value, unsigned bits, const std::string &name)
    {
        auto key = std::make_pair(value, bits);
        auto it = const_cache_.find(key);
        if (it != const_cache_.end())
            return it->second;
        uint32_t net = newNet(bits, name);
        nl_.consts_[net] = truncate(value, bits);
        const_cache_[key] = net;
        return net;
    }

    Cell &
    addCell(CellOp op, unsigned bits, const Module *origin)
    {
        Cell cell;
        cell.op = op;
        cell.bits = bits;
        cell.out = newNet(bits, "");
        cell.origin = origin;
        cell.tag = origin ? tagFor(origin) : OriginTag::kFunc;
        nl_.cells_.push_back(cell);
        return nl_.cells_.back();
    }

    uint32_t
    andNet(uint32_t a, uint32_t b, const Module *origin)
    {
        if (a == const1_)
            return b;
        if (b == const1_)
            return a;
        Cell &cell = addCell(CellOp::kBin, 1, origin);
        cell.sub = static_cast<uint8_t>(BinOpcode::kAnd);
        cell.opnd_bits = 1;
        cell.a = a;
        cell.b = b;
        return cell.out;
    }

    /** Dense slot of a value in net_of_ (Module::id x Value::id). */
    uint32_t
    valueSlot(const Value *val) const
    {
        if (!val->parent())
            panic("netlist: value with no owning module arena");
        return value_base_[val->parent()->id()] + val->id();
    }

    /** Build (memoized) the net computing @p val. */
    uint32_t
    netOf(const Value *val)
    {
        val = chaseRef(const_cast<Value *>(val));
        uint32_t slot = valueSlot(val);
        if (net_of_[slot] != kNoNet)
            return net_of_[slot];

        uint32_t net = 0;
        switch (val->valueKind()) {
          case Value::Kind::kConst: {
            const auto *c = static_cast<const ConstInt *>(val);
            net = constNet(c->raw(), c->type().bits(), "const");
            break;
          }
          case Value::Kind::kCrossRef:
            fatal("unresolved cross-stage reference during RTL elaboration");
          case Value::Kind::kInstr:
            net = buildInstr(static_cast<const Instruction *>(val));
            break;
        }
        net_of_[slot] = net;
        return net;
    }

    uint32_t
    buildInstr(const Instruction *inst)
    {
        const Module *origin = inst->parent();
        switch (inst->opcode()) {
          case Opcode::kBinOp: {
            const auto *bin = static_cast<const BinOp *>(inst);
            uint32_t a = netOf(bin->lhs());
            uint32_t b = netOf(bin->rhs());
            Cell &cell = addCell(CellOp::kBin, bin->type().bits(), origin);
            cell.sub = static_cast<uint8_t>(bin->binOpcode());
            cell.sgn = bin->lhs()->type().isSigned();
            cell.opnd_bits = bin->lhs()->type().bits();
            cell.a = a;
            cell.b = b;
            return cell.out;
          }
          case Opcode::kUnOp: {
            const auto *un = static_cast<const UnOp *>(inst);
            uint32_t a = netOf(un->value());
            Cell &cell = addCell(CellOp::kUn, un->type().bits(), origin);
            cell.sub = static_cast<uint8_t>(un->unOpcode());
            cell.opnd_bits = un->value()->type().bits();
            cell.a = a;
            return cell.out;
          }
          case Opcode::kSlice: {
            const auto *sl = static_cast<const Slice *>(inst);
            uint32_t a = netOf(sl->value());
            Cell &cell = addCell(CellOp::kSlice, sl->type().bits(), origin);
            cell.a = a;
            cell.b_imm = sl->hi();
            cell.c_imm = sl->lo();
            return cell.out;
          }
          case Opcode::kConcat: {
            const auto *cc = static_cast<const Concat *>(inst);
            uint32_t a = netOf(cc->msb());
            uint32_t b = netOf(cc->lsb());
            Cell &cell = addCell(CellOp::kConcat, cc->type().bits(), origin);
            cell.a = a;
            cell.b = b;
            cell.c_imm = cc->lsb()->type().bits();
            return cell.out;
          }
          case Opcode::kSelect: {
            const auto *sel = static_cast<const Select *>(inst);
            uint32_t a = netOf(sel->cond());
            uint32_t b = netOf(sel->onTrue());
            uint32_t c = netOf(sel->onFalse());
            Cell &cell = addCell(CellOp::kMux, sel->type().bits(), origin);
            cell.a = a;
            cell.b = b;
            cell.c = c;
            return cell.out;
          }
          case Opcode::kCast: {
            const auto *cast = static_cast<const Cast *>(inst);
            uint32_t a = netOf(cast->value());
            Cell &cell = addCell(CellOp::kCast, cast->type().bits(), origin);
            cell.sub = static_cast<uint8_t>(cast->mode());
            cell.opnd_bits = cast->value()->type().bits();
            cell.a = a;
            return cell.out;
          }
          case Opcode::kFifoValid: {
            const auto *fv = static_cast<const FifoValid *>(inst);
            return nl_.fifos_[nl_.fifoIndex(fv->port())].pop_valid;
          }
          case Opcode::kFifoPop: {
            const auto *fp = static_cast<const FifoPop *>(inst);
            return nl_.fifos_[nl_.fifoIndex(fp->port())].pop_data;
          }
          case Opcode::kArrayRead: {
            const auto *rd = static_cast<const ArrayRead *>(inst);
            uint32_t idx = netOf(rd->index());
            Cell &cell = addCell(CellOp::kArrayRead,
                                 rd->type().bits(), origin);
            cell.a = idx;
            cell.aux = rd->array()->id();
            return cell.out;
          }
          default:
            fatal("instruction with no RTL value used as an operand");
        }
    }

    /** Walk a body block, gathering side effects under @p enable. */
    void
    buildEffects(const Module &mod, const Block &blk, uint32_t enable)
    {
        for (auto *inst : blk.insts()) {
            switch (inst->opcode()) {
              case Opcode::kCondBlock: {
                auto *cb = static_cast<CondBlock *>(inst);
                uint32_t inner =
                    andNet(enable, netOf(cb->cond()), &mod);
                buildEffects(mod, *cb->body(), inner);
                break;
              }
              case Opcode::kFifoPop: {
                auto *fp = static_cast<FifoPop *>(inst);
                nl_.fifos_[nl_.fifoIndex(fp->port())]
                    .deq_enables.push_back(enable);
                break;
              }
              case Opcode::kFifoPush: {
                auto *push = static_cast<FifoPush *>(inst);
                uint32_t data = netOf(push->value());
                nl_.fifos_[nl_.fifoIndex(push->port())].pushes.push_back(
                    {enable, data, &mod});
                break;
              }
              case Opcode::kArrayWrite: {
                auto *wr = static_cast<ArrayWrite *>(inst);
                uint32_t idx = netOf(wr->index());
                uint32_t data = netOf(wr->value());
                nl_.arrays_[wr->array()->id()].writes.push_back(
                    {enable, idx, data});
                break;
              }
              case Opcode::kSubscribe: {
                auto *sub = static_cast<Subscribe *>(inst);
                int32_t ctr = nl_.counter_of_[sub->callee()->id()];
                if (ctr < 0)
                    fatal("subscribe to driver stage '",
                          sub->callee()->name(), "'");
                nl_.counters_[ctr].incs.push_back(enable);
                break;
              }
              case Opcode::kLog: {
                auto *lg = static_cast<Log *>(inst);
                MonitorBlock mon;
                mon.kind = MonitorBlock::Kind::kLog;
                mon.enable = enable;
                mon.inst = inst;
                for (Value *arg : lg->args())
                    mon.args.push_back(netOf(arg));
                nl_.monitors_.push_back(std::move(mon));
                break;
              }
              case Opcode::kAssertInst: {
                auto *as = static_cast<AssertInst *>(inst);
                MonitorBlock mon;
                mon.kind = MonitorBlock::Kind::kAssert;
                mon.enable = enable;
                mon.inst = inst;
                mon.args.push_back(netOf(as->cond()));
                nl_.monitors_.push_back(std::move(mon));
                break;
              }
              case Opcode::kFinish: {
                MonitorBlock mon;
                mon.kind = MonitorBlock::Kind::kFinish;
                mon.enable = enable;
                mon.inst = inst;
                nl_.monitors_.push_back(std::move(mon));
                break;
              }
              case Opcode::kAsyncCall:
              case Opcode::kBind:
                fatal("un-lowered call reached RTL elaboration");
              default:
                // Pure logic: built on demand by its consumers; building
                // here keeps dead user logic in the netlist too, matching
                // RTL (synthesis would trim it, our area model keeps it
                // conservative).
                netOf(inst);
            }
        }
    }

    /** ~a as a 1-bit cell. */
    uint32_t
    notNet(uint32_t a, const Module *origin)
    {
        Cell &cell = addCell(CellOp::kUn, 1, origin);
        cell.sub = static_cast<uint8_t>(UnOpcode::kNot);
        cell.opnd_bits = 1;
        cell.a = a;
        return cell.out;
    }

    void
    buildModule(const Module &mod)
    {
        // exec_valid = event_pending & wait_cond (Fig. 10a/b); a driver
        // stage is unconditionally pending every cycle (Sec. 3.8).
        uint32_t pending =
            mod.isDriver()
                ? const1_
                : nl_.counters_[nl_.counter_of_[mod.id()]].nonzero;
        uint32_t wait =
            mod.waitCond() ? netOf(mod.waitCond()) : const1_;
        uint32_t exec = andNet(pending, wait, &mod);
        // Backpressure gate: pushing into a full kStallProducer FIFO
        // blocks the whole stage (exec &= ~full), retaining its event —
        // the same pre-wait gate the event simulator applies, so the
        // two backends classify stall cycles identically.
        std::set<const Port *> stall_seen;
        forEachInst(mod, [&](Instruction *inst) {
            if (inst->opcode() != Opcode::kFifoPush)
                return;
            const Port *port = static_cast<FifoPush *>(inst)->port();
            if (port->policy() != FifoPolicy::kStallProducer ||
                !stall_seen.insert(port).second)
                return;
            uint32_t full = nl_.fifos_[nl_.fifoIndex(port)].full;
            exec = andNet(exec, notNet(full, &mod), &mod);
        });
        nl_.exec_net_[mod.id()] = exec;
        buildEffects(mod, mod.body(), exec);
        // Exposures are always-on wires: force their cones into existence
        // even if no consumer was elaborated yet.
        for (const auto &[name, val] : mod.exposures()) {
            bool is_bind =
                val->valueKind() == Value::Kind::kInstr &&
                static_cast<const Instruction *>(val)->opcode() ==
                    Opcode::kBind;
            if (!is_bind)
                netOf(val);
        }
    }

    const System &sys_;
    Netlist &nl_;
    uint32_t const0_ = 0;
    uint32_t const1_ = 0;
    std::vector<uint32_t> value_base_; ///< by Module::id
    std::vector<uint32_t> net_of_;     ///< by value_base_ + Value::id
    std::map<std::pair<uint64_t, unsigned>, uint32_t> const_cache_;
};

void
Netlist::finalize()
{
    HostProfiler::Scope prof_span("Netlist::finalize");
    levelize();
    buildTape();
    buildTables();
    fingerprint_ = 0;
    auto hash = [this](const auto &vec) {
        fingerprint_ = hashBytes(fingerprint_, vec.data(),
                                 vec.size() * sizeof(vec[0]));
    };
    auto hashLists = [&hash](const auto &lists) {
        hash(lists.at);
        hash(lists.rows);
    };
    const CycleTables &t = tables_;
    hash(tape_);
    hash(cones_);
    hash(t.fifos);
    hashLists(t.deqs);
    hashLists(t.pushes);
    hash(t.elem_bits);
    hashLists(t.writes);
    hash(t.counters);
    hashLists(t.incs);
    hash(t.stages);
    hashLists(t.stalls);
    hash(t.monitors);
    hashLists(t.args);
    hash(t.const_nets);
    hash(t.const_values);
    compiled_ = nullptr;
    if (evaluator_ == sim::Evaluator::kCompiled && !cones_.empty())
        attachCompiled();
}

void
Netlist::buildTables()
{
    CycleTables &t = tables_;
    t = CycleTables{};
    auto fifoId = [this](const Port *port) {
        return port_base_[port->owner()->id()] + uint32_t(port->index());
    };
    for (const FifoBlock &blk : fifos_) {
        t.fifos.push_back({fifoId(blk.port), blk.pop_data, blk.pop_valid,
                           blk.full, blk.width});
        t.deqs.rows.insert(t.deqs.rows.end(), blk.deq_enables.begin(),
                           blk.deq_enables.end());
        t.deqs.close();
        for (const PushSite &site : blk.pushes)
            t.pushes.rows.push_back(
                {site.enable, site.data,
                 site.origin ? uint32_t(site.origin->id()) : kNoNet});
        t.pushes.close();
    }
    for (const ArrayBlock &blk : arrays_) {
        t.elem_bits.push_back(blk.array->elemType().bits());
        for (const WriteSite &site : blk.writes)
            t.writes.rows.push_back({site.enable, site.index, site.data});
        t.writes.close();
    }
    for (const CounterBlock &blk : counters_) {
        t.counters.push_back({uint32_t(blk.mod->id()), blk.nonzero, blk.dec});
        t.incs.rows.insert(t.incs.rows.end(), blk.incs.begin(),
                           blk.incs.end());
        t.incs.close();
    }
    for (const Module *mod : sys_->topoOrder()) {
        t.stages.push_back({uint32_t(mod->id()), execNet(mod),
                            counterIndex(mod) < 0 ? 1u : 0u});
        for (const Port *p : analyzer_.stallPorts(mod))
            t.stalls.rows.push_back(fifoId(p));
        t.stalls.close();
    }
    for (const MonitorBlock &mon : monitors_) {
        t.monitors.push_back({uint32_t(mon.kind), mon.enable});
        t.args.rows.insert(t.args.rows.end(), mon.args.begin(),
                           mon.args.end());
        t.args.close();
    }
    for (const auto &[net, value] : consts_) {
        t.const_nets.push_back(net);
        t.const_values.push_back(value);
    }
}

namespace {

template <class T, class C>
bool
sameLists(const RowLists<T> &mine, const C &theirs)
{
    return sameBytes(mine.at, theirs.at, theirs.size + 1) &&
           sameBytes(mine.rows, theirs.rows, theirs.at[theirs.size]);
}

} // namespace

/**
 * Look the netlist up among the generated cycles linked into the
 * binary, as sim::Program does: by fingerprint, then confirmed by byte
 * equality of every input the generated code was specialized on (the
 * tape and cone ranges its cells come from, and every cycle table it
 * unrolls), so a hash collision can only cost the lookup, never a
 * wrong cycle.
 */
void
Netlist::attachCompiled()
{
    const CycleTables &t = tables_;
    const CompiledNetlists all = compiledNetlists();
    for (size_t i = 0; i < all.size; ++i) {
        const CompiledNetlist &cn = *all.list[i];
        if (cn.fingerprint == fingerprint_ &&
            sameBytes(tape_, cn.tape, cn.tape_len) &&
            sameBytes(cones_, cn.cones, cn.num_cones) &&
            sameBytes(t.fifos, cn.fifos, cn.num_fifos) &&
            sameLists(t.deqs, cn.deqs) && sameLists(t.pushes, cn.pushes) &&
            sameBytes(t.elem_bits, cn.elem_bits, cn.num_arrays) &&
            sameLists(t.writes, cn.writes) &&
            sameBytes(t.counters, cn.counters, cn.num_counters) &&
            sameLists(t.incs, cn.incs) &&
            sameBytes(t.stages, cn.stages, cn.num_stages) &&
            sameLists(t.stalls, cn.stalls) &&
            sameBytes(t.monitors, cn.monitors, cn.num_monitors) &&
            sameLists(t.args, cn.args) &&
            sameBytes(t.const_nets, cn.const_nets, cn.num_consts) &&
            sameBytes(t.const_values, cn.const_values, cn.num_consts)) {
            compiled_ = &cn;
            return;
        }
    }
}

void
Netlist::levelize()
{
    comb_cycle_.clear();
    constexpr uint32_t kNoCell = 0xffffffffu;
    std::vector<uint32_t> producer(net_bits_.size(), kNoCell);
    for (size_t i = 0; i < cells_.size(); ++i)
        producer[cells_[i].out] = static_cast<uint32_t>(i);

    // The builder creates operand cells before their consumers, so the
    // stored order is levelized by construction; verify in O(cells).
    bool ordered = true;
    for (size_t i = 0; i < cells_.size() && ordered; ++i)
        forEachCellInput(cells_[i], [&](uint32_t n) {
            uint32_t p = producer[n];
            if (p != kNoCell && p >= i)
                ordered = false;
        });
    if (ordered)
        return;

    // Out-of-order cells (hand-built or mutated netlists only): fall
    // back to a full levelization. The stage ranges no longer hold, so
    // the cones are dropped and the netlist runs its tape.
    cones_.clear();
    std::vector<bool> ready(net_bits_.size(), false);
    for (uint32_t n = 0; n < producer.size(); ++n)
        ready[n] = producer[n] == kNoCell; // state/const nets
    std::vector<Cell> order;
    order.reserve(cells_.size());
    std::vector<bool> placed(cells_.size(), false);
    size_t remaining = cells_.size();
    bool progress = true;
    while (remaining && progress) {
        progress = false;
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (placed[i])
                continue;
            bool ok = true;
            forEachCellInput(cells_[i],
                             [&](uint32_t n) { ok &= ready[n]; });
            if (!ok)
                continue;
            placed[i] = true;
            ready[cells_[i].out] = true;
            order.push_back(cells_[i]);
            --remaining;
            progress = true;
        }
    }
    if (remaining) {
        // A residual combinational cycle: no evaluation order exists.
        // Name the cells so the error is actionable; the simulator
        // refuses to run and surfaces this as a structured RunResult
        // instead of sweeping forever (docs/performance.md).
        std::ostringstream os;
        os << "combinational cycle through " << remaining << " cell(s):";
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (placed[i])
                continue;
            const Cell &c = cells_[i];
            os << " cell#" << i << "->net" << c.out;
            if (!net_names_[c.out].empty())
                os << " '" << net_names_[c.out] << "'";
            if (c.origin)
                os << "(stage '" << c.origin->name() << "')";
        }
        comb_cycle_ = os.str();
        return;
    }
    cells_ = std::move(order);
}

void
Netlist::buildTape()
{
    using sim::DOp;
    tape_.assign(cells_.size(), sim::DStep{});
    for (size_t i = 0; i < cells_.size(); ++i) {
        const Cell &cell = cells_[i];
        sim::DStep &s = tape_[i];
        s.a = cell.a;
        s.b = cell.b;
        s.dest = cell.out;
        switch (cell.op) {
          case CellOp::kBin:
            sim::encodeBin(s, static_cast<BinOpcode>(cell.sub), cell.sgn,
                           cell.opnd_bits, cell.bits);
            break;
          case CellOp::kUn:
            sim::encodeUn(s, static_cast<UnOpcode>(cell.sub),
                          cell.opnd_bits, cell.bits);
            break;
          case CellOp::kSlice:
            sim::encodeSlice(s, cell.b_imm, cell.c_imm);
            break;
          case CellOp::kConcat:
            sim::encodeConcat(s, cell.c_imm, cell.bits);
            break;
          case CellOp::kMux:
            s.op = uint8_t(DOp::kSelect);
            s.u.ca.c = cell.c;
            break;
          case CellOp::kCast:
            sim::encodeCast(s, static_cast<Cast::Mode>(cell.sub),
                            cell.opnd_bits, cell.bits);
            break;
          case CellOp::kArrayRead:
            s.op = uint8_t(DOp::kArrayRead);
            s.b = cell.aux;
            break;
        }
    }
}

Netlist::Netlist(const System &sys, sim::Evaluator ev)
    : sys_(&sys), evaluator_(ev), analyzer_(sys)
{
    NetlistBuilder builder(sys, *this);
    builder.build();
}

} // namespace rtl
} // namespace assassyn
