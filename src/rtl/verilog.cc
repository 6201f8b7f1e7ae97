#include "rtl/verilog.h"

#include <sstream>

#include "support/logging.h"

namespace assassyn {
namespace rtl {

namespace {

/** The library templates shared by every generated design. */
const char *kLibrary = R"(// Penetrable stage-buffer FIFO (paper Sec. 5.2, Fig. 10d). A depth-1
// instance degenerates to a plain stage register: a simultaneous pop and
// push transfers ownership of the single slot within one cycle.
// DROP_WHEN_FULL implements the kDropNewest backpressure policy
// (docs/robustness.md): a push arriving while the buffer is full (after
// this cycle's pop) is silently discarded, never corrupting count.
module assassyn_fifo #(parameter WIDTH = 32, parameter DEPTH = 2,
                       parameter DROP_WHEN_FULL = 0) (
    input  logic             clk,
    input  logic             rst_n,
    input  logic             push_valid,
    input  logic [WIDTH-1:0] push_data,
    input  logic             pop_ready,
    output logic             pop_valid,
    output logic [WIDTH-1:0] pop_data,
    output logic             full
);
    logic [WIDTH-1:0] payload [0:DEPTH-1];
    logic [$clog2(DEPTH+1)-1:0] count;
    logic [(DEPTH <= 1 ? 1 : $clog2(DEPTH))-1:0] front;

    assign pop_valid = count != '0;
    assign pop_data  = pop_valid ? payload[front] : '0;
    assign full      = count == DEPTH[$clog2(DEPTH+1)-1:0];

    always_ff @(posedge clk or negedge rst_n) begin
        if (!rst_n) begin
            count <= '0;
            front <= '0;
        end else begin
            automatic logic do_pop = pop_ready && (count != '0);
            automatic logic do_push = push_valid &&
                !(DROP_WHEN_FULL != 0 &&
                  (count - (do_pop ? 1 : 0)) == DEPTH);
            automatic logic [$clog2(DEPTH+1)-1:0] next_count =
                count - (do_pop ? 1'b1 : 1'b0) + (do_push ? 1'b1 : 1'b0);
            if (do_pop)
                front <= (front == DEPTH - 1) ? '0 : front + 1'b1;
            if (do_push) begin
                automatic int unsigned tail =
                    (front + count - (do_pop ? 1 : 0)) % DEPTH;
                payload[tail] <= push_data;
            end
            count <= next_count;
        end
    end
endmodule

// Event-bookkeeping counter (paper Sec. 5.2, Fig. 10b): activations from
// upstream callers are gathered by addition so no event is missed; the
// stage's wait-until clears one event per execution.
module assassyn_event_counter #(parameter WIDTH = 8, parameter FANIN = 1) (
    input  logic             clk,
    input  logic             rst_n,
    input  logic [FANIN-1:0] inc,
    input  logic             dec,
    output logic             pending
);
    logic [WIDTH-1:0] count;
    logic [WIDTH-1:0] delta;

    always_comb begin
        delta = '0;
        for (int i = 0; i < FANIN; i++)
            delta += {{(WIDTH-1){1'b0}}, inc[i]};
    end

    assign pending = count != '0;

    always_ff @(posedge clk or negedge rst_n) begin
        if (!rst_n)
            count <= '0;
        else
            count <= count + delta - {{(WIDTH-1){1'b0}}, dec};
    end
endmodule

)";

std::string
netRef(const Netlist &nl, uint32_t net)
{
    (void)nl;
    return "n" + std::to_string(net);
}

std::string
binExpr(const Netlist &nl, const Cell &cell)
{
    std::string a = netRef(nl, cell.a);
    std::string b = netRef(nl, cell.b);
    if (cell.sgn) {
        a = "$signed(" + a + ")";
        b = "$signed(" + b + ")";
    }
    auto op = static_cast<BinOpcode>(cell.sub);
    const char *sym = nullptr;
    switch (op) {
      case BinOpcode::kAdd: sym = "+"; break;
      case BinOpcode::kSub: sym = "-"; break;
      case BinOpcode::kMul: sym = "*"; break;
      case BinOpcode::kDiv: sym = "/"; break;
      case BinOpcode::kMod: sym = "%"; break;
      case BinOpcode::kAnd: sym = "&"; break;
      case BinOpcode::kOr:  sym = "|"; break;
      case BinOpcode::kXor: sym = "^"; break;
      case BinOpcode::kShl: sym = "<<"; break;
      case BinOpcode::kShr: sym = cell.sgn ? ">>>" : ">>"; break;
      case BinOpcode::kEq:  sym = "=="; break;
      case BinOpcode::kNe:  sym = "!="; break;
      case BinOpcode::kLt:  sym = "<"; break;
      case BinOpcode::kLe:  sym = "<="; break;
      case BinOpcode::kGt:  sym = ">"; break;
      case BinOpcode::kGe:  sym = ">="; break;
    }
    std::string expr = a + " " + sym + " " + b;
    // A zero divisor gives X in SystemVerilog; guard it to the engines'
    // contract (sim/tape.h divMod): all-ones for `/`, the dividend for `%`.
    // The signed all-ones is -1: an unsigned '1 arm would make the whole
    // conditional, and with it the division, unsigned.
    std::string zero = netRef(nl, cell.b) + " == 0 ? ";
    if (op == BinOpcode::kDiv)
        return zero + (cell.sgn ? "-1" : "'1") + " : " + expr;
    if (op == BinOpcode::kMod)
        return zero + a + " : " + expr;
    return expr;
}

std::string
cellExpr(const Netlist &nl, const Cell &cell)
{
    switch (cell.op) {
      case CellOp::kBin:
        return binExpr(nl, cell);
      case CellOp::kUn:
        switch (static_cast<UnOpcode>(cell.sub)) {
          case UnOpcode::kNot:
            return "~" + netRef(nl, cell.a);
          case UnOpcode::kNeg:
            return "-" + netRef(nl, cell.a);
          case UnOpcode::kRedOr:
            return "|" + netRef(nl, cell.a);
          case UnOpcode::kRedAnd:
            return "&" + netRef(nl, cell.a);
        }
        return "";
      case CellOp::kSlice:
        if (nl.netBits(cell.a) == 1 && cell.b_imm == 0 && cell.c_imm == 0)
            return netRef(nl, cell.a);
        return netRef(nl, cell.a) + "[" + std::to_string(cell.b_imm) + ":" +
               std::to_string(cell.c_imm) + "]";
      case CellOp::kConcat:
        return "{" + netRef(nl, cell.a) + ", " + netRef(nl, cell.b) + "}";
      case CellOp::kMux:
        return netRef(nl, cell.a) + " ? " + netRef(nl, cell.b) + " : " +
               netRef(nl, cell.c);
      case CellOp::kCast:
        if (static_cast<Cast::Mode>(cell.sub) == Cast::Mode::kSExt) {
            return std::to_string(cell.bits) + "'($signed(" +
                   netRef(nl, cell.a) + "))";
        }
        return std::to_string(cell.bits) + "'(" + netRef(nl, cell.a) + ")";
      case CellOp::kArrayRead: {
        const RegArray *arr = nl.arrays()[cell.aux].array;
        return netRef(nl, cell.a) + " < " + std::to_string(arr->size()) +
               " ? " + arr->name() + "[" + netRef(nl, cell.a) + "] : '0";
      }
    }
    return "";
}

std::string
displayFormat(const Log *lg)
{
    std::string out;
    const std::string &fmt = lg->fmt();
    for (size_t i = 0; i < fmt.size(); ++i) {
        if (i + 1 < fmt.size() && fmt[i] == '{' && fmt[i + 1] == '}') {
            out += "%0d";
            ++i;
        } else if (fmt[i] == '%') {
            out += "%%";
        } else {
            out += fmt[i];
        }
    }
    return out;
}

} // namespace

std::string
emitVerilog(const Netlist &nl)
{
    std::ostringstream os;
    os << "// Generated by the Assassyn C++ reproduction.\n"
       << "// Design: " << nl.sys().name() << "\n\n";
    os << kLibrary;

    os << "module " << nl.sys().name()
       << "_top (\n    input logic clk,\n    input logic rst_n\n);\n";

    // Net declarations.
    for (uint32_t net = 0; net < nl.numNets(); ++net) {
        os << "    logic ";
        if (nl.netBits(net) > 1)
            os << "[" << nl.netBits(net) - 1 << ":0] ";
        os << netRef(nl, net);
        if (!nl.netName(net).empty())
            os << " /* " << nl.netName(net) << " */";
        os << ";\n";
    }
    os << '\n';

    // Constants.
    for (const auto &[net, value] : nl.constNets()) {
        os << "    assign " << netRef(nl, net) << " = " << nl.netBits(net)
           << "'d" << value << ";\n";
    }
    os << '\n';

    // Register arrays (Fig. 10c): or-gathered write enables, one-hot
    // selected write data.
    for (const ArrayBlock &blk : nl.arrays()) {
        const RegArray *arr = blk.array;
        os << "    ";
        if (arr->isMemory())
            os << "(* blackbox_memory *) ";
        os << "logic [" << arr->elemType().bits() - 1 << ":0] " << arr->name()
           << " [0:" << arr->size() - 1 << "];\n";
        os << "    always_ff @(posedge clk) begin\n";
        for (const WriteSite &site : blk.writes) {
            os << "        if (" << netRef(nl, site.enable) << ") "
               << arr->name() << "[" << netRef(nl, site.index)
               << "] <= " << netRef(nl, site.data) << ";\n";
        }
        os << "    end\n";
    }
    os << '\n';

    // FIFO stage buffers with push gathering (Fig. 10d).
    for (size_t i = 0; i < nl.fifos().size(); ++i) {
        const FifoBlock &blk = nl.fifos()[i];
        std::string base = blk.port->owner()->name() + "__" +
                           blk.port->name();
        os << "    logic " << base << "__push_valid;\n"
           << "    logic [" << blk.width - 1 << ":0] " << base
           << "__push_data;\n"
           << "    logic " << base << "__pop_ready;\n";
        // push_valid = | enables; push_data = one-hot select.
        os << "    assign " << base << "__push_valid = ";
        if (blk.pushes.empty()) {
            os << "1'b0";
        } else {
            for (size_t k = 0; k < blk.pushes.size(); ++k) {
                if (k)
                    os << " | ";
                os << netRef(nl, blk.pushes[k].enable);
            }
        }
        os << ";\n";
        os << "    assign " << base << "__push_data = ";
        if (blk.pushes.empty()) {
            os << "'0";
        } else {
            for (size_t k = 0; k < blk.pushes.size(); ++k) {
                os << "(" << netRef(nl, blk.pushes[k].enable) << " ? "
                   << netRef(nl, blk.pushes[k].data) << " : ";
            }
            os << "'0";
            for (size_t k = 0; k < blk.pushes.size(); ++k)
                os << ")";
        }
        os << ";\n";
        os << "    assign " << base << "__pop_ready = ";
        if (blk.deq_enables.empty()) {
            os << "1'b0";
        } else {
            for (size_t k = 0; k < blk.deq_enables.size(); ++k) {
                if (k)
                    os << " | ";
                os << netRef(nl, blk.deq_enables[k]);
            }
        }
        os << ";\n";
        os << "    assassyn_fifo #(.WIDTH(" << blk.width << "), .DEPTH("
           << blk.depth << ")";
        if (blk.port->policy() == FifoPolicy::kDropNewest)
            os << ", .DROP_WHEN_FULL(1)";
        os << ") " << base << "__fifo (\n"
           << "        .clk(clk), .rst_n(rst_n),\n"
           << "        .push_valid(" << base << "__push_valid), .push_data("
           << base << "__push_data),\n"
           << "        .pop_ready(" << base << "__pop_ready), .pop_valid("
           << netRef(nl, blk.pop_valid) << "), .pop_data("
           << netRef(nl, blk.pop_data) << ")";
        if (blk.full != kNoNet)
            os << ",\n        .full(" << netRef(nl, blk.full) << ")";
        os << ");\n";
    }
    os << '\n';

    // Event counters (Fig. 10b).
    for (const CounterBlock &blk : nl.counters()) {
        std::string base = blk.mod->name() + "__events";
        size_t fanin = std::max<size_t>(1, blk.incs.size());
        os << "    logic [" << fanin - 1 << ":0] " << base << "__inc;\n";
        if (blk.incs.empty()) {
            os << "    assign " << base << "__inc = 1'b0;\n";
        } else {
            for (size_t k = 0; k < blk.incs.size(); ++k) {
                os << "    assign " << base << "__inc[" << k
                   << "] = " << netRef(nl, blk.incs[k]) << ";\n";
            }
        }
        os << "    assassyn_event_counter #(.WIDTH(8), .FANIN(" << fanin
           << ")) " << base << " (\n"
           << "        .clk(clk), .rst_n(rst_n), .inc(" << base
           << "__inc), .dec(" << netRef(nl, blk.dec) << "), .pending("
           << netRef(nl, blk.nonzero) << "));\n";
    }
    os << '\n';

    // Combinational cells, grouped under per-stage banners so the
    // generated text keeps its correspondence to the high-level design
    // (the readability property Sec. 8.2 highlights).
    const Module *current_origin = nullptr;
    bool first_banner = true;
    for (const Cell &cell : nl.cells()) {
        if (cell.origin != current_origin || first_banner) {
            current_origin = cell.origin;
            first_banner = false;
            os << "    // ---- stage: "
               << (cell.origin ? cell.origin->name() : "<top>")
               << " ----\n";
        }
        os << "    assign " << netRef(nl, cell.out) << " = "
           << cellExpr(nl, cell) << ";\n";
    }
    os << '\n';

    // Testbench monitors.
    os << "    always_ff @(posedge clk) begin\n";
    for (const MonitorBlock &mon : nl.monitors()) {
        switch (mon.kind) {
          case MonitorBlock::Kind::kLog: {
            const auto *lg = static_cast<const Log *>(mon.inst);
            os << "        if (" << netRef(nl, mon.enable) << ") $display(\""
               << displayFormat(lg) << "\"";
            for (size_t k = 0; k < mon.args.size(); ++k) {
                os << ", ";
                if (lg->args()[k]->type().isSigned())
                    os << "$signed(" << netRef(nl, mon.args[k]) << ")";
                else
                    os << netRef(nl, mon.args[k]);
            }
            os << ");\n";
            break;
          }
          case MonitorBlock::Kind::kAssert: {
            const auto *as = static_cast<const AssertInst *>(mon.inst);
            os << "        if (" << netRef(nl, mon.enable) << " && !"
               << netRef(nl, mon.args[0]) << ") $fatal(1, \"" << as->msg()
               << "\");\n";
            break;
          }
          case MonitorBlock::Kind::kFinish:
            os << "        if (" << netRef(nl, mon.enable)
               << ") $finish;\n";
            break;
        }
    }
    os << "    end\n";

    os << "endmodule\n";
    return os.str();
}

} // namespace rtl
} // namespace assassyn
