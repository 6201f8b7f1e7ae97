/**
 * @file
 * White-box mutation hooks of rtl::Netlist for the tests (a friend of
 * the class): edit the cell list or the FIFO blocks, or add nets, then
 * re-run finalize() — levelization, tape decode, the cycle tables and
 * the compiled-cycle lookup — over the result.
 */
#pragma once

#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace assassyn {
namespace rtl {

class NetlistTestPeer {
  public:
    static std::vector<Cell> &cells(Netlist &nl) { return nl.cells_; }

    static std::vector<FifoBlock> &fifos(Netlist &nl) { return nl.fifos_; }

    static uint32_t
    addNet(Netlist &nl, unsigned bits, const std::string &name)
    {
        nl.net_bits_.push_back(bits);
        nl.net_names_.push_back(name);
        return static_cast<uint32_t>(nl.net_bits_.size() - 1);
    }

    static void refinalize(Netlist &nl) { nl.finalize(); }
};

} // namespace rtl
} // namespace assassyn
