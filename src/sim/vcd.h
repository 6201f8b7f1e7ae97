/**
 * @file
 * Value-change-dump (VCD) tracing for both engines.
 *
 * The paper's Fig. 2(d) observation — the event trace and the RTL
 * waveform are the same data transposed — is directly inspectable here:
 * enable tracing via SimOptions::vcd_path and open the dump in any
 * waveform viewer. Traced signals: every register-array element (arrays
 * up to 64 entries; larger arrays are memories), each stage's
 * executed-this-cycle strobe, and each FIFO's occupancy.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace assassyn {
namespace sim {

/**
 * Streams a 2-state VCD file through the locked OutputFile writer (path
 * collisions are a structured fatal() at construction). Values are
 * sampled once per cycle; each cycle's changes are composed into one
 * record and appended in one locked write at flush().
 */
class VcdWriter {
  public:
    explicit VcdWriter(std::string path) : out_(std::move(path)) {}

    /** Writes any record not yet flushed. */
    ~VcdWriter() { flush(); }

    VcdWriter(const VcdWriter &) = delete;
    VcdWriter &operator=(const VcdWriter &) = delete;

    /** Declare one signal; call before writeHeader. Returns its index. */
    size_t
    addSignal(const std::string &name, unsigned bits)
    {
        Signal s;
        s.name = name;
        s.bits = bits;
        s.code = encode(signals_.size());
        s.last = ~uint64_t(0); // force the first emission
        signals_.push_back(std::move(s));
        return signals_.size() - 1;
    }

    /** Emit the declaration header. */
    void
    writeHeader(const std::string &design)
    {
        rec_ += "$date reproduction run $end\n"
                "$version assassyn-cpp $end\n"
                "$timescale 1ns $end\n"
                "$scope module " +
                design + " $end\n";
        for (const Signal &s : signals_)
            rec_ += "$var wire " + std::to_string(s.bits) + " " + s.code +
                    " " + s.name + " $end\n";
        rec_ += "$upscope $end\n$enddefinitions $end\n";
        flush();
    }

    /** Begin a sample at @p cycle; then call set() for each signal. */
    void
    beginCycle(uint64_t cycle)
    {
        rec_ += '#';
        rec_ += std::to_string(cycle);
        rec_ += '\n';
    }

    /** Record one signal's current value (emitted only on change). */
    void
    set(size_t idx, uint64_t value)
    {
        Signal &s = signals_[idx];
        if (value == s.last)
            return;
        s.last = value;
        if (s.bits == 1) {
            rec_ += value ? '1' : '0';
        } else {
            rec_ += 'b';
            bool seen = false;
            for (int b = int(s.bits) - 1; b >= 0; --b) {
                int bit = int((value >> b) & 1);
                if (bit)
                    seen = true;
                if (seen || b == 0)
                    rec_ += char('0' + bit);
            }
            rec_ += ' ';
        }
        rec_ += s.code;
        rec_ += '\n';
    }

    /** Append the composed record to the file (once per sampled cycle). */
    void
    flush()
    {
        if (rec_.empty())
            return;
        out_.write(rec_);
        out_.flush();
        rec_.clear();
    }

  private:
    struct Signal {
        std::string name;
        unsigned bits;
        std::string code;
        uint64_t last;
    };

    /** Short printable identifier codes, base-94. */
    static std::string
    encode(size_t n)
    {
        std::string code;
        do {
            code += char('!' + n % 94);
            n /= 94;
        } while (n);
        return code;
    }

    OutputFile out_;
    std::string rec_; ///< the record being composed
    std::vector<Signal> signals_;
};

} // namespace sim
} // namespace assassyn
