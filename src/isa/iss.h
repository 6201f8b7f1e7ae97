/**
 * @file
 * Functional instruction-set simulator for the RV32I subset.
 *
 * The ISS is the golden reference for the CPU designs: it produces final
 * architectural state (registers, memory) and the dynamic instruction
 * count used to compute IPC, plus the branch statistics behind the
 * always-taken success-rate table of paper Sec. 7 Q6.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "isa/riscv.h"

namespace assassyn {
namespace isa {

/**
 * Statistics of one functional run.
 *
 * Retirement accounting matches the DSL CPUs (designs/cpu.h,
 * designs/ooo.h): `retired` counts instructions that completed
 * architecturally — including the halting ECALL — exactly like the
 * `retired` counter both cores increment at writeback/commit, so
 * grader IPC (retired / cycles) is comparable across all engines.
 * `fetched` counts instruction words decoded, which can exceed
 * `retired` when a step faults mid-execution; IPC must never be
 * computed from it.
 */
struct IssStats {
    uint64_t retired = 0;   ///< architecturally completed instructions
    uint64_t fetched = 0;   ///< instruction words fetched and decoded
    uint64_t branches = 0;
    uint64_t branches_taken = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    bool halted = false;
};

/** Per-instruction record produced by single-stepping. */
struct StepInfo {
    Decoded inst;
    uint32_t pc = 0;
    bool branch_taken = false;
    bool halted = false;
};

/** A simple word-addressed functional RV32I-subset machine. */
class Iss {
  public:
    /**
     * @param memory_words unified memory image (instructions + data),
     *                     word-addressed (byte address = index * 4)
     * @param entry_pc     initial program counter (byte address)
     */
    Iss(std::vector<uint32_t> memory_words, uint32_t entry_pc = 0);

    /** Execute until ECALL or @p max_insts retirements; returns stats. */
    IssStats run(uint64_t max_insts = 100'000'000);

    /**
     * Execute one instruction; drives trace-based timing models and the
     * grader's lockstep retirement diffing (src/grader). Stepping a
     * halted machine is a no-op that reports halted.
     */
    StepInfo stepOne();

    /** Statistics accumulated so far. */
    const IssStats &stats() const { return stats_; }

    uint32_t reg(unsigned idx) const { return regs_[idx]; }
    uint32_t pc() const { return pc_; }

    const std::vector<uint32_t> &memory() const { return mem_; }
    uint32_t loadWord(uint32_t byte_addr) const;
    void storeWord(uint32_t byte_addr, uint32_t value);

  private:
    void step();

    std::vector<uint32_t> mem_;
    uint32_t regs_[32] = {};
    uint32_t pc_;
    IssStats stats_;
};

} // namespace isa
} // namespace assassyn
