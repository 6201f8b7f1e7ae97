/**
 * @file
 * Differential fuzzing of the CPUs: random (always-terminating) RV32I
 * programs run on the functional ISS, all three in-order branch-policy
 * variants, and the out-of-order core; final registers, memory, and
 * retired-instruction counts must agree everywhere.
 *
 * Programs are forward-control-flow only (forward branches and jumps,
 * plus one bounded back-edge loop pattern), so termination is
 * guaranteed by construction. Loads and stores are confined to a
 * scratch region addressed off a preloaded base register.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "designs/cpu.h"
#include "designs/ooo.h"
#include "isa/iss.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/rng.h"

namespace assassyn {
namespace {

/** Emits a random assembly program. */
std::string
randomProgram(uint64_t seed, int body_len)
{
    Rng rng(seed);
    std::ostringstream os;
    auto reg = [&](bool allow_x0 = true) {
        // Stay inside x5..x15 plus optionally x0, keeping s0 (x8) as the
        // scratch base and s1 (x9) as the loop counter.
        static const char *pool[] = {"x5", "x6", "x7", "x10", "x11",
                                     "x12", "x13", "x14", "x15"};
        if (allow_x0 && rng.below(8) == 0)
            return std::string("x0");
        return std::string(pool[rng.below(9)]);
    };

    os << "    li s0, 0x100\n";  // scratch base (byte address)
    os << "    li s1, 3\n";      // bounded loop counter
    for (const char *r : {"x5", "x6", "x7", "x10", "x11", "x12", "x13",
                          "x14", "x15"})
        os << "    li " << r << ", " << int64_t(rng.below(4096)) - 2048
           << "\n";

    os << "outer:\n";
    for (int i = 0; i < body_len; ++i) {
        switch (rng.below(10)) {
          case 0:
          case 1: {
            static const char *ops[] = {"add", "sub", "and", "or", "xor",
                                        "sll", "srl", "sra", "slt",
                                        "sltu"};
            os << "    " << ops[rng.below(10)] << " " << reg(false) << ", "
               << reg() << ", " << reg() << "\n";
            break;
          }
          case 2: {
            static const char *ops[] = {"addi", "andi", "ori", "xori",
                                        "slti", "sltiu"};
            os << "    " << ops[rng.below(6)] << " " << reg(false) << ", "
               << reg() << ", " << int64_t(rng.below(4096)) - 2048 << "\n";
            break;
          }
          case 3:
            os << "    " << (rng.below(2) ? "slli" : "srai") << " "
               << reg(false) << ", " << reg() << ", " << rng.below(32)
               << "\n";
            break;
          case 4:
            os << "    lui " << reg(false) << ", " << rng.below(1 << 20)
               << "\n";
            break;
          case 5:
            os << "    sw " << reg() << ", " << 4 * rng.below(16)
               << "(s0)\n";
            break;
          case 6:
            os << "    lw " << reg(false) << ", " << 4 * rng.below(16)
               << "(s0)\n";
            break;
          case 7: {
            // Forward branch over 1-3 instructions: emit the branch, the
            // skipped filler, and the landing label inline.
            static const char *ops[] = {"beq", "bne", "blt", "bge",
                                        "bltu", "bgeu"};
            int skip = 1 + int(rng.below(3));
            os << "    " << ops[rng.below(6)] << " " << reg() << ", "
               << reg() << ", fwd_" << seed << "_" << i << "\n";
            for (int k = 0; k < skip; ++k)
                os << "    addi " << reg(false) << ", " << reg() << ", "
                   << rng.below(100) << "\n";
            os << "fwd_" << seed << "_" << i << ":\n";
            break;
          }
          case 8: {
            // Forward jal with a live link register.
            os << "    jal x5, jmp_" << seed << "_" << i << "\n";
            os << "    addi x6, x6, 1\n";
            os << "jmp_" << seed << "_" << i << ":\n";
            break;
          }
          default:
            os << "    auipc " << reg(false) << ", " << rng.below(16)
               << "\n";
            break;
        }
    }
    // One bounded back edge exercises taken backward branches.
    os << "    addi s1, s1, -1\n";
    os << "    bnez s1, outer\n";
    os << "    ecall\n";
    return os.str();
}

struct GoldenState {
    uint32_t regs[32];
    std::vector<uint32_t> scratch;
    uint64_t instructions;
};

GoldenState
runIss(const std::vector<uint32_t> &image)
{
    isa::Iss iss(image);
    auto stats = iss.run(2'000'000);
    GoldenState g;
    for (unsigned i = 0; i < 32; ++i)
        g.regs[i] = iss.reg(i);
    g.scratch.assign(iss.memory().begin() + 0x100 / 4,
                     iss.memory().begin() + 0x100 / 4 + 16);
    g.instructions = stats.retired;
    return g;
}

class CpuFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpuFuzzTest, AllCoresMatchIss)
{
    uint64_t seed = GetParam();
    std::string program = randomProgram(seed, 24);
    auto code = isa::assemble(program);
    std::vector<uint32_t> image(code.begin(), code.end());
    image.resize(256, 0);

    GoldenState golden = runIss(image);

    auto check = [&](const char *label, sim::Simulator &s,
                     const RegArray *rf, const RegArray *mem,
                     const RegArray *retired) {
        s.run(1'000'000);
        ASSERT_TRUE(s.finished()) << label << " seed " << seed;
        EXPECT_EQ(s.readArray(retired, 0), golden.instructions)
            << label << " seed " << seed;
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(s.readArray(rf, i), golden.regs[i])
                << label << " seed " << seed << " x" << i;
        for (size_t i = 0; i < golden.scratch.size(); ++i)
            EXPECT_EQ(s.readArray(mem, 0x100 / 4 + i), golden.scratch[i])
                << label << " seed " << seed << " mem+" << i;
    };

    for (int policy = 0; policy < 3; ++policy) {
        auto cpu = designs::buildCpu(
            static_cast<designs::BranchPolicy>(policy), image);
        sim::Simulator s(*cpu.sys);
        check("in-order", s, cpu.rf, cpu.mem, cpu.retired);
    }
    {
        auto ooo = designs::buildOoo(image);
        sim::Simulator s(*ooo.sys);
        check("ooo", s, ooo.rf, ooo.mem, ooo.retired);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(61)));

/**
 * The sweep-runner form (sim/sweep.h): the CPU is compiled ONCE into a
 * sim::Program, then a batch of shuffle-seed configs executes
 * concurrently over it. Every instance must retire the ISS-golden
 * instruction count and match its own serial run bit for bit — the
 * shuffle-invariance property, proved from inside the thread pool.
 */
TEST(CpuSweepTest, SharedProgramShuffleSweepMatchesSerial)
{
    std::string program = randomProgram(5, 24);
    auto code = isa::assemble(program);
    std::vector<uint32_t> image(code.begin(), code.end());
    image.resize(256, 0);
    GoldenState golden = runIss(image);

    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    auto prog = sim::Program::compile(*cpu.sys);

    std::vector<sim::RunConfig> configs;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        sim::RunConfig cfg;
        cfg.name = "shuffle" + std::to_string(seed);
        cfg.max_cycles = 1'000'000;
        cfg.sim.shuffle = true;
        cfg.sim.shuffle_seed = seed;
        configs.push_back(cfg);
    }
    sim::SweepReport report =
        sim::runSweep(configs, sim::eventInstance(prog), 4);
    ASSERT_EQ(report.runs.size(), configs.size());
    EXPECT_TRUE(report.allOk());

    for (size_t i = 0; i < configs.size(); ++i) {
        sim::Simulator serial(prog, configs[i].sim);
        serial.run(configs[i].max_cycles);
        ASSERT_TRUE(serial.finished()) << configs[i].name;
        EXPECT_EQ(serial.readArray(cpu.retired, 0), golden.instructions)
            << configs[i].name;
        EXPECT_EQ(report.runs[i].result.cycles, serial.cycle())
            << configs[i].name;
        EXPECT_EQ(report.runs[i].metrics.toJson("cpu"),
                  serial.metrics().toJson("cpu"))
            << configs[i].name;
    }
    // Shuffle must not change behaviour at all: every instance's
    // metrics are identical, so the merged counters are exactly
    // one run's counters times the batch size.
    EXPECT_EQ(report.merged().counter("total.executions"),
              report.runs[0].metrics.counter("total.executions") *
                  configs.size());
}

} // namespace
} // namespace assassyn
