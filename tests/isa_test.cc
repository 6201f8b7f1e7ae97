/**
 * @file
 * Unit tests for the RV32I subset: encoder/decoder round trips, the
 * assembler (labels, pseudo-instructions, immediates), the functional
 * ISS, and end-to-end verification of all six Sodor workloads.
 */
#include <gtest/gtest.h>

#include "isa/iss.h"
#include "isa/workloads.h"
#include "support/logging.h"

namespace assassyn {
namespace isa {
namespace {

TEST(AsmTest, EncodesAddi)
{
    auto words = assemble("addi x1, x2, -5");
    ASSERT_EQ(words.size(), 1u);
    Decoded d = decode(words[0]);
    EXPECT_EQ(d.opcode, uint32_t(kOpImm));
    EXPECT_EQ(d.rd, 1u);
    EXPECT_EQ(d.rs1, 2u);
    EXPECT_EQ(d.imm, -5);
}

TEST(AsmTest, AbiRegisterNames)
{
    auto words = assemble("add a0, sp, t3");
    Decoded d = decode(words[0]);
    EXPECT_EQ(d.rd, 10u);
    EXPECT_EQ(d.rs1, 2u);
    EXPECT_EQ(d.rs2, 28u);
}

TEST(AsmTest, BranchTargetsAreRelative)
{
    auto words = assemble(R"(
        top:
        addi x1, x1, 1
        bne x1, x2, top
    )");
    ASSERT_EQ(words.size(), 2u);
    Decoded d = decode(words[1]);
    EXPECT_EQ(d.opcode, uint32_t(kBranch));
    EXPECT_EQ(d.imm, -4);
}

TEST(AsmTest, ForwardLabels)
{
    auto words = assemble(R"(
        j skip
        addi x1, x0, 1
        skip:
        addi x2, x0, 2
    )");
    ASSERT_EQ(words.size(), 3u);
    Decoded d = decode(words[0]);
    EXPECT_EQ(d.opcode, uint32_t(kJal));
    EXPECT_EQ(d.imm, 8);
}

TEST(AsmTest, LiExpandsLargeImmediates)
{
    auto small = assemble("li a0, 42");
    EXPECT_EQ(small.size(), 1u);
    auto large = assemble("li a0, 0x12345678");
    EXPECT_EQ(large.size(), 2u);
    // Execute to check the value materializes exactly.
    std::vector<uint32_t> mem(large.begin(), large.end());
    mem.push_back(0x00000073); // ecall
    Iss iss(mem);
    iss.run();
    EXPECT_EQ(iss.reg(10), 0x12345678u);
}

TEST(AsmTest, LiNegative)
{
    auto words = assemble("li a0, -123456\necall");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    iss.run();
    EXPECT_EQ(int32_t(iss.reg(10)), -123456);
}

TEST(AsmTest, StoreLoadRoundTrip)
{
    auto words = assemble(R"(
        li a0, 0x40
        li a1, 777
        sw a1, 0(a0)
        lw a2, 0(a0)
        ecall
    )");
    std::vector<uint32_t> mem(64, 0);
    std::copy(words.begin(), words.end(), mem.begin());
    Iss iss(mem);
    iss.run();
    EXPECT_EQ(iss.reg(12), 777u);
    EXPECT_EQ(iss.loadWord(0x40), 777u);
}

TEST(AsmTest, RejectsUnknownMnemonic)
{
    EXPECT_THROW(assemble("frobnicate x1, x2"), FatalError);
}

TEST(AsmTest, RejectsOutOfRangeImmediate)
{
    EXPECT_THROW(assemble("addi x1, x0, 5000"), FatalError);
}

TEST(AsmTest, RejectsDuplicateLabel)
{
    EXPECT_THROW(assemble("a:\nnop\na:\nnop"), FatalError);
}

TEST(IssTest, ArithmeticSemantics)
{
    auto words = assemble(R"(
        li a0, -8
        li a1, 3
        sra a2, a0, a1      # -1
        srl a3, a0, a1      # large
        slt a4, a0, a1      # 1 (signed)
        sltu a5, a0, a1     # 0 (unsigned)
        sub a6, a1, a0      # 11
        ecall
    )");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    iss.run();
    EXPECT_EQ(int32_t(iss.reg(12)), -1);
    EXPECT_EQ(iss.reg(13), 0xfffffff8u >> 3);
    EXPECT_EQ(iss.reg(14), 1u);
    EXPECT_EQ(iss.reg(15), 0u);
    EXPECT_EQ(iss.reg(16), 11u);
}

TEST(IssTest, JalLinksReturnAddress)
{
    auto words = assemble(R"(
        call fn
        ecall
        fn:
        addi a0, x0, 9
        ret
    )");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    IssStats st = iss.run();
    EXPECT_TRUE(st.halted);
    EXPECT_EQ(iss.reg(10), 9u);
}

TEST(IssTest, CountsBranchStats)
{
    auto words = assemble(R"(
        li a0, 4
        loop:
        addi a0, a0, -1
        bnez a0, loop
        ecall
    )");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    IssStats st = iss.run();
    EXPECT_EQ(st.branches, 4u);
    EXPECT_EQ(st.branches_taken, 3u);
}

TEST(IssTest, HaltsOnBudget)
{
    auto words = assemble("loop:\nj loop");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    EXPECT_THROW(iss.run(1000), FatalError);
}

TEST(IssTest, X0StaysZero)
{
    auto words = assemble("addi x0, x0, 7\necall");
    std::vector<uint32_t> mem(words.begin(), words.end());
    Iss iss(mem);
    iss.run();
    EXPECT_EQ(iss.reg(0), 0u);
}

/** Every Sodor workload must run to completion and verify on the ISS. */
class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, RunsAndVerifiesOnIss)
{
    const Workload &wl = workload(GetParam());
    Iss iss(buildMemoryImage(wl));
    IssStats st = iss.run();
    EXPECT_TRUE(st.halted);
    EXPECT_GT(st.retired, 100u);
    EXPECT_TRUE(wl.verify(iss.memory())) << wl.name << " output mismatch";
}

INSTANTIATE_TEST_SUITE_P(Sodor, WorkloadTest,
                         ::testing::Values("vvadd", "median", "multiply",
                                           "qsort", "rsort", "towers"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace isa
} // namespace assassyn
